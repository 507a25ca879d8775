"""Numeric core: op semantics and gradient correctness."""

import numpy as np
import pytest

from slimformer.tensor import (Tensor, add, cross_entropy, embedding_lookup,
                               gather_rows, gelu, layer_norm, make_rng, matmul,
                               mean_rows, merge_heads, mul, no_grad, reshape,
                               softmax_rows, split_heads, spawn_rng, sum_all,
                               take, transpose_last)

from reference import finite_difference_grad, ref_cross_entropy, ref_softmax


def check_grad(build_loss, params, rel_tol=1e-5, h=1e-5):
    """Analytic gradients vs central finite differences on float64."""
    loss = build_loss()
    loss.backward()
    for p in params:
        analytic = p.grad.copy()
        numeric = finite_difference_grad(lambda: build_loss().item(), p.data, h=h)
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        mask = np.abs(numeric) > 1e-7
        assert rel[mask].max(initial=0.0) < rel_tol, f"rel err {rel[mask].max():.2e}"
        assert np.abs(analytic - numeric)[~mask].max(initial=0.0) < 1e-6
        p.grad = None


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_orthogonal_rows(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_against_triple_loop(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, expected,
                                   rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batched_matches_per_matrix(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b[i], atol=1e-12)


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_saturation_is_stable(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_formula(self):
        row = np.array([[1.0, 2.0, 3.0]])
        e = np.exp(row - 3.0)
        np.testing.assert_allclose(softmax_rows(Tensor(row)).data, e / e.sum(),
                                   atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(scale=10.0, size=(20, 7))
        out = softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out >= 0).all()


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        x = Tensor(np.full((1, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        x = Tensor([[1.0, -1.0]])
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_output_statistics(self, rng):
        x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(5, 32)))
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_rejects_bad_eps(self):
        x = Tensor(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)


class TestCrossEntropy:
    def test_uniform_is_log_nclasses(self):
        logits = Tensor(np.zeros((3, 4)))
        assert abs(cross_entropy(logits, [0, 1, 2]).item() - np.log(4)) < 1e-12

    def test_saturated_correct_logit(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 50.0
        assert cross_entropy(Tensor(logits), [1]).item() < 1e-12

    def test_matches_log_softmax(self, rng):
        logits = rng.normal(size=(2, 3))
        got = cross_entropy(Tensor(logits), [2, 0]).item()
        assert abs(got - ref_cross_entropy(logits, [2, 0])) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_cross_entropy_chain_matches_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = [0, 2, 1]
        check_grad(lambda: cross_entropy(matmul(x, w), labels), [w])

    def test_detached_tensor_gets_no_grad(self, rng):
        w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        d = w.detach()
        sum_all(mul(d, 2.0)).backward()
        assert w.grad is None and d.grad is None

    def test_backward_twice_raises(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = sum_all(w)
        loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()

    def test_backward_needs_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            mul(w, 2.0).backward()


class TestGradients:
    """Finite-difference checks for every differentiable op."""

    def test_matmul_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_grad(lambda: sum_all(mul(matmul(a, b), rng_const((3, 2)))), [a, b])

    def test_matmul_3d_by_2d(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_grad(lambda: sum_all(mul(matmul(a, b), rng_const((2, 3, 2)))), [a, b])

    def test_matmul_3d_by_3d(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_grad(lambda: sum_all(mul(matmul(a, b), rng_const((2, 3, 3)))), [a, b])

    def test_add_broadcast_bias(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        check_grad(lambda: sum_all(mul(add(a, bias), rng_const((2, 3, 4)))), [a, bias])

    def test_mul_elementwise(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_grad(lambda: sum_all(mul(mul(a, b), rng_const((3, 4)))), [a, b])

    def test_softmax(self, rng):
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check_grad(lambda: sum_all(mul(softmax_rows(a), rng_const((3, 5)))), [a])

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        check_grad(lambda: sum_all(mul(layer_norm(x, g, b), rng_const((3, 6)))),
                   [x, g, b])

    def test_gelu(self, rng):
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        check_grad(lambda: sum_all(mul(gelu(a), rng_const((4, 4)))), [a])

    def test_transpose_reshape(self, rng):
        a = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        check_grad(lambda: sum_all(mul(reshape(transpose_last(a), (6, 3)),
                                       rng_const((6, 3)))), [a])

    def test_gather_rows_2d(self, rng):
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        check_grad(lambda: sum_all(mul(gather_rows(a, idx), rng_const((4, 3)))), [a])

    def test_gather_rows_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        idx = np.array([[0, 1], [4, 4]])
        check_grad(lambda: sum_all(mul(gather_rows(a, idx), rng_const((2, 2, 3)))), [a])

    @pytest.mark.parametrize("index, axis", [(slice(1, 3), -1), (np.array([0, 3]), -1),
                                             (np.array([2, 0]), 1)],
                             ids=["slice", "indices", "rows"])
    def test_take(self, rng, index, axis):
        a = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        weight = rng_const(take(a, index, axis).shape)
        check_grad(lambda: sum_all(mul(take(a, index, axis), weight)), [a])
        sum_all(take(a, index, axis)).backward()
        expected = np.zeros_like(a.data)
        expected[(slice(None),) * (axis % 3) + (index,)] = 1.0
        assert np.array_equal(a.grad, expected)  # left-out entries get exactly zero

    def test_take_slice_is_a_view(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        assert np.shares_memory(take(a, slice(0, 2), 0).data, a.data)

    def test_embedding_lookup(self, rng):
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[0, 5, 5], [2, 1, 0]])
        check_grad(lambda: sum_all(mul(embedding_lookup(table, ids),
                                       rng_const((2, 3, 4)))), [table])

    def test_mean_rows(self, rng):
        a = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_grad(lambda: sum_all(mul(mean_rows(a), rng_const((2, 3)))), [a])

    def test_split_merge_heads(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)

        def loss():
            return sum_all(mul(merge_heads(split_heads(a, 4), 4), rng_const((2, 3, 8))))

        check_grad(loss, [a])

    def test_split_merge_roundtrip_exact(self, rng):
        x = rng.normal(size=(2, 3, 8))
        out = merge_heads(split_heads(Tensor(x), 2), 2)
        np.testing.assert_array_equal(out.data, x)


def rng_const(shape):
    """Fixed pseudo-random weighting so sums exercise non-uniform gradients."""
    gen = np.random.default_rng(99)
    return gen.normal(size=shape)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).normal(size=10)
        b = make_rng(42).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_spawn_paths_independent(self):
        a = spawn_rng(1, 2, 3).normal(size=4)
        b = spawn_rng(1, 2, 4).normal(size=4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, spawn_rng(1, 2, 3).normal(size=4))


class TestNoGrad:
    def test_no_graph_inside_context(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = mul(w, 3.0)
        assert out.requires_grad is False and out._parents == ()

    def test_rank_guard(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.normal(scale=50.0, size=(4, 6)))
        for out in (softmax_rows(x), gelu(x),
                    layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))):
            assert np.isfinite(out.data).all()
