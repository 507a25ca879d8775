"""Numeric core: op semantics and gradient correctness."""

import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import slimformer.tensor
from slimformer.tensor import (Tensor, add, cross_entropy, embedding_lookup,
                               full_attention, gather_rows, gelu, layer_norm,
                               linear, make_rng, matmul, mean_rows, merge_heads,
                               mul, no_grad, reshape, softmax_rows, split_heads,
                               spawn_rng, take)

from reference import (MASK_NEG, finite_difference_grad, ref_cross_entropy, ref_gelu_bits,
                       ref_softmax, sum_all, transpose_last)


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

    def test_bit_identical_to_numpy_var(self, rng):
        x = rng.normal(loc=3.0, scale=2.5, size=(2, 5, 32))
        gamma, beta = rng.normal(size=32), rng.normal(size=32)
        mu = x.mean(axis=-1, keepdims=True)
        expected = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * gamma + beta
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_array_equal(out, expected)

    def test_rejects_bad_eps(self):
        x = Tensor(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)


class TestGelu:
    @staticmethod
    def inputs(rng):
        """Signed zeros, infinities, NaN, subnormals, the ulps around
        |x| = sqrt(2) (where erf's argument crosses 1, its branch point),
        |x| > 8 (erf is +-1) and normal draws."""
        near = np.sqrt(2.0) + np.arange(-4, 5) * np.spacing(np.sqrt(2.0))
        special = [0.0, np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                   *near, 8.0, 8.5, 30.0, 1e3, 1e154, 1.5e154, 1e300]
        return np.concatenate([special, np.negative(special), rng.normal(size=10 ** 5)])

    @staticmethod
    def assert_same_bits(got, expected):
        """Equal bits everywhere but a NaN's sign bit."""
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))

    def test_forward_and_backward_bits_match_plain_formula(self, rng):
        x = self.inputs(rng)
        g = rng.normal(size=x.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at |x| = inf
            out = gelu(Tensor(x, requires_grad=True))
            (grad,) = out._grad_fn(g)
            ref_out, ref_grad = ref_gelu_bits(x, g)
        self.assert_same_bits(out.data, ref_out)
        self.assert_same_bits(grad, ref_grad)
        assert np.signbit(out.data[x == 0.0]).tolist() == np.signbit(x[x == 0.0]).tolist()


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

    @staticmethod
    def assert_accumulated(t, contributions):
        """t.grad holds what zeros plus in-place += of each contribution
        gives, in C order and t's shape."""
        expected = np.zeros_like(t.data)
        for c in contributions:
            expected += c
        np.testing.assert_array_equal(t.grad, expected)
        assert t.grad.shape == t.data.shape and t.grad.flags.c_contiguous

    def test_operand_used_twice_in_one_op(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng_const((3, 4))
        sum_all(mul(add(a, a), c)).backward()
        self.assert_accumulated(a, [c, c])

    def test_tensor_with_two_consumers(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        c1, c2 = rng_const((2, 3, 4)), rng.normal(size=(2, 3, 4))
        sum_all(add(mul(a, c1), mul(a, c2))).backward()
        self.assert_accumulated(a, [c1, c2])

    def test_non_contiguous_first_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng_const((4, 3))
        sum_all(mul(transpose_last(a), c)).backward()
        self.assert_accumulated(a, [c.T])

    def test_shared_first_gradient_stays_unaliased(self, rng):
        # add hands one gradient array to both operands; a's second
        # contribution must not leak into b's gradient
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng_const((3, 4))
        sum_all(mul(add(add(a, b), a), c)).backward()
        self.assert_accumulated(a, [c, c])
        self.assert_accumulated(b, [c])

    def test_constant_operands_get_no_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=5))
        sum_all(add(mul(linear(x, w, b), 2.0), Tensor(np.ones(5)))).backward()
        assert x.grad is not None and w.grad is None and b.grad is None


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
        idx = np.array([0, 2, 4, 1])
        check_grad(lambda: sum_all(mul(gather_rows(a, idx), rng_const((4, 3)))), [a])

    def test_gather_rows_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        idx = np.array([[0, 1], [4, 2]])
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

    def test_embedding_lookup_sums_like_add_at(self, rng):
        table = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        ids = rng.integers(0, 4, size=(16, 12))
        weight = rng.normal(size=(16, 12, 8))
        sum_all(mul(embedding_lookup(table, ids), weight)).backward()
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids.reshape(-1), weight.reshape(-1, 8))
        np.testing.assert_array_equal(table.grad, expected)

    def test_linear(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        check_grad(lambda: sum_all(mul(linear(x, w, b), rng_const((2, 3, 2)))), [x, w, b])

    def test_full_attention(self, rng):
        q, k, v = (Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True) for _ in range(3))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_grad(lambda: sum_all(mul(full_attention(q, k, v, mask), rng_const((2, 4, 3)))),
                   [q, k, v])

    def test_mean_rows(self, rng):
        a = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_grad(lambda: sum_all(mul(mean_rows(a), rng_const((2, 3)))), [a])

    def test_split_merge_heads(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)

        def loss():
            return sum_all(mul(merge_heads(split_heads(a, 4)), rng_const((2, 3, 8))))

        check_grad(loss, [a])

    def test_split_merge_roundtrip_exact(self, rng):
        x = rng.normal(size=(2, 3, 8))
        out = merge_heads(split_heads(Tensor(x), 2))
        np.testing.assert_array_equal(out.data, x)


class TestFusedNodes:
    """The fused nodes give the bits of the unfused compositions they
    replace, forward and backward, including with constant operands."""

    @staticmethod
    def run(build, arrays, const, weight):
        """Output and input gradients of sum(build(*inputs) * weight); the
        inputs named in const take no gradient."""
        inputs = [Tensor(a, requires_grad=i not in const) for i, a in enumerate(arrays)]
        out = build(*inputs)
        sum_all(mul(out, weight)).backward()
        return out.data, [t.grad for t in inputs]

    def assert_same_bits(self, fused, unfused, arrays, const, rng):
        weight = rng.normal(size=fused(*map(Tensor, arrays)).shape)
        out, grads = self.run(fused, arrays, const, weight)
        ref_out, ref_grads = self.run(unfused, arrays, const, weight)
        np.testing.assert_array_equal(out, ref_out)
        for i, (g, ref) in enumerate(zip(grads, ref_grads)):
            if i in const:
                assert g is None and ref is None
            else:
                np.testing.assert_array_equal(g, ref)

    @pytest.mark.parametrize("lead", [(5,), (3, 5)], ids=["2d", "3d"])
    @pytest.mark.parametrize("const", [(), (1,), (0, 2)], ids=["none", "w", "x_b"])
    @pytest.mark.parametrize("width", [4, 0])
    def test_linear(self, rng, lead, const, width):
        arrays = [rng.normal(size=lead + (width,)), rng.normal(size=(width, 6)),
                  rng.normal(size=6)]
        self.assert_same_bits(linear, lambda x, w, b: add(matmul(x, w), b), arrays,
                              const, rng)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
    @pytest.mark.parametrize("const", [(), (2,), (0, 1)], ids=["none", "v", "q_k"])
    def test_full_attention(self, rng, lead, masked, const):
        n_q, n_k, dh = 5, 4, 3
        arrays = [rng.normal(size=lead + (n, dh)) for n in (n_q, n_k, n_k)]
        mask = rng.random((n_q, n_k)) >= 0.3 if masked else None

        def unfused(q, k, v):
            scores = mul(matmul(q, transpose_last(k)), dh ** -0.5)
            if mask is not None:
                scores = add(scores, Tensor(np.where(mask, 0.0, MASK_NEG)))
            return matmul(softmax_rows(scores), v)

        self.assert_same_bits(lambda q, k, v: full_attention(q, k, v, mask), unfused,
                              arrays, const, rng)


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
        # rank 4 is the attention-head view [B, h, n, dh]
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.normal(scale=50.0, size=(4, 6)))
        for out in (softmax_rows(x), gelu(x),
                    layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))):
            assert np.isfinite(out.data).all()


def test_every_op_has_a_package_caller():
    """Every public function of slimformer.tensor is called from another
    package module or is a name the benchmark's tracer wraps; test-only
    ops live in tests/reference.py."""
    root = Path(slimformer.tensor.__file__).resolve().parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root.parent.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    callers = "\n".join(p.read_text() for p in root.glob("*.py") if p.name != "tensor.py")
    orphans = [name for name, fn in vars(slimformer.tensor).items()
               if inspect.isfunction(fn) and fn.__module__ == "slimformer.tensor"
               and not name.startswith("_") and name not in tracer.OP_TARGETS
               and not re.search(rf"\b{name}\(", callers)]
    assert orphans == []
