"""Adam's flat buffer: the bits of a per-parameter loop, and the data
layout it gives the parameters."""

import numpy as np
import pytest

from slimformer import Adam, Tensor

SHAPES = [(3,), (2, 4), (4, 2, 3), (1,)]


def reference_steps(values, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one parameter at a time, with per-parameter moments."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, step_grads in enumerate(grads, start=1):
        for i, g in enumerate(step_grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v2[i] = beta2 * v2[i] + (1 - beta2) * (g * g)
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v2[i] / (1 - beta2 ** t)
            values[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


class TestFlatAdam:
    def test_three_steps_match_per_parameter_loop(self, rng):
        values = [rng.normal(size=shape) for shape in SHAPES]
        grads = [[rng.normal(size=shape) for shape in SHAPES] for _ in range(3)]
        params = [Tensor(v, requires_grad=True) for v in values]
        opt = Adam(params, lr=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()
        for p, expected in zip(params, reference_steps(values, grads, lr=0.01)):
            np.testing.assert_array_equal(p.data, expected)

    def test_parameters_view_one_buffer_in_order(self, rng):
        values = [rng.normal(size=shape) for shape in SHAPES]
        params = [Tensor(v, requires_grad=True) for v in values]
        opt = Adam(params)
        np.testing.assert_array_equal(opt.flat, np.concatenate([v.ravel() for v in values]))
        for p, v in zip(params, values):
            assert p.data.shape == v.shape and np.shares_memory(p.data, opt.flat)
            assert p.data.flags.c_contiguous

    def test_replaced_data_raises(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p])
        p.data = np.zeros(2)
        p.grad = np.ones(2)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step()

    def test_needs_a_parameter(self):
        with pytest.raises(ValueError, match="at least one"):
            Adam([])
