"""Adam optimizer over Tensor parameters."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction over one flat buffer.

    The parameters' data become views into ``flat``, in registration
    order, and their moments live in flat buffers of the same layout, so a
    step is a few whole-buffer operations. The update is elementwise, so
    it gives the bits of a per-parameter loop."""

    def __init__(self, params: list[Tensor], lr: float = 3e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.flat = np.empty(sum(p.data.size for p in self.params))
        offset = 0
        for p in self.params:
            view = self.flat[offset:offset + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            offset += view.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.step_count = 0

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise RuntimeError(f"parameter {i} has no gradient; run backward() first")
            if p.data.base is not self.flat:
                raise RuntimeError(f"parameter {i}'s data was replaced after Adam took it")
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([p.grad.reshape(-1) for p in self.params])
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * (g * g)
        m_hat = self.m / (1 - self.beta1 ** t)
        v_hat = self.v / (1 - self.beta2 ** t)
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
