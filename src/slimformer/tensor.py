"""Dense float64 tensors with define-by-run reverse-mode gradients.

The graph is rebuilt on every forward pass, which keeps approximated models
(whose structure changes from plan to plan) trivially correct. Everything is
float64 so finite-difference gradient checks can be tight.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
MASK_NEG = -1e9  # added to the score of a key its query does not see

# thread-local so models training in parallel threads stay independent
_state = threading.local()


def grad_enabled() -> bool:
    """Whether ops in this thread record the graph (off inside no_grad)."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation passes)."""
    prev = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64): identical seed, identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent stream from a base seed and an integer key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


class Tensor:
    """Rank-1..4 float64 array, optionally tracked by the autodiff graph
    (rank 4: attention heads, ``[B, h, n, dh]``)."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 4:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max rank 4)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._grad_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Populate .grad on every reachable requires_grad tensor.

        Only scalar losses may seed a backward pass; calling it twice on the
        same loss without rebuilding the graph is an error.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if self._backward_done:
            raise RuntimeError("backward() already called on this loss; rebuild the graph first")
        self._backward_done = True

        # Depth-first post-order over the nodes with a grad_fn (a leaf has no
        # parents, so leaving leaves out keeps the order of the rest). A
        # node is marked when popped: marked when pushed, it would be
        # skipped by a consumer that reaches it again deeper down, and be
        # appended after that consumer. Tensors hash by identity, so the
        # set holds the nodes themselves.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent._grad_fn is not None and parent not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._grad_fn is None or node.grad is None:
                continue
            parent_grads = node._grad_fn(node.grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                # A first gradient may be another node's gradient or a view
                # of one, so it is stored as is (only a leaf's is copied, into
                # C order; an inner node's keeps its layout, such as a head
                # view's) and later ones are added out of place. No grad_fn
                # writes into its g.
                if parent.grad is None:
                    parent.grad = np.ascontiguousarray(pgrad) if parent._grad_fn is None else pgrad
                else:
                    parent.grad = np.add(parent.grad, pgrad, order="C")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Wrap an op's output. ``grad_fn(g)`` returns one parent-shaped
    gradient per parent, or None for a parent that needs none."""
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _result(data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _result(data, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    """2D@2D, 3D@3D or 3D@2D product; kept only as a benchmark tracer target."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim == 3 and b.data.ndim == 2:
        data = a.data @ b.data

        def grad_fn(g):
            gb = np.tensordot(a.data, g, axes=([0, 1], [0, 1])) if b.requires_grad else None
            return (g @ b.data.T if a.requires_grad else None), gb

        return _result(data, (a, b), grad_fn)
    if a.data.ndim == b.data.ndim and a.data.ndim in (2, 3):
        data = a.data @ b.data

        def grad_fn(g):
            return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                    np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

        return _result(data, (a, b), grad_fn)
    raise ValueError(f"matmul rank combination not supported: {a.data.shape} @ {b.data.shape}")


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, for [.., n, d] activations and a [d, o]
    weight: the arithmetic of ``add(matmul(x, w), b)``, bit for bit."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim not in (2, 3) or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    data = x.data @ w.data
    data += b.data

    def grad_fn(g):
        gw = None
        if w.requires_grad:
            if x.data.ndim == 2:
                gw = x.data.T @ g
            else:
                # the product np.tensordot(x, g, axes=([0, 1], [0, 1])) forms
                rows = x.data.shape[0] * x.data.shape[1]
                gw = np.dot(x.data.reshape(rows, -1).T, g.reshape(rows, -1))
        return (g @ w.data.T if x.requires_grad else None, gw,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _result(data, (x, w, b), grad_fn)


def full_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """softmax(Q K^T / sqrt(d) + additive mask) V on whatever keys are
    given, as one node over [.., n, d] queries, keys and values. ``mask``
    is a boolean visibility array, broadcast against the [.., n, n_k]
    scores: True where the query sees the key. A hidden key's score gets
    ``MASK_NEG`` added, never reaches ``exp`` and gets weight exactly 0; a
    query with no visible key gets zero weights, so its output row is zero.
    Forward and backward keep the operation order of the unfused
    composition ``matmul(softmax_rows(add(mul(matmul(q, transpose_last(k)),
    d ** -0.5), where(mask, 0, MASK_NEG))), v)`` with those rows zeroed
    after it, so both give the same bits.

    The output is laid out in memory like ``q`` and each gradient like its
    operand (``np.empty_like`` keeps a strided view's axis order), so the
    head views of ``split_heads`` come back as views too."""
    scale = q.data.shape[-1] ** -0.5
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores *= scale
    if mask is not None:
        scores += np.where(mask, 0.0, MASK_NEG)
    p = _softmax(scores, mask)
    data = np.matmul(p, v.data, out=np.empty_like(q.data, shape=p.shape[:-1]
                                                   + v.data.shape[-1:]))

    def grad_fn(g):
        gv = (np.matmul(np.swapaxes(p, -1, -2), g, out=np.empty_like(v.data))
              if v.requires_grad else None)
        gscores = g @ np.swapaxes(v.data, -1, -2)
        dot = np.multiply(gscores, p).sum(axis=-1, keepdims=True)
        gscores -= dot
        gscores *= p
        gscores *= scale
        gq = np.matmul(gscores, k.data, out=np.empty_like(q.data)) if q.requires_grad else None
        gk = None
        if k.requires_grad:
            gk = np.empty_like(k.data)
            gk[...] = np.swapaxes(np.swapaxes(q.data, -1, -2) @ gscores, -1, -2)
        return gq, gk, gv

    return _result(data, (q, k, v), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.data.shape),)

    return _result(data, (a,), grad_fn)


def take(a: Tensor, index, axis: int) -> Tensor:
    """Entries at ``index`` along ``axis``: an array of distinct indices,
    or a slice, which selects a view without copying. The gradient is
    scattered into zeros of the full shape, so left-out entries get
    exactly zero."""
    key = (slice(None),) * (axis % a.data.ndim) + (index,)
    data = a.data[key]

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _result(data, (a,), grad_fn)


def row_index(lead: tuple, indices) -> tuple:
    """The index ``gather_rows`` applies to a [*lead, n, d] array for [K]
    row indices shared by every leading index or [*lead, K] ones (numpy
    broadcasts the one against the other)."""
    return tuple(np.arange(size).reshape((-1,) + (1,) * (len(lead) - axis))
                 for axis, size in enumerate(lead)) + (np.asarray(indices, dtype=np.int64),)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis -2 of a [..., n, d] tensor: [K] indices shared
    by every leading index, [..., K] indices, one row list per leading
    index, or their ``row_index``, which a caller gathering several tensors
    at the same rows builds once. No row may repeat within a list: the
    gradient is scattered by assignment."""
    key = indices if isinstance(indices, tuple) else row_index(a.data.shape[:-2], indices)
    data = a.data[key]

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _result(data, (a,), grad_fn)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """[.., n, h*dh] -> [.., h, n, dh], as a strided view of ``a``: head i
    reads columns i*dh to (i+1)*dh. A gradient laid out in memory like
    the view (as ``full_attention`` writes it) comes back without a copy."""
    *lead, n, d = a.data.shape
    data = np.swapaxes(a.data.reshape(*lead, n, heads, d // heads), -2, -3)

    def grad_fn(g):
        return (np.swapaxes(g, -2, -3).reshape(a.data.shape),)

    return _result(data, (a,), grad_fn)


def merge_heads(a: Tensor) -> Tensor:
    """[.., h, n, dh] -> [.., n, h*dh], the inverse of ``split_heads``;
    a view when ``a`` is laid out like a split_heads view."""
    *lead, h, n, dh = a.data.shape
    data = np.swapaxes(a.data, -2, -3).reshape(*lead, n, h * dh)

    def grad_fn(g):
        return (np.swapaxes(g.reshape(*lead, n, h, dh), -2, -3),)

    return _result(data, (a,), grad_fn)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of ``table`` at ``ids``. Gradients of repeated ids accumulate in
    input order: np.bincount adds its weights in that order, one bin per
    (id, column)."""
    ids = np.asarray(ids, dtype=np.int64)
    data = table.data[ids]

    def grad_fn(g):
        vocab, d = table.data.shape
        bins = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(bins, weights=g.reshape(-1), minlength=vocab * d)
        return (gt.reshape(vocab, d),)

    return _result(data, (table,), grad_fn)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the position axis (-2): [.., n, d] -> [.., d]."""
    n = a.data.shape[-2]
    data = a.data.mean(axis=-2)

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / n, -2), n, axis=-2),)

    return _result(data, (a,), grad_fn)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU. ``erf`` is handed |x|/sqrt(2) and the sign
    is put back with ``np.copysign``: scipy evaluates erf(-y) as -erf(y),
    so every bit but a NaN's sign is that of erf(x/sqrt(2)), and the sign
    branch inside erf, which random signs mispredict, is never taken."""
    x = a.data
    cdf = x * _INV_SQRT2
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def grad_fn(g):
        # g * (cdf + x * pdf), pdf = _INV_SQRT2PI * exp(-0.5 * x * x)
        grad = np.multiply(x, -0.5)
        grad *= x
        np.exp(grad, out=grad)
        grad *= _INV_SQRT2PI
        grad *= x
        grad += cdf
        grad *= g
        return (grad,)

    return _result(data, (a,), grad_fn)


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), the same bits at a fraction of the
    cost on short rows: an even row above 16 entries is folded in half,
    then 16 or fewer columns are compared one by one."""
    while x.shape[-1] > 16 and x.shape[-1] % 2 == 0:
        half = x.shape[-1] // 2
        x = np.maximum(x[..., :half], x[..., half:])
    if x.shape[-1] > 16:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def _softmax(x: np.ndarray, visible: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``. Entries where
    ``visible`` is False are zeroed before ``exp`` (so a huge negative score
    never takes its slow underflow path) and get weight 0 after it. A row
    with a visible entry sums to at least 1 (its max gives exp(0)); a row
    with none sums to 0 and keeps zero weights."""
    x -= _row_max(x)
    if visible is not None:
        x *= visible
    np.exp(x, out=x)
    if visible is not None:
        x *= visible
    total = x.sum(axis=-1, keepdims=True)
    total[total == 0.0] = 1.0
    return np.divide(x, total, out=x)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax; kept only as a benchmark tracer target."""
    p = _softmax(a.data.copy())

    def grad_fn(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _result(p, (a,), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean/unit variance,
    then scale by gamma and shift by beta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    # the arithmetic of x.var(axis=-1), with x - mu computed once
    var = np.square(centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data

    def grad_fn(g):
        lead = tuple(range(g.ndim - 1))
        buf = np.multiply(g, xhat)
        ggamma = buf.sum(axis=lead) if gamma.requires_grad else None
        gx = None
        if x.requires_grad:
            # inv * (gx_hat - mean(gx_hat) - xhat * sum(gx_hat * xhat) / d)
            gx = np.multiply(g, gamma.data)
            mean = gx.mean(axis=-1, keepdims=True)
            np.multiply(gx, xhat, out=buf)
            dot = buf.sum(axis=-1, keepdims=True)
            np.multiply(xhat, dot, out=buf)
            buf /= d
            gx -= mean
            gx -= buf
            gx *= inv
        return gx, ggamma, g.sum(axis=lead) if beta.requires_grad else None

    return _result(data, (x, gamma, beta), grad_fn)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy expects [n, classes] logits, got {logits.data.shape}")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels length {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    nll = logz - shifted[np.arange(n), labels]
    data = np.array([nll.mean()])

    def grad_fn(g):
        p = np.exp(shifted - logz[:, None])
        p[np.arange(n), labels] -= 1.0
        return (g.reshape(-1)[0] * p / n,)

    return _result(data, (logits,), grad_fn)
