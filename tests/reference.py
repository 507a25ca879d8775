"""Independent plain-numpy reference implementations used as test oracles,
and the test-only tensor ops.

The references deliberately mirror nothing of the library's internals:
attention is computed one head at a time, layer norm and softmax are written
from their formulas, and the model forward takes explicit include/exclude
flags so a "physically rebuilt" model without a block is just a different
flag set. The tensor ops (``sum_all``, ``transpose_last``) have no caller in
the package; tests use them to reduce outputs to a scalar loss and to build
the unfused compositions the fused nodes must reproduce.
``ref_masked_attention``, ``ref_score_keys``, ``ref_representative_sign``
and ``ref_gelu_bits`` are the plain formulations that the package's
attention, sign-scoring and GELU kernels replace, and ``FoldedHeads`` the
copying head layout that the strided head views replace; those kernels
must give the same bits.
"""

import math

import numpy as np
from scipy.special import erf

from slimformer.tensor import Tensor, _result

MASK_NEG = -1e9  # added to hidden scores; any huge negative gives the same bits


def sum_all(a: Tensor) -> Tensor:
    data = np.array([a.data.sum()])

    def grad_fn(g):
        return (np.full_like(a.data, g.reshape(-1)[0]),)

    return _result(data, (a,), grad_fn)


def transpose_last(a: Tensor) -> Tensor:
    data = np.swapaxes(a.data, -1, -2)

    def grad_fn(g):
        return (np.swapaxes(g, -1, -2),)

    return _result(data, (a,), grad_fn)


class FoldedHeads:
    """The copying head layout: ``split`` copies [B, n, h*dh] projections
    into [B*h, n, dh] (rank-2 input into [h, n, dh]) with heads folded into
    the batch axis, and ``merge`` copies the core's output back, for the
    head count and input rank of the last ``split``. Drop-in replacements
    for ``split_heads`` and ``merge_heads`` in one attention sublayer."""

    def split(self, a: Tensor, heads: int) -> Tensor:
        self.heads, self.squeeze = heads, a.data.ndim == 2
        x = a.data[None] if self.squeeze else a.data
        b, n, d = x.shape
        dh = d // heads
        data = x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3).reshape(b * heads, n, dh)

        def grad_fn(g):
            ga = g.reshape(b, heads, n, dh).transpose(0, 2, 1, 3).reshape(b, n, d)
            return (ga[0] if self.squeeze else ga,)

        return _result(data, (a,), grad_fn)

    def merge(self, a: Tensor) -> Tensor:
        heads, squeeze = self.heads, self.squeeze
        bh, n, dh = a.data.shape
        b = bh // heads
        data = a.data.reshape(b, heads, n, dh).transpose(0, 2, 1, 3).reshape(b, n, heads * dh)

        def grad_fn(g):
            gg = g[None] if squeeze else g
            return (gg.reshape(b, n, heads, dh).transpose(0, 2, 1, 3).reshape(bh, n, dh),)

        return _result(data[0] if squeeze else data, (a,), grad_fn)


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_masked_attention(q, k, v, mask, g):
    """The unfused masked attention arithmetic over [.., n, d] arrays and its
    gradients for an upstream gradient g: ``MASK_NEG`` added where the
    boolean visibility ``mask`` is False, ``x.max``, ``exp``, ``sum``,
    divide, then the rows of queries that see no key zeroed by a multiply.
    Returns (out, gq, gk, gv)."""
    scale = q.shape[-1] ** -0.5
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    keep = 1.0
    if mask is not None:
        scores = scores + np.where(mask, 0.0, MASK_NEG)
        keep = np.where(mask.any(axis=-1), 1.0, 0.0)[..., None]
    p = ref_softmax(scores)
    out = (p @ v) * keep
    g = g * keep
    gv = np.swapaxes(p, -1, -2) @ g
    gp = g @ np.swapaxes(v, -1, -2)
    gscores = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    gk = np.swapaxes(np.swapaxes(q, -1, -2) @ gscores, -1, -2)
    return out, gscores @ k, gk, gv


def ref_representative_sign(q):
    """Majority sign per column, counted as a sum of booleans over rows."""
    counts = (q > 0).sum(axis=-2)
    return np.where(counts >= q.shape[-2] / 2, 1, -1).astype(np.int64)


def ref_score_keys(k, val):
    """Hamming distance through explicit +-1 sign arrays."""
    signs = np.where(k > 0, 1, -1)
    return (signs != val[..., None, :]).sum(axis=-1).astype(np.int64)


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


INV_SQRT2, INV_SQRT2PI = math.sqrt(0.5), 1.0 / math.sqrt(2.0 * math.pi)


def ref_gelu_bits(x, g):
    """GELU and its gradient for an upstream gradient g, with erf taking the
    signed argument and the constants the package multiplies by:
    ``x * 0.5 * (1 + erf(x / sqrt(2)))`` and
    ``g * (cdf + x * exp(-x * x / 2) / sqrt(2 * pi))``."""
    cdf = 0.5 * (1.0 + erf(x * INV_SQRT2))
    pdf = INV_SQRT2PI * np.exp(-0.5 * x * x)
    return x * 0.5 * (1.0 + erf(x * INV_SQRT2)), g * (cdf + x * pdf)


def ref_attention_per_head(x, layer, num_heads, mask=None, live_heads=None,
                           kv_positions=None, eps=1e-5):
    """One attention sublayer, single head at a time. x is [n, d]; layer is
    a dict of weight arrays; returns x + attention output."""
    n, d = x.shape
    dh = d // num_heads
    h = ref_layer_norm(x, layer["ln1_g"], layer["ln1_b"], eps)
    q = h @ layer["wq"] + layer["bq"]
    h_kv = h if kv_positions is None else h[kv_positions]
    k = h_kv @ layer["wk"] + layer["bk"]
    v = h_kv @ layer["wv"] + layer["bv"]
    live = range(num_heads) if live_heads is None else live_heads
    concat = np.zeros((n, d))
    for i in live:
        sl = slice(i * dh, (i + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        concat[:, sl] = ref_softmax(scores) @ v[:, sl]
    return x + concat @ layer["wo"] + layer["bo"]


def ref_ffn(x, layer, live_rows=None, eps=1e-5):
    h = ref_layer_norm(x, layer["ln2_g"], layer["ln2_b"], eps)
    w1 = layer["w1"] if live_rows is None else layer["w1"] * live_rows[:, None]
    z = ref_gelu(h @ w1 + layer["b1"])
    return x + z @ layer["w2"] + layer["b2"]


def layer_dict(model, i):
    p = model.layers[i]
    return {name: getattr(p, name).data for name in
            ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
             "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")}


def ref_model_forward(model, tokens, include=None):
    """Full forward for one sequence of token ids. include maps
    ('attn'|'ffn', layer) -> bool; missing entries default to True, so a
    rebuilt model without some block is expressed by excluding it."""
    cfg = model.config
    include = include or {}
    x = model.embedding.data[tokens] + model.positional.data[:len(tokens)]
    mask = None
    if cfg.autoregressive:
        n = len(tokens)
        mask = np.where(np.arange(n)[None, :] <= np.arange(n)[:, None], 0.0, -1e9)
    for i in range(cfg.num_layers):
        layer = layer_dict(model, i)
        if include.get(("attn", i), True):
            x = ref_attention_per_head(x, layer, cfg.num_heads, mask)
        if include.get(("ffn", i), True):
            x = ref_ffn(x, layer)
    x = ref_layer_norm(x, model.lnf_g.data, model.lnf_b.data)
    if cfg.task_kind == "classification":
        return x.mean(axis=0) @ model.head_w.data + model.head_b.data
    return x @ model.head_w.data + model.head_b.data


def ref_cross_entropy(logits, labels):
    p = ref_softmax(logits)
    return float(-np.log(p[np.arange(len(labels)), labels]).mean())


def finite_difference_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g
