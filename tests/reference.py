"""Independent plain-numpy reference implementations used as test oracles,
and the test-only tensor ops.

The references deliberately mirror nothing of the library's internals:
attention is computed one head at a time, layer norm and softmax are written
from their formulas, and the model forward takes explicit include/exclude
flags so a "physically rebuilt" model without a block is just a different
flag set. The tensor ops (``sum_all``, ``transpose_last``) have no caller in
the package; tests use them to reduce outputs to a scalar loss and to build
the unfused compositions the fused nodes must reproduce.
``ref_masked_attention``, ``ref_score_keys`` and ``ref_representative_sign``
are the plain formulations that the package's attention and sign-scoring
kernels replace; those kernels must give the same bits.
"""

import math

import numpy as np
from scipy.special import erf

from slimformer.signmatch import MASK_NEG
from slimformer.tensor import Tensor, _result


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


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_masked_attention(q, k, v, mask, g):
    """The unfused masked attention arithmetic over [.., n, d] arrays and its
    gradients for an upstream gradient g: additive mask, ``x.max``,
    ``exp``, ``sum``, divide, then the rows of queries whose keys are all
    masked zeroed by a multiply. Returns (out, gq, gk, gv)."""
    scale = q.shape[-1] ** -0.5
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    keep = 1.0
    if mask is not None:
        scores = scores + mask
        keep = np.where((mask == MASK_NEG).all(axis=-1), 0.0, 1.0)[..., None]
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
