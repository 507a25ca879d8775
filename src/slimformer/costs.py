"""Closed-form MAC / parameter / byte accounting.

mac_count is the deterministic latency proxy used by tests and the
runtime-aware queue ordering; wall-clock timing is informational only.
Counts cover the multiply-accumulates of matmuls that an execution honoring
the plan would actually perform: pruned head slices, pruned weight-group
rows and pruned key/value positions are excluded, and a sign-matched score
stage is charged n*d MAC-equivalents plus the gathered-key attention
instead of the full n^2*d score matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TransformerConfig

FLOAT_BYTES = 8
SCALE_BYTES = 8


@dataclass(frozen=True)
class CostModel:
    mac_count: int
    param_count: int
    bytes: int

    def __post_init__(self):
        if min(self.mac_count, self.param_count, self.bytes) < 0:
            raise ValueError("cost fields must be nonnegative")


def attn_macs(config: TransformerConfig, *, live_heads: int | None = None,
              live_qkv_rows: int | None = None, n_kv: int | None = None,
              signmatch_k: int | None = None) -> int:
    """MACs of one attention block under the given liveness counts."""
    n = config.context_len
    d = config.hidden_dim
    dh = config.head_dim
    h = config.num_heads if live_heads is None else live_heads
    d_in = d if live_qkv_rows is None else live_qkv_rows
    nk = n if n_kv is None else n_kv
    width = dh * h  # live projection width
    if width == 0:
        return 0
    proj = n * d_in * width + 2 * nk * d_in * width  # Q at all rows; K,V at live rows
    if signmatch_k is None:
        score = n * nk * width
        weighted = n * nk * width
    else:
        k_sel = min(signmatch_k, nk)
        score = n * width + n * k_sel * width  # linear scoring + gathered dot products
        weighted = n * k_sel * width
    out = n * width * d
    return proj + score + weighted + out


def ffn_macs(config: TransformerConfig, *, live_rows: int | None = None) -> int:
    """MACs of one FFN block; without live input rows its output is the
    constant gelu(b1) @ w2 + b2, computed once."""
    n = config.context_len
    d_in = config.hidden_dim if live_rows is None else live_rows
    if d_in == 0:
        return config.ffn_dim * config.hidden_dim
    return n * d_in * config.ffn_dim + n * config.ffn_dim * config.hidden_dim


def head_macs(config: TransformerConfig) -> int:
    """Task head MACs (classification pools first, LM projects every position)."""
    c = config.output_classes
    if config.task_kind == "classification":
        return config.hidden_dim * c
    return config.context_len * config.hidden_dim * c


def attn_params(config: TransformerConfig, *, live_heads: int | None = None,
                live_qkv_rows: int | None = None) -> int:
    d = config.hidden_dim
    dh = config.head_dim
    h = config.num_heads if live_heads is None else live_heads
    d_in = d if live_qkv_rows is None else live_qkv_rows
    width = dh * h
    qkv = 3 * d_in * width + 3 * width      # weights + biases of live columns/rows
    out = width * d + d                      # W_o live rows + bias
    ln = 2 * d
    return qkv + out + ln


def ffn_params(config: TransformerConfig, *, live_rows: int | None = None) -> int:
    d = config.hidden_dim
    y = config.ffn_dim
    d_in = d if live_rows is None else live_rows
    return d_in * y + y + y * d + d + 2 * d


def static_params(config: TransformerConfig) -> int:
    """Embedding, positional table, final norm and task head: never pruned."""
    d = config.hidden_dim
    c = config.output_classes
    return config.vocab_size * d + config.context_len * d + 2 * d + d * c + c


def quantized_bytes(count: int, bits: int) -> int:
    """Packed size of one quantized group: codes plus its float scale."""
    return (count * bits + 7) // 8 + SCALE_BYTES


def cost_from_views(config: TransformerConfig, views) -> CostModel:
    """Aggregate cost over resolved per-layer plan views (``plan.LayerView``):
    skip flags, the head_live/kv_live/qkv_live/ffn_live boolean masks,
    signmatch_k, and quant_bits, the bits of each weight-group-wide row band
    per matrix (0: full precision)."""
    macs = head_macs(config)
    params = static_params(config)
    nbytes = static_params(config) * FLOAT_BYTES
    d, dh = config.hidden_dim, config.head_dim
    for view in views:
        if not view.attn_skipped:
            h_live = int(view.head_live.sum())
            d_in = int(view.qkv_live.sum())
            macs += attn_macs(config, live_heads=h_live, live_qkv_rows=d_in,
                              n_kv=int(view.kv_live.sum()), signmatch_k=view.signmatch_k)
            p = attn_params(config, live_heads=h_live, live_qkv_rows=d_in)
            params += p
            width = dh * h_live
            nbytes += p * FLOAT_BYTES + _quant_delta(config, view.quant_bits, (
                ("wq", view.qkv_live, width), ("wk", view.qkv_live, width),
                ("wv", view.qkv_live, width), ("wo", np.repeat(view.head_live, dh), d)))
        if not view.ffn_skipped:
            d_live = int(view.ffn_live.sum())
            macs += ffn_macs(config, live_rows=d_live)
            p = ffn_params(config, live_rows=d_live)
            params += p
            nbytes += p * FLOAT_BYTES + _quant_delta(config, view.quant_bits, (
                ("w1", view.ffn_live, config.ffn_dim),
                ("w2", np.ones(config.ffn_dim, dtype=bool), d)))
    return CostModel(mac_count=int(macs), param_count=int(params), bytes=int(nbytes))


def _quant_delta(config: TransformerConfig, quant_bits: dict, matrices) -> int:
    """Byte delta from storing quantized row bands as packed codes instead
    of floats. ``matrices`` holds (name, row liveness mask, live column
    count); a band stores its live rows times the live columns."""
    g = config.weight_group_width
    delta = 0
    for name, live, cols in matrices:
        for band, bits in enumerate(quant_bits[name].tolist()):
            count = int(live[band * g:(band + 1) * g].sum()) * cols
            if bits and count > 0:
                delta += quantized_bytes(count, bits) - count * FLOAT_BYTES
    return delta
