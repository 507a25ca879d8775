"""MAC / parameter / byte accounting: MACs in closed form, parameters and
bytes counted from ``elements.PARAM_TABLE``.

mac_count is the deterministic latency proxy used by tests and the
runtime-aware queue ordering; wall-clock timing is informational only.
Counts cover the multiply-accumulates of matmuls that an execution honoring
the plan would actually perform: pruned head slices, pruned weight-group
rows and pruned key/value positions are excluded, and a sign-matched score
stage that keeps k of a layer's n_k live keys is charged n*d
MAC-equivalents plus the gathered-key attention instead of the full
n*n_k*d score matrix. At k >= n_k every key would be kept, so the layer
runs, and is charged, as plain attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TransformerConfig
from .elements import KIND_TABLE, PARAM_TABLE

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
    if signmatch_k is None or signmatch_k >= nk:
        score = n * nk * width
        weighted = n * nk * width
    else:
        score = n * width + n * signmatch_k * width  # linear scoring + gathered dot products
        weighted = n * signmatch_k * width
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


def static_params(config: TransformerConfig) -> int:
    """Embedding, positional table, final norm and task head: never pruned."""
    d = config.hidden_dim
    c = config.output_classes
    return config.vocab_size * d + config.context_len * d + 2 * d + d * c + c


def quantized_bytes(count: int, bits: int) -> int:
    """Packed size of one quantized group: codes plus its float scale."""
    return (count * bits + 7) // 8 + SCALE_BYTES


def cost_from_views(config: TransformerConfig, views) -> CostModel:
    """Aggregate cost over resolved per-layer plan views (``plan.LayerView``).
    MACs follow in closed form from the skip flags, the head_live/kv_live/
    qkv_live/ffn_live masks and signmatch_k. Each ``PARAM_TABLE`` row of an
    unskipped block counts its live rows times its live columns, stored as
    floats but for its quantized row bands (``quant_bits``), which are packed
    codes."""
    macs = head_macs(config)
    params = static_params(config)
    nbytes = params * FLOAT_BYTES
    for view in views:
        if not view.attn_skipped:
            macs += attn_macs(config, live_heads=int(view.head_live.sum()),
                              live_qkv_rows=int(view.qkv_live.sum()),
                              n_kv=int(view.kv_live.sum()), signmatch_k=view.signmatch_k)
        if not view.ffn_skipped:
            macs += ffn_macs(config, live_rows=int(view.ffn_live.sum()))
        for name, (block, axes) in PARAM_TABLE.items():
            if not getattr(view, KIND_TABLE[block].mask):
                count, stored = _param_cost(config, view, name, axes)
                params += count
                nbytes += stored
    return CostModel(mac_count=int(macs), param_count=int(params), bytes=int(nbytes))


def _param_cost(config: TransformerConfig, view, name: str, axes) -> tuple[int, int]:
    """Live entries and stored bytes of one layer parameter, counted per
    weight-group-wide band of its first axis."""
    rows, *cols = (view.axis_live(config, axis) for axis in axes)
    width = int(cols[0].sum()) if cols else 1
    bands = np.add.reduceat(rows, range(0, rows.size, config.weight_group_width),
                            dtype=np.int64) * width
    bits = view.quant_bits.get(name, np.zeros_like(bands))
    stored = sum(quantized_bytes(n, b) if b and n else n * FLOAT_BYTES
                 for n, b in zip(bands.tolist(), bits.tolist()))
    return int(bands.sum()), stored
