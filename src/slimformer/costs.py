"""MAC / parameter / byte accounting, walked over the ``elements.PARAM_TABLE``
rows the executor reads (``plan.LayerView.read_params``).

mac_count is the deterministic latency proxy used by tests and the
runtime-aware queue ordering; wall-clock timing is informational only.
Counts cover the multiply-accumulates of matmuls that an execution honoring
the plan would actually perform: each read weight matrix's live rows times
its live columns at every position it is applied at, plus the attention
core of the live heads over the live keys. A sign-matched score stage that
keeps k of a layer's n_k live keys is charged n*d MAC-equivalents plus the
gathered-key attention instead of the full n*n_k*d score matrix. At
k >= n_k every key would be kept, so the layer runs, and is charged, as
plain attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TransformerConfig
from .elements import ATTN_BLOCK, FFN_BLOCK, PARAM_TABLE

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
    """Aggregate cost over resolved per-layer plan views (``plan.LayerView``):
    the head and the never-pruned parameters plus every block's
    ``block_cost``."""
    blocks = [block_cost(config, view, block) for view in views
              for block in (ATTN_BLOCK, FFN_BLOCK)]
    static = static_params(config)
    return CostModel(mac_count=head_macs(config) + sum(c.mac_count for c in blocks),
                     param_count=static + sum(c.param_count for c in blocks),
                     bytes=static * FLOAT_BYTES + sum(c.bytes for c in blocks))


def block_cost(config: TransformerConfig, view, block: str) -> CostModel:
    """Cost of one block under a layer's view. Each ``PARAM_TABLE`` row the
    executor reads counts its live rows times its live columns, stored as
    floats but for its quantized row bands (``quant_bits``), which are
    packed codes; a weight matrix does those entries' MACs at each position
    it is applied at. An attention block with live heads adds its core."""
    macs = params = nbytes = 0
    names = view.read_params(block)
    for name in names:
        rows, *cols = (view.axis_live(config, axis) for axis in PARAM_TABLE[name][1])
        width = int(cols[0].sum()) if cols else 1
        bands = np.add.reduceat(rows, range(0, rows.size, config.weight_group_width),
                                dtype=np.int64) * width
        bits = view.quant_bits.get(name, np.zeros_like(bands))
        count = int(bands.sum())
        params += count
        nbytes += sum(quantized_bytes(n, b) if b and n else n * FLOAT_BYTES
                      for n, b in zip(bands.tolist(), bits.tolist()))
        if cols:
            macs += count * _positions(config, view, name)
    if "wq" in names:  # the block attends
        macs += _core_macs(config, view)
    return CostModel(mac_count=macs, param_count=params, bytes=nbytes)


def _positions(config: TransformerConfig, view, name: str) -> int:
    """The positions a weight matrix is applied at: K and V at the live
    key/value positions, w2 once when the FFN reads no input row (its input
    is the constant gelu(b1)), every other matrix at every query."""
    if name in ("wk", "wv"):
        return int(view.kv_live.sum())
    if name == "w2" and not view.ffn_live.any():
        return 1
    return config.context_len


def _core_macs(config: TransformerConfig, view) -> int:
    """Scores plus weighted sum of the live heads over the live keys, or,
    when sign matching keeps k below the live key count, the n*width linear
    scoring stage plus the attention over the k gathered keys."""
    n, n_kv, k = config.context_len, int(view.kv_live.sum()), view.signmatch_k
    width = config.head_dim * int(view.head_live.sum())
    if k is None or k >= n_kv:
        return 2 * n * n_kv * width
    return n * width + 2 * n * k * width
