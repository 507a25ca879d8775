"""Prunable/approximable model units and the ordered analysis queue.

``KIND_TABLE`` declares each element kind once, ``PARAM_TABLE`` each layer
parameter (its block, shape and the kinds that slice it); everything that
knows a kind or a layer parameter reads them. Kinds come in three
granularity tiers (blocks, heads, weight/position groups). The queue orders
elements coarse to fine so whole blocks are decided first, with layer order
and block-type order chosen by task and cost heuristics, and supports
dynamically dropping elements that a coarser decision has made irrelevant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import TransformerConfig
from .errors import ConfigError, PlanError
from .focus import Focus

FFN_BLOCK = "ffn_block"
ATTN_BLOCK = "attn_block"
HEAD = "head"
FFN_GROUP = "ffn_weight_group"
QKV_GROUP = "qkv_weight_group"
KV_GROUP = "kv_position_group"


@dataclass(frozen=True)
class ElementKind:
    """One row of the kind table. ``block`` is the enclosing block (a block
    encloses itself). A block's skip sets ``mask``, a LayerView skip flag;
    an inner element's skip clears its ``share``-wide slice of that mask."""

    tier: int                  # granularity: 0 blocks, 1 heads, 2 groups
    count: str | None          # TransformerConfig attribute: elements per layer (None: one)
    block: str
    mask: str
    share: str | None = None   # TransformerConfig attribute: mask entries per element (None: one)

    def per_layer(self, config: TransformerConfig) -> int:
        return getattr(config, self.count) if self.count else 1

    def span(self, config: TransformerConfig, lo: int, hi: int) -> slice:
        """The mask entries of elements [lo, hi) of one layer."""
        w = getattr(config, self.share) if self.share else 1
        return slice(lo * w, hi * w)


# Every kind, in canonical order: enumeration sorts by (tier, layer, this
# order, index) and the queue breaks ties between kinds of a tier by it.
KIND_TABLE = {
    ATTN_BLOCK: ElementKind(0, None, ATTN_BLOCK, "attn_skipped"),
    FFN_BLOCK: ElementKind(0, None, FFN_BLOCK, "ffn_skipped"),
    HEAD: ElementKind(1, "num_heads", ATTN_BLOCK, "head_live"),
    QKV_GROUP: ElementKind(2, "num_weight_groups", ATTN_BLOCK, "qkv_live", "weight_group_width"),
    KV_GROUP: ElementKind(2, "num_kv_groups", ATTN_BLOCK, "kv_live", "kv_group_width"),
    FFN_GROUP: ElementKind(2, "num_weight_groups", FFN_BLOCK, "ffn_live", "weight_group_width"),
}
_RANK = {kind: r for r, kind in enumerate(KIND_TABLE)}

# Each block's weight-group kind: the groups a GroupShrink keeps a band of.
WEIGHT_GROUPS = {ATTN_BLOCK: QKV_GROUP, FFN_BLOCK: FFN_GROUP}

# Every layer parameter, in checkpoint order: name -> (block, axes), per axis
# the config attribute giving its length and the kind that slices it (None:
# unsliced). Element i of a kind owns slice i of the kind's per-layer count
# of equal slices of each axis it slices; a block owns its parameters whole.
PARAM_TABLE = {
    "ln1_g": (ATTN_BLOCK, (("hidden_dim", None),)),
    "ln1_b": (ATTN_BLOCK, (("hidden_dim", None),)),
    "wq": (ATTN_BLOCK, (("hidden_dim", QKV_GROUP), ("hidden_dim", HEAD))),
    "bq": (ATTN_BLOCK, (("hidden_dim", HEAD),)),
    "wk": (ATTN_BLOCK, (("hidden_dim", QKV_GROUP), ("hidden_dim", HEAD))),
    "bk": (ATTN_BLOCK, (("hidden_dim", HEAD),)),
    "wv": (ATTN_BLOCK, (("hidden_dim", QKV_GROUP), ("hidden_dim", HEAD))),
    "bv": (ATTN_BLOCK, (("hidden_dim", HEAD),)),
    "wo": (ATTN_BLOCK, (("hidden_dim", HEAD), ("hidden_dim", None))),
    "bo": (ATTN_BLOCK, (("hidden_dim", None),)),
    "ln2_g": (FFN_BLOCK, (("hidden_dim", None),)),
    "ln2_b": (FFN_BLOCK, (("hidden_dim", None),)),
    "w1": (FFN_BLOCK, (("hidden_dim", FFN_GROUP), ("ffn_dim", None))),
    "b1": (FFN_BLOCK, (("ffn_dim", None),)),
    "w2": (FFN_BLOCK, (("ffn_dim", None), ("hidden_dim", None))),
    "b2": (FFN_BLOCK, (("hidden_dim", None),)),
}


def owned_params(el: TransElement) -> list[tuple[str, int | None]]:
    """The (parameter, axis) pairs an element owns, in table order: axis
    None owns the whole tensor, else the element's slice of that axis."""
    if el.granularity == 0:
        return [(name, None) for name, (block, _) in PARAM_TABLE.items() if block == el.kind]
    return [(name, axis) for name, (_, axes) in PARAM_TABLE.items()
            for axis, (_, kind) in enumerate(axes) if kind == el.kind]


@dataclass(frozen=True, order=True)
class TransElement:
    kind: str
    layer: int
    index: int = 0

    def __post_init__(self):
        if self.kind not in KIND_TABLE:
            raise ConfigError(f"unknown element kind '{self.kind}'")
        if self.layer < 0 or self.index < 0:
            raise ConfigError("layer and index must be nonnegative")
        if self.granularity == 0 and self.index != 0:
            raise ConfigError("block elements use index 0")

    @property
    def granularity(self) -> int:
        return KIND_TABLE[self.kind].tier

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.layer}:{self.index}"

    @classmethod
    def from_key(cls, key: str) -> "TransElement":
        try:
            kind, layer, index = key.split(":")
            return cls(kind, int(layer), int(index))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad element key '{key}'") from exc


def attn_block(layer: int) -> TransElement:
    return TransElement(ATTN_BLOCK, layer)


def ffn_block(layer: int) -> TransElement:
    return TransElement(FFN_BLOCK, layer)


def weight_group_block(el: TransElement) -> TransElement | None:
    """The block whose weight groups `el` is one of (the FFN block of an FFN
    group, the attention block of a QKV group); None for other kinds."""
    block = KIND_TABLE[el.kind].block
    return TransElement(block, el.layer) if WEIGHT_GROUPS.get(block) == el.kind else None


def enumerate_elements(config: TransformerConfig) -> list[TransElement]:
    """All elements of a model: 2L blocks, L*h heads, then the weight and
    key/value position groups, in canonical (layer-ascending) order."""
    els = [TransElement(kind, layer, i) for kind, spec in KIND_TABLE.items()
           for layer in range(config.num_layers) for i in range(spec.per_layer(config))]
    return sorted(els, key=lambda e: (e.granularity, e.layer, _RANK[e.kind], e.index))


def _in_bounds(config: TransformerConfig, el: TransElement) -> bool:
    return el.layer < config.num_layers and el.index < KIND_TABLE[el.kind].per_layer(config)


def element_bounds(config: TransformerConfig, el: TransElement) -> None:
    """Raise PlanError if an element does not exist under this configuration."""
    if not _in_bounds(config, el):
        raise PlanError(f"element {el.key} out of range for this config")


class ElementQueue:
    """Ordered element list split into pending and consumed, plus a
    removal log.

    Every enumerated element is either still pending, already consumed by
    the analysis, or sits in the removal log with the reason it was dropped;
    the three groups always partition the original list.
    """

    def __init__(self, ordered: list[TransElement]):
        if len(set(ordered)) != len(ordered):
            raise ConfigError("duplicate elements in queue")
        grans = [e.granularity for e in ordered]
        if any(a > b for a, b in zip(grans, grans[1:])):
            raise ConfigError("queue granularity must be non-decreasing")
        self._pending = list(ordered)
        self._consumed: list[TransElement] = []
        self.removal_log: list[tuple[TransElement, str]] = []

    def __len__(self) -> int:
        return len(self._pending)

    def pending(self) -> list[TransElement]:
        return list(self._pending)

    def consumed(self) -> list[TransElement]:
        return list(self._consumed)

    def has_next(self) -> bool:
        return len(self) > 0

    def pop(self) -> TransElement:
        self._consumed.append(self._pending.pop(0))
        return self._consumed[-1]

    def remove(self, el: TransElement, reason: str) -> bool:
        """Drop a pending element; no-op for consumed or already-removed ones."""
        if el not in self._pending:
            return False
        self._pending.remove(el)
        self.removal_log.append((el, reason))
        return True

    def extract_family(self, kind: str, layer: int, reason: str) -> list[TransElement]:
        """Remove and return all pending elements of one kind and layer,
        ascending index order."""
        family = sorted((e for e in self._pending if e.kind == kind and e.layer == layer),
                        key=lambda e: e.index)
        for el in family:
            self.remove(el, reason)
        return family

    def to_json(self) -> str:
        doc = {
            "queue": [e.key for e in self._consumed + self._pending],
            "removed": [{"element": e.key, "reason": r} for e, r in self.removal_log],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def order_queue(elements: list[TransElement], focus: Focus,
                config: TransformerConfig,
                layer_order: list[int] | None = None) -> ElementQueue:
    """Build the analysis queue: blocks, then heads, then groups.

    Layer order defaults to final-layer-first (later layers carry long-range
    information most classification-style tasks do not need; language
    modelling shows no clear trend, so the same default applies but a custom
    permutation can be passed). Within each tier the kinds of the dominant
    block type, by MACs under speed/accuracy focus or by parameters under
    size focus, go first so expensive blocks leave the model early.
    """
    L = config.num_layers
    if layer_order is None:
        layer_order = list(range(L - 1, -1, -1))
    if sorted(layer_order) != list(range(L)):
        raise ConfigError("layer_order must be a permutation of range(num_layers)")
    have = set(elements)
    leftover = [e for e in have if not _in_bounds(config, e)]
    if leftover:
        raise ConfigError(f"elements not placeable in queue: {sorted(e.key for e in leftover)}")

    # here, not at the top: both modules import this one's tables
    from .costs import block_cost
    from .plan import LayerView
    dense = LayerView(config)
    attn, ffn = (block_cost(config, dense, block) for block in (ATTN_BLOCK, FFN_BLOCK))
    field = "param_count" if focus == Focus.SIZE else "mac_count"
    first = ATTN_BLOCK if getattr(attn, field) >= getattr(ffn, field) else FFN_BLOCK
    layer_rank = {ly: r for r, ly in enumerate(layer_order)}
    return ElementQueue(sorted(have, key=lambda e: (
        e.granularity, KIND_TABLE[e.kind].block != first, _RANK[e.kind],
        layer_rank[e.layer], e.index)))


def encompass_filter(queue: ElementQueue, decided_element: TransElement,
                     decision: str) -> list[TransElement]:
    """Drop finer-granularity elements inside a just-decided block.

    A block judged high-importance makes its heads and groups moot (they
    will not be pruned either); a skipped block leaves nothing inside to
    prune. Returns the removed elements.
    """
    reason = "encompassed" if decision in ("kept", "keep") else "parent_pruned"
    removed: list[TransElement] = []
    for kind, spec in KIND_TABLE.items():
        if spec.tier > 0 and spec.block == decided_element.kind:
            removed.extend(queue.extract_family(kind, decided_element.layer, reason))
    return removed
