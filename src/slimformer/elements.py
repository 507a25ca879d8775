"""Prunable/approximable model units and the ordered analysis queue.

Elements come in three granularity tiers (blocks, heads, weight/position
groups). The queue orders them coarse to fine so whole blocks are decided
first, with layer order and block-type order chosen by task and cost
heuristics, and supports dynamically dropping elements that a coarser
decision has made irrelevant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import costs
from .config import TransformerConfig
from .errors import ConfigError, PlanError
from .focus import Focus

FFN_BLOCK = "ffn_block"
ATTN_BLOCK = "attn_block"
HEAD = "head"
FFN_GROUP = "ffn_weight_group"
QKV_GROUP = "qkv_weight_group"
KV_GROUP = "kv_position_group"

KINDS = (FFN_BLOCK, ATTN_BLOCK, HEAD, FFN_GROUP, QKV_GROUP, KV_GROUP)

GRANULARITY = {
    FFN_BLOCK: 0,
    ATTN_BLOCK: 0,
    HEAD: 1,
    FFN_GROUP: 2,
    QKV_GROUP: 2,
    KV_GROUP: 2,
}

# Children removed from the queue once the enclosing block is decided.
_CHILD_KINDS = {
    ATTN_BLOCK: (HEAD, QKV_GROUP, KV_GROUP),
    FFN_BLOCK: (FFN_GROUP,),
}


@dataclass(frozen=True, order=True)
class TransElement:
    kind: str
    layer: int
    index: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown element kind '{self.kind}'")
        if self.layer < 0 or self.index < 0:
            raise ConfigError("layer and index must be nonnegative")
        if self.kind in (FFN_BLOCK, ATTN_BLOCK) and self.index != 0:
            raise ConfigError("block elements use index 0")

    @property
    def granularity(self) -> int:
        return GRANULARITY[self.kind]

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
    kind = {FFN_GROUP: FFN_BLOCK, QKV_GROUP: ATTN_BLOCK}.get(el.kind)
    return None if kind is None else TransElement(kind, el.layer)


def enumerate_elements(config: TransformerConfig) -> list[TransElement]:
    """All elements of a model: 2L blocks, L*h heads, then the weight and
    key/value position groups, in canonical (layer-ascending) order."""
    out: list[TransElement] = []
    for layer in range(config.num_layers):
        out.append(attn_block(layer))
        out.append(ffn_block(layer))
    for layer in range(config.num_layers):
        for i in range(config.num_heads):
            out.append(TransElement(HEAD, layer, i))
    for layer in range(config.num_layers):
        for g in range(config.num_weight_groups):
            out.append(TransElement(QKV_GROUP, layer, g))
        for g in range(config.num_kv_groups):
            out.append(TransElement(KV_GROUP, layer, g))
        for g in range(config.num_weight_groups):
            out.append(TransElement(FFN_GROUP, layer, g))
    return out


def element_bounds(config: TransformerConfig, el: TransElement) -> None:
    """Raise PlanError if an element does not exist under this configuration."""
    limits = {
        FFN_BLOCK: 1,
        ATTN_BLOCK: 1,
        HEAD: config.num_heads,
        FFN_GROUP: config.num_weight_groups,
        QKV_GROUP: config.num_weight_groups,
        KV_GROUP: config.num_kv_groups,
    }
    if el.layer >= config.num_layers or el.index >= limits[el.kind]:
        raise PlanError(f"element {el.key} out of range for this config")


class ElementQueue:
    """Ordered element list with a cursor and a removal log.

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
        self.items = list(ordered)
        self.cursor = 0
        self.removal_log: list[tuple[TransElement, str]] = []
        self._removed: set[TransElement] = set()

    def __len__(self) -> int:
        return len(self.pending())

    def pending(self) -> list[TransElement]:
        return [e for e in self.items[self.cursor:] if e not in self._removed]

    def consumed(self) -> list[TransElement]:
        return [e for e in self.items[:self.cursor] if e not in self._removed]

    def has_next(self) -> bool:
        return len(self) > 0

    def pop(self) -> TransElement:
        while self.cursor < len(self.items):
            el = self.items[self.cursor]
            self.cursor += 1
            if el not in self._removed:
                return el
        raise IndexError("queue exhausted")

    def remove(self, el: TransElement, reason: str) -> bool:
        """Drop a pending element; no-op for consumed or already-removed ones."""
        if el in self._removed or el not in self.items[self.cursor:]:
            return False
        self._removed.add(el)
        self.removal_log.append((el, reason))
        return True

    def extract_family(self, kind: str, layer: int, reason: str) -> list[TransElement]:
        """Remove and return all pending elements of one kind and layer,
        ascending index order."""
        family = sorted((e for e in self.pending() if e.kind == kind and e.layer == layer),
                        key=lambda e: e.index)
        for el in family:
            self.remove(el, reason)
        return family

    def to_json(self) -> str:
        doc = {
            "queue": [e.key for e in self.items if e not in self._removed],
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
    permutation can be passed). Within the block tier the dominant block
    type, by MACs under speed/accuracy focus or by parameters under size
    focus, goes first so expensive blocks leave the model early.
    """
    L = config.num_layers
    if layer_order is None:
        layer_order = list(range(L - 1, -1, -1))
    if sorted(layer_order) != list(range(L)):
        raise ConfigError("layer_order must be a permutation of range(num_layers)")

    if focus == Focus.SIZE:
        attn_first = costs.attn_params(config) >= costs.ffn_params(config)
    else:
        attn_first = costs.attn_macs(config) >= costs.ffn_macs(config)

    have = set(elements)
    ordered: list[TransElement] = []

    block_kinds = (ATTN_BLOCK, FFN_BLOCK) if attn_first else (FFN_BLOCK, ATTN_BLOCK)
    for kind in block_kinds:
        ordered.extend(TransElement(kind, ly) for ly in layer_order
                       if TransElement(kind, ly) in have)

    for ly in layer_order:
        ordered.extend(TransElement(HEAD, ly, i) for i in range(config.num_heads)
                       if TransElement(HEAD, ly, i) in have)

    attn_groups = [(QKV_GROUP, config.num_weight_groups), (KV_GROUP, config.num_kv_groups)]
    ffn_groups = [(FFN_GROUP, config.num_weight_groups)]
    group_kinds = attn_groups + ffn_groups if attn_first else ffn_groups + attn_groups
    for kind, count in group_kinds:
        for ly in layer_order:
            ordered.extend(TransElement(kind, ly, g) for g in range(count)
                           if TransElement(kind, ly, g) in have)

    leftover = have - set(ordered)
    if leftover:
        raise ConfigError(f"elements not placeable in queue: {sorted(e.key for e in leftover)}")
    return ElementQueue(ordered)


def encompass_filter(queue: ElementQueue, decided_element: TransElement,
                     decision: str) -> list[TransElement]:
    """Drop finer-granularity elements inside a just-decided block.

    A block judged high-importance makes its heads and groups moot (they
    will not be pruned either); a skipped block leaves nothing inside to
    prune. Returns the removed elements.
    """
    child_kinds = _CHILD_KINDS.get(decided_element.kind, ())
    reason = "encompassed" if decision in ("kept", "keep") else "parent_pruned"
    removed: list[TransElement] = []
    for kind in child_kinds:
        removed.extend(queue.extract_family(kind, decided_element.layer, reason))
    return removed
