"""Approximation plans: which elements are pruned and how the rest are
approximated (group quantization, contiguous group shrinking, key/value
position pruning, sign-matching attention)."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TransformerConfig
from .costs import quantized_bytes
from .elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, KV_GROUP,
                       QKV_GROUP, TransElement, element_bounds)
from .errors import PlanError
from .tensor import Tensor, _result

QUANT_BITS = (2, 4, 8)


@dataclass(frozen=True)
class Quantize:
    bits: int

    def __post_init__(self):
        if self.bits not in QUANT_BITS:
            raise PlanError(f"quantization bits must be one of {QUANT_BITS}")


@dataclass(frozen=True)
class SignMatch:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise PlanError("sign-match k must be >= 1")


@dataclass(frozen=True)
class GroupShrink:
    """Contiguous kept weight-group interval [lo, hi)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise PlanError(f"bad kept interval [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class KvPrune:
    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(sorted(set(self.positions))))


ApproxParams = Quantize | SignMatch | GroupShrink | KvPrune

_VARIANT_NAMES = {Quantize: "quantize", SignMatch: "sign_match",
                  GroupShrink: "group_shrink", KvPrune: "kv_prune"}

# Which approximation variants may be attached to which element kind.
_ALLOWED = {
    ATTN_BLOCK: (Quantize, SignMatch, GroupShrink, KvPrune),
    FFN_BLOCK: (Quantize, GroupShrink),
    FFN_GROUP: (Quantize,),
    QKV_GROUP: (Quantize,),
}


def params_to_doc(params: ApproxParams) -> dict:
    """JSON-ready description of one approximation entry."""
    if isinstance(params, Quantize):
        fields = {"bits": params.bits}
    elif isinstance(params, SignMatch):
        fields = {"k": params.k}
    elif isinstance(params, GroupShrink):
        fields = {"lo": params.lo, "hi": params.hi}
    else:
        fields = {"positions": list(params.positions)}
    return {"variant": _VARIANT_NAMES[type(params)], "params": fields}


def prune_kv_positions(layer: int, positions, context_len: int) -> tuple[TransElement, KvPrune]:
    """Plan entry removing the given key/value sequence positions in one
    attention block (same set for keys and values; output shape unchanged)."""
    positions = sorted(set(int(p) for p in positions))
    if any(p < 0 or p >= context_len for p in positions):
        raise PlanError(f"kv positions out of range [0, {context_len})")
    if len(positions) >= context_len:
        raise PlanError("cannot prune every key/value position")
    return TransElement(ATTN_BLOCK, layer), KvPrune(tuple(positions))


class ApproxPlan:
    """Skiplist plus approximation entries.

    The skiplist holds elements removed outright (blocks bypassed through
    their residual connection, heads zero-padded, weight groups and
    key/value position groups dropped). The approximation map attaches
    parameters to surviving elements; one element may carry several
    compatible entries (e.g. an attention block that is sign-matched and
    has its QKV rows shrunk).
    """

    def __init__(self, skiplist=(), approxlist=None):
        self.skiplist: set[TransElement] = set(skiplist)
        self.approxlist: dict[TransElement, tuple[ApproxParams, ...]] = {}
        for el, entries in (approxlist or {}).items():
            if isinstance(entries, (Quantize, SignMatch, GroupShrink, KvPrune)):
                entries = (entries,)
            self.approxlist[el] = tuple(entries)
        self._check_disjoint()

    def _check_disjoint(self):
        overlap = self.skiplist & set(self.approxlist)
        if overlap:
            raise PlanError(
                f"elements in both skiplist and approxlist: {sorted(e.key for e in overlap)}")

    @classmethod
    def empty(cls) -> "ApproxPlan":
        return cls()

    def copy(self) -> "ApproxPlan":
        return ApproxPlan(self.skiplist, dict(self.approxlist))

    def is_empty(self) -> bool:
        return not self.skiplist and not self.approxlist

    def with_skip(self, el: TransElement) -> "ApproxPlan":
        new = self.copy()
        new.skiplist.add(el)
        new._check_disjoint()
        return new

    def with_approx(self, el: TransElement, params: ApproxParams) -> "ApproxPlan":
        allowed = _ALLOWED.get(el.kind, ())
        if not isinstance(params, allowed):
            raise PlanError(f"{type(params).__name__} not applicable to {el.kind}")
        new = self.copy()
        existing = new.approxlist.get(el, ())
        if any(isinstance(p, type(params)) for p in existing):
            raise PlanError(f"{el.key} already has a {_VARIANT_NAMES[type(params)]} entry")
        new.approxlist[el] = existing + (params,)
        new._check_disjoint()
        return new

    def entries(self, el: TransElement) -> tuple[ApproxParams, ...]:
        return self.approxlist.get(el, ())

    def __eq__(self, other):
        if not isinstance(other, ApproxPlan) or self.skiplist != other.skiplist:
            return False
        if set(self.approxlist) != set(other.approxlist):
            return False
        return all(set(entries) == set(other.approxlist[el])
                   for el, entries in self.approxlist.items())

    # -- serialization ----------------------------------------------------

    def to_doc(self) -> dict:
        approx = []
        for el in sorted(self.approxlist):
            for params in self.approxlist[el]:
                approx.append({"element": el.key, **params_to_doc(params)})
        approx.sort(key=lambda e: (e["element"], e["variant"]))
        return {"skip": sorted(e.key for e in self.skiplist), "approx": approx}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "ApproxPlan":
        plan = cls(TransElement.from_key(k) for k in doc.get("skip", ()))
        for entry in doc.get("approx", ()):
            el = TransElement.from_key(entry["element"])
            variant = entry.get("variant")
            fields = entry.get("params", {})
            if variant == "quantize":
                params: ApproxParams = Quantize(int(fields["bits"]))
            elif variant == "sign_match":
                params = SignMatch(int(fields["k"]))
            elif variant == "group_shrink":
                params = GroupShrink(int(fields["lo"]), int(fields["hi"]))
            elif variant == "kv_prune":
                params = KvPrune(tuple(int(p) for p in fields["positions"]))
            else:
                raise PlanError(f"unknown approximation variant '{variant}'")
            plan = plan.with_approx(el, params)
        return plan

    @classmethod
    def from_json(cls, text: str) -> "ApproxPlan":
        return cls.from_doc(json.loads(text))

    # -- resolution --------------------------------------------------------

    def resolve(self, config: TransformerConfig) -> list["LayerView"]:
        """Validate against a config and expand into per-layer views."""
        views = [LayerView.fresh(config, layer) for layer in range(config.num_layers)]
        for el in self.skiplist:
            element_bounds(config, el)
            view = views[el.layer]
            if el.kind == ATTN_BLOCK:
                view.attn_skipped = True
            elif el.kind == FFN_BLOCK:
                view.ffn_skipped = True
            elif el.kind == HEAD:
                view.dead_heads.add(el.index)
            elif el.kind == FFN_GROUP:
                view.kill_ffn_group(el.index, config)
            elif el.kind == QKV_GROUP:
                view.kill_qkv_group(el.index, config)
            elif el.kind == KV_GROUP:
                lo = el.index * config.kv_group_width
                view.dead_positions.update(range(lo, lo + config.kv_group_width))
        for el, entries in self.approxlist.items():
            element_bounds(config, el)
            view = views[el.layer]
            for params in entries:
                view.apply_approx(el, params, config)
        for view in views:
            view.finish(config)
        return views


class LayerView:
    """Resolved execution state of one layer under a plan."""

    def __init__(self, layer: int, attn_skipped: bool, ffn_skipped: bool,
                 qkv_live: np.ndarray, ffn_live: np.ndarray):
        self.layer = layer
        self.attn_skipped = attn_skipped
        self.ffn_skipped = ffn_skipped
        self.dead_heads: set[int] = set()
        self.qkv_live = qkv_live
        self.ffn_live = ffn_live
        self.dead_positions: set[int] = set()
        self.signmatch_k: int | None = None
        self.quant: dict[str, list[tuple[int, int, int]]] = {}  # matrix -> [(lo, hi, bits)]
        self.live_heads: tuple[int, ...] = ()
        self.kv_positions: np.ndarray | None = None

    @classmethod
    def fresh(cls, config: TransformerConfig, layer: int) -> "LayerView":
        return cls(layer, False, False,
                   np.ones(config.hidden_dim, dtype=bool),
                   np.ones(config.hidden_dim, dtype=bool))

    def kill_ffn_group(self, g: int, config: TransformerConfig):
        w = config.weight_group_width
        self.ffn_live[g * w:(g + 1) * w] = False

    def kill_qkv_group(self, g: int, config: TransformerConfig):
        w = config.weight_group_width
        self.qkv_live[g * w:(g + 1) * w] = False

    def apply_approx(self, el: TransElement, params: ApproxParams,
                     config: TransformerConfig):
        if isinstance(params, SignMatch):
            if el.kind != ATTN_BLOCK:
                raise PlanError("sign matching applies to attention blocks")
            if params.k > config.context_len:
                raise PlanError(f"sign-match k {params.k} exceeds context length")
            self.signmatch_k = params.k
        elif isinstance(params, GroupShrink):
            if params.hi > config.num_weight_groups:
                raise PlanError(f"kept interval {params.lo, params.hi} out of range")
            w = config.weight_group_width
            mask = np.zeros(config.hidden_dim, dtype=bool)
            mask[params.lo * w:params.hi * w] = True
            if el.kind == FFN_BLOCK:
                self.ffn_live &= mask
            else:
                self.qkv_live &= mask
        elif isinstance(params, KvPrune):
            if any(p >= config.context_len for p in params.positions):
                raise PlanError("kv prune position out of range")
            self.dead_positions.update(params.positions)
        elif isinstance(params, Quantize):
            w = config.weight_group_width
            if el.kind == FFN_GROUP:
                self._add_band("w1", el.index * w, (el.index + 1) * w, params.bits)
            elif el.kind == QKV_GROUP:
                for m in ("wq", "wk", "wv"):
                    self._add_band(m, el.index * w, (el.index + 1) * w, params.bits)
            elif el.kind == FFN_BLOCK:
                for lo in range(0, config.hidden_dim, w):
                    self._add_band("w1", lo, min(lo + w, config.hidden_dim), params.bits)
                for lo in range(0, config.ffn_dim, w):
                    self._add_band("w2", lo, min(lo + w, config.ffn_dim), params.bits)
            else:  # attention block
                for m in ("wq", "wk", "wv", "wo"):
                    for lo in range(0, config.hidden_dim, w):
                        self._add_band(m, lo, min(lo + w, config.hidden_dim), params.bits)

    def _add_band(self, matrix: str, lo: int, hi: int, bits: int):
        bands = self.quant.setdefault(matrix, [])
        # finer-granularity entries override block-level bands on their rows
        bands[:] = [b for b in bands if not (b[0] == lo and b[1] == hi)]
        bands.append((lo, hi, bits))

    def finish(self, config: TransformerConfig):
        self.live_heads = tuple(i for i in range(config.num_heads)
                                if i not in self.dead_heads)
        live = [p for p in range(config.context_len) if p not in self.dead_positions]
        if not self.attn_skipped and not live:
            raise PlanError(f"layer {self.layer}: all key/value positions pruned")
        self.kv_positions = np.array(live, dtype=np.int64)
        if (config.autoregressive and self.dead_positions
                and min(self.dead_positions) < (config.context_len + 3) // 4
                and not self.attn_skipped):
            warnings.warn(
                f"layer {self.layer}: pruned key/value positions in the first quarter of a "
                f"causal context; early queries may have no visible keys", stacklevel=2)
        for matrix, bands in self.quant.items():
            bands.sort()
        if self.signmatch_k is not None:
            self.signmatch_k = min(self.signmatch_k, len(live))

    def attn_quant_bands(self, config: TransformerConfig) -> list[tuple[int, int]]:
        """(live element count, bits) per quantized band of the attention matrices."""
        dh = config.head_dim
        row_is_live_head = np.zeros(config.hidden_dim, dtype=bool)
        for head in self.live_heads:
            row_is_live_head[head * dh:(head + 1) * dh] = True
        cols = dh * len(self.live_heads)
        out = []
        for matrix in ("wq", "wk", "wv"):
            for lo, hi, bits in self.quant.get(matrix, ()):
                out.append((int(self.qkv_live[lo:hi].sum()) * cols, bits))
        for lo, hi, bits in self.quant.get("wo", ()):
            out.append((int(row_is_live_head[lo:hi].sum()) * config.hidden_dim, bits))
        return out

    def ffn_quant_bands(self, config: TransformerConfig) -> list[tuple[int, int]]:
        out = []
        for lo, hi, bits in self.quant.get("w1", ()):
            out.append((int(self.ffn_live[lo:hi].sum()) * config.ffn_dim, bits))
        for lo, hi, bits in self.quant.get("w2", ()):
            out.append(((hi - lo) * config.hidden_dim, bits))
        return out


@dataclass
class QuantizedGroup:
    """Symmetric uniform quantization of one weight slice.

    codes are stored widened (int64) since the goal is byte accounting, not
    packed kernels; `bytes` reports the packed size.
    """

    codes: np.ndarray
    scale: float
    bits: int

    def dequantize(self) -> np.ndarray:
        return self.codes.astype(np.float64) * self.scale

    @property
    def bytes(self) -> int:
        return quantized_bytes(self.codes.size, self.bits)


def quantize_group(weights: np.ndarray, bits: int) -> QuantizedGroup:
    """scale = max|w| / (2^(bits-1) - 1); codes = round(w / scale).

    An all-zero slice round-trips exactly with scale 0.
    """
    if bits not in QUANT_BITS:
        raise PlanError(f"quantization bits must be one of {QUANT_BITS}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise PlanError("cannot quantize an empty slice")
    qmax = 2 ** (bits - 1) - 1
    peak = float(np.abs(w).max())
    if peak == 0.0:
        return QuantizedGroup(np.zeros_like(w, dtype=np.int64), 0.0, bits)
    scale = peak / qmax
    codes = np.clip(np.round(w / scale), -qmax, qmax).astype(np.int64)
    return QuantizedGroup(codes, scale, bits)


def quantize_dequantize(weights: np.ndarray, bits: int) -> np.ndarray:
    return quantize_group(weights, bits).dequantize()


def quantized_rows(w: Tensor, bands: list[tuple[int, int, int]]) -> Tensor:
    """Replace row bands [lo, hi) of a weight matrix by their
    quantize-dequantize images.

    Quantized rows are frozen (zero gradient); untouched rows keep theirs.
    """
    data = w.data.copy()
    passthrough = np.ones(w.data.shape[0], dtype=bool)
    for lo, hi, bits in bands:
        if hi > w.data.shape[0]:
            raise PlanError(f"quantization band [{lo}, {hi}) exceeds {w.data.shape[0]} rows")
        data[lo:hi] = quantize_dequantize(w.data[lo:hi], bits)
        passthrough[lo:hi] = False

    def grad_fn(g):
        return (g * passthrough[:, None],)

    return _result(data, (w,), grad_fn)
