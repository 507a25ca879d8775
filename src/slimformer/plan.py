"""Approximation plans: which elements are pruned and how the rest are
approximated.

Pruning is the skiplist: blocks bypassed through their residual connection,
heads, weight groups and key/value position groups dropped.
Approximation is one dataclass per variant (group quantization, contiguous
group shrinking, sign-matching attention), attached to a surviving element
only through ``ApproxPlan.with_approx``, which checks that the variant
applies to that element kind and that the element carries no entry of the
same variant. ``from_doc``/``from_json`` rebuild a plan through the same
checks and raise ``PlanError`` for any malformed document; ``resolve``
checks the elements against a config and expands the plan into per-layer
views of boolean liveness masks and per-band quantization bits.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .config import TransformerConfig
from .costs import quantized_bytes
from .elements import (ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, KIND_TABLE, PARAM_TABLE,
                       QKV_GROUP, WEIGHT_GROUPS, TransElement, element_bounds,
                       owned_params)
from .errors import ConfigError, PlanError

QUANT_BITS = (2, 4, 8)


@dataclass(frozen=True)
class Quantize:
    name: ClassVar[str] = "quantize"
    bits: int

    def __post_init__(self):
        if self.bits not in QUANT_BITS:
            raise PlanError(f"quantization bits must be one of {QUANT_BITS}")


@dataclass(frozen=True)
class SignMatch:
    name: ClassVar[str] = "sign_match"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise PlanError("sign-match k must be >= 1")


@dataclass(frozen=True)
class GroupShrink:
    """Contiguous kept weight-group interval [lo, hi)."""

    name: ClassVar[str] = "group_shrink"
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise PlanError(f"bad kept interval [{self.lo}, {self.hi})")


ApproxParams = Quantize | SignMatch | GroupShrink

_VARIANTS = {cls.name: cls for cls in (Quantize, SignMatch, GroupShrink)}

# Which approximation variants may be attached to which element kind.
_ALLOWED = {
    ATTN_BLOCK: (Quantize, SignMatch, GroupShrink),
    FFN_BLOCK: (Quantize, GroupShrink),
    FFN_GROUP: (Quantize,),
    QKV_GROUP: (Quantize,),
}


def params_to_doc(params: ApproxParams) -> dict:
    """JSON-ready description of one approximation entry."""
    return {"variant": params.name, "params": asdict(params)}


def params_from_doc(entry: dict) -> ApproxParams:
    """Inverse of params_to_doc: exactly the variant's fields, as integers."""
    variant = entry.get("variant")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise PlanError(f"unknown approximation variant {variant!r}")
    names = sorted(f.name for f in fields(cls))
    values = entry.get("params")
    if not isinstance(values, dict) or sorted(values) != names:
        raise PlanError(f"{cls.name} entry needs params {names}, got {values!r}")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in values.values()):
        raise PlanError(f"{cls.name} params must be integers, got {values!r}")
    return cls(**values)


def _element(key) -> TransElement:
    try:
        return TransElement.from_key(str(key))
    except ConfigError as exc:
        raise PlanError(str(exc)) from exc


def _in_both(el: TransElement) -> PlanError:
    return PlanError(f"elements in both skiplist and approxlist: {[el.key]}")


class ApproxPlan:
    """Skiplist plus approximation entries.

    The skiplist holds elements removed outright. The approximation map
    attaches parameters to surviving elements; one element may carry
    several compatible entries (e.g. an attention block that is
    sign-matched and has its QKV rows shrunk). Entries enter only through
    ``with_approx``.
    """

    def __init__(self, skiplist=()):
        self.skiplist: set[TransElement] = set(skiplist)
        self.approxlist: dict[TransElement, tuple[ApproxParams, ...]] = {}

    def copy(self) -> "ApproxPlan":
        new = ApproxPlan(self.skiplist)
        new.approxlist = dict(self.approxlist)
        return new

    def with_skip(self, el: TransElement) -> "ApproxPlan":
        if el in self.approxlist:
            raise _in_both(el)
        new = self.copy()
        new.skiplist.add(el)
        return new

    def with_approx(self, el: TransElement, params: ApproxParams) -> "ApproxPlan":
        if not isinstance(params, _ALLOWED.get(el.kind, ())):
            raise PlanError(f"{type(params).__name__} not applicable to {el.kind}")
        if el in self.skiplist:
            raise _in_both(el)
        existing = self.approxlist.get(el, ())
        if any(isinstance(p, type(params)) for p in existing):
            raise PlanError(f"{el.key} already has a {params.name} entry")
        new = self.copy()
        new.approxlist[el] = existing + (params,)
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
        """Rebuild a plan through with_skip/with_approx; any malformed
        document raises PlanError."""
        if not (isinstance(doc, dict) and isinstance(doc.get("skip", []), list)
                and isinstance(doc.get("approx", []), list)):
            raise PlanError("a plan document needs 'skip' and 'approx' lists")
        plan = cls(_element(key) for key in doc.get("skip", ()))
        for entry in doc.get("approx", ()):
            if not isinstance(entry, dict) or "element" not in entry:
                raise PlanError(f"approx entry without an element: {entry!r}")
            plan = plan.with_approx(_element(entry["element"]), params_from_doc(entry))
        return plan

    @classmethod
    def from_json(cls, text: str) -> "ApproxPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"plan is not JSON: {exc}") from exc
        return cls.from_doc(doc)

    # -- resolution --------------------------------------------------------

    def resolve(self, config: TransformerConfig, warn: bool = True) -> list["LayerView"]:
        """Validate against a config and expand into per-layer views; with
        ``warn`` a causal plan that prunes early key/value positions warns."""
        views = [LayerView(config) for _ in range(config.num_layers)]
        for el in self.skiplist:
            element_bounds(config, el)
            spec, view = KIND_TABLE[el.kind], views[el.layer]
            if spec.tier == 0:  # a block is bypassed through its residual
                setattr(view, spec.mask, True)
            else:
                getattr(view, spec.mask)[spec.span(config, el.index, el.index + 1)] = False
        # in sorted element order, plan.json's, whatever order they came in
        for el in sorted(self.approxlist):
            element_bounds(config, el)
            for params in self.approxlist[el]:
                views[el.layer].apply_approx(el, params, config)
        for layer, view in enumerate(views):
            if view.attn_skipped:
                continue
            if not view.kv_live.any():
                raise PlanError(f"layer {layer}: all key/value positions pruned")
            early = view.kv_live[:(config.context_len + 3) // 4]
            if warn and config.autoregressive and not early.all():
                warnings.warn(
                    f"layer {layer}: pruned key/value positions in the first quarter of a "
                    f"causal context; early queries may have no visible keys", stacklevel=2)
        return views


class LayerView:
    """Resolved execution state of one layer under a plan: one boolean
    liveness mask per axis (heads, key/value positions, QKV and FFN input
    rows) and, per weight matrix (a two-axis ``PARAM_TABLE`` row), the
    quantization bits of each weight-group-wide row band (0: full
    precision)."""

    def __init__(self, config: TransformerConfig):
        self.attn_skipped = False
        self.ffn_skipped = False
        self.head_live = np.ones(config.num_heads, dtype=bool)
        self.kv_live = np.ones(config.context_len, dtype=bool)
        self.qkv_live = np.ones(config.hidden_dim, dtype=bool)
        self.ffn_live = np.ones(config.hidden_dim, dtype=bool)
        self.signmatch_k: int | None = None
        g = config.weight_group_width
        self.quant_bits = {name: np.zeros(-(-getattr(config, axes[0][0]) // g), dtype=np.int64)
                           for name, (_, axes) in PARAM_TABLE.items() if len(axes) == 2}

    def axis_live(self, config: TransformerConfig, axis: tuple[str, str | None]) -> np.ndarray:
        """The liveness of the entries of a ``PARAM_TABLE`` axis, given as
        its (length attribute, kind) pair: all live when no kind slices it."""
        length, kind = axis
        n = getattr(config, length)
        if kind is None:
            return np.ones(n, dtype=bool)
        mask = getattr(self, KIND_TABLE[kind].mask)  # one entry per element or per axis entry
        return np.repeat(mask, n // mask.size)

    def read_params(self, block: str) -> tuple[str, ...]:
        """The ``PARAM_TABLE`` rows of ``block`` that the executor reads:
        none when the block is skipped, all when an attention block has a
        live head or an FFN a live input row, and otherwise only those of
        the block's constant output: a headless attention block adds wo's
        bias, an FFN without live input rows gelu(b1) @ w2 + b2."""
        if getattr(self, KIND_TABLE[block].mask):
            return ()
        if block == ATTN_BLOCK and not self.head_live.any():
            return ("bo",)
        if block == FFN_BLOCK and not self.ffn_live.any():
            return ("b1", "w2", "b2")
        return tuple(name for name, (owner, _) in PARAM_TABLE.items() if owner == block)

    def apply_approx(self, el: TransElement, params: ApproxParams,
                     config: TransformerConfig):
        if isinstance(params, SignMatch):
            if params.k > config.context_len:
                raise PlanError(f"sign-match k {params.k} exceeds context length")
            self.signmatch_k = params.k
        elif isinstance(params, GroupShrink):
            spec = KIND_TABLE[WEIGHT_GROUPS[el.kind]]
            if params.hi > spec.per_layer(config):
                raise PlanError(f"kept interval {params.lo, params.hi} out of range")
            kept, live = spec.span(config, params.lo, params.hi), getattr(self, spec.mask)
            live[:kept.start] = False
            live[kept.stop:] = False
        elif isinstance(params, Quantize):
            # a block sorts before its weight groups, so a group's own
            # entry overrides its block's on the bands it covers; a block
            # quantizes its matrices, a group those whose rows it owns
            bands = slice(None) if el.granularity == 0 else el.index
            for name, axis in owned_params(el):
                if name in self.quant_bits and axis in (None, 0):
                    self.quant_bits[name][bands] = params.bits


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


def quantized_rows(w: np.ndarray, bands: list[tuple[int, int, int]]) -> np.ndarray:
    """A copy of a weight matrix with row bands [lo, hi) replaced by their
    quantize-dequantize images."""
    data = w.copy()
    for lo, hi, bits in bands:
        if hi > w.shape[0]:
            raise PlanError(f"quantization band [{lo}, {hi}) exceeds {w.shape[0]} rows")
        data[lo:hi] = quantize_dequantize(w[lo:hi], bits)
    return data
