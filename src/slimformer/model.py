"""The configurable toy transformer.

Pre-norm residual layout: each sublayer computes
``x + f(layer_norm(x))``, so any ATTN or FFN block can be bypassed through
its residual connection without a shape change, and bypassing is exactly
equivalent to deleting the block (including its layer norm) from a rebuilt
model. The forward pass is parameterized by an approximation plan.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import costs, speculate
from .config import TransformerConfig
from .errors import ConfigError, PlanError
from .plan import ApproxPlan, LayerView, quantized_rows
from .signmatch import OpCounter, causal_attention, sign_match_attention
from .tensor import (Tensor, add, cross_entropy, embedding_lookup, full_attention,
                     gelu, layer_norm, linear, make_rng, mean_rows, merge_heads,
                     mul, no_grad, reshape, split_heads, take)


@dataclass
class LayerParams:
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    ATTN_NAMES = ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    FFN_NAMES = ("ln2_g", "ln2_b", "w1", "b1", "w2", "b2")


class TransformerModel:
    """Embedding + positional table, L pre-norm layers, final norm, task head."""

    def __init__(self, config: TransformerConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        d, n, v = config.hidden_dim, config.context_len, config.vocab_size
        self.embedding = Tensor(np.zeros((v, d)), requires_grad=True)
        self.positional = Tensor(np.zeros((n, d)), requires_grad=True)
        self.layers: list[LayerParams] = []
        for _ in range(config.num_layers):
            self.layers.append(LayerParams(
                ln1_g=_param(np.ones(d)), ln1_b=_param(np.zeros(d)),
                wq=_param(np.zeros((d, d))), bq=_param(np.zeros(d)),
                wk=_param(np.zeros((d, d))), bk=_param(np.zeros(d)),
                wv=_param(np.zeros((d, d))), bv=_param(np.zeros(d)),
                wo=_param(np.zeros((d, d))), bo=_param(np.zeros(d)),
                ln2_g=_param(np.ones(d)), ln2_b=_param(np.zeros(d)),
                w1=_param(np.zeros((d, config.ffn_dim))), b1=_param(np.zeros(config.ffn_dim)),
                w2=_param(np.zeros((config.ffn_dim, d))), b2=_param(np.zeros(d)),
            ))
        c = config.output_classes
        self.lnf_g = _param(np.ones(d))
        self.lnf_b = _param(np.zeros(d))
        self.head_w = _param(np.zeros((d, c)))
        self.head_b = _param(np.zeros(c))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding), ("positional", self.positional)]
        for i, layer in enumerate(self.layers):
            for name in LayerParams.ATTN_NAMES + LayerParams.FFN_NAMES:
                out.append((f"layers.{i}.{name}", getattr(layer, name)))
        out.extend([("lnf_g", self.lnf_g), ("lnf_b", self.lnf_b),
                    ("head_w", self.head_w), ("head_b", self.head_b)])
        return out

    def clone(self) -> "TransformerModel":
        twin = TransformerModel(self.config, self.seed)
        for (_, src), (_, dst) in zip(self.named_parameters(), twin.named_parameters()):
            dst.data = src.data.copy()
        return twin


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def build_model(config: TransformerConfig, rng: np.random.Generator | int) -> TransformerModel:
    """Initialize weights from fan-in-scaled normals; deterministic per seed.

    Residual output projections (wo, w2) are shrunk by 1/sqrt(2L) so deep
    stacks start close to the identity map."""
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = make_rng(seed)
    else:
        seed = -1
    model = TransformerModel(config, seed)
    d, y = config.hidden_dim, config.ffn_dim
    res = (2 * config.num_layers) ** -0.5
    model.embedding.data = rng.normal(0.0, 1.0, model.embedding.data.shape)
    model.positional.data = rng.normal(0.0, 0.1, model.positional.data.shape)
    for layer in model.layers:
        for name in ("wq", "wk", "wv"):
            getattr(layer, name).data = rng.normal(0.0, d ** -0.5, (d, d))
        layer.wo.data = rng.normal(0.0, res * d ** -0.5, (d, d))
        layer.w1.data = rng.normal(0.0, d ** -0.5, (d, y))
        layer.w2.data = rng.normal(0.0, res * y ** -0.5, (y, d))
    model.head_w.data = rng.normal(0.0, d ** -0.5, model.head_w.data.shape)
    return model


class PlannedModel:
    """A model bound to a resolved plan: the forward-ready execution view.

    Construction validates the plan against the model's config and binds
    it: each layer gets the index arrays of its live heads, QKV input rows
    and FFN input rows, and the images of its quantized row bands, so a
    forward computes only live work. The view reads the model's weights
    and can be reused across forward passes while they train in place;
    the cached bands stay valid because quantized rows get zero gradient.
    """

    def __init__(self, model: TransformerModel, plan: ApproxPlan | None = None):
        self.model = model
        self.plan = plan or ApproxPlan()
        self.views: list[LayerView] = self.plan.resolve(model.config)
        self._bound = [_BoundLayer(p, view, model.config)
                       for p, view in zip(model.layers, self.views)]

    def parameters(self) -> list[Tensor]:
        """Parameters that enter the graph under the plan, in
        named_parameters order."""
        m = self.model
        out = [m.embedding, m.positional]
        for bound in self._bound:
            out.extend(bound.params)
        out.extend([m.lnf_g, m.lnf_b, m.head_w, m.head_b])
        return out

    # -- sublayers ----------------------------------------------------------

    def attention_sublayer(self, layer: int, x: Tensor,
                           counter: OpCounter | None = None) -> Tensor:
        cfg = self.model.config
        view = self.views[layer]
        if view.attn_skipped:
            return x
        p = self.model.layers[layer]
        n_x = x.data.shape[-2]
        # standalone sublayer calls may pass sequences shorter than the context
        kv_positions = np.flatnonzero(view.kv_live[:n_x])
        if kv_positions.size == 0:
            raise PlanError(f"layer {layer}: no live key/value positions for "
                            f"sequence length {n_x}")
        b = self._bound[layer]
        if not b.live_heads:
            return add(x, p.bo)
        w, cols = b.weights, b.head_cols
        h = _take(layer_norm(x, p.ln1_g, p.ln1_b), b.qkv_rows, -1)
        q = linear(h, w["wq"](), _take(p.bq, cols, 0))
        h_kv = take(h, kv_positions, -2) if len(kv_positions) < n_x else h
        k = linear(h_kv, w["wk"](), _take(p.bk, cols, 0))
        v = linear(h_kv, w["wv"](), _take(p.bv, cols, 0))

        # live heads folded into the batch axis: [B*h, n, dh]
        q, k, v = (split_heads(t, b.live_heads) for t in (q, k, v))
        if view.signmatch_k is not None:
            out = sign_match_attention(q, k, v, view.signmatch_k, cfg.autoregressive,
                                       key_positions=kv_positions, counter=counter)
        elif cfg.autoregressive:
            out = causal_attention(q, k, v, kv_positions, counter)
        else:
            out = full_attention(q, k, v)
        merged = merge_heads(out, b.live_heads, squeeze=x.data.ndim == 2)
        return add(x, linear(merged, w["wo"](), p.bo))

    def ffn_sublayer(self, layer: int, x: Tensor) -> Tensor:
        view = self.views[layer]
        if view.ffn_skipped:
            return x
        p = self.model.layers[layer]
        b = self._bound[layer]
        if b.ffn_empty:
            # no live input row: every position gets gelu(b1) @ w2 + b2
            z = gelu(reshape(p.b1, (1, -1)))
        else:
            h = _take(layer_norm(x, p.ln2_g, p.ln2_b), b.ffn_rows, -1)
            z = gelu(linear(h, b.weights["w1"](), p.b1))
        return add(x, linear(z, b.weights["w2"](), p.b2))

    # -- end to end ----------------------------------------------------------

    def forward(self, tokens, labels=None, counter: OpCounter | None = None):
        """Run the model under the plan. Returns (logits, loss); loss is None
        when labels are not given.

        When ``speculate.split_allowed`` holds (grad off, a residual
        stream of at least ``speculate.SPLIT_MIN_VALUES`` values, a free
        spare CPU), a worker thread runs the second half of the batch
        while this thread runs the first. Every op up to the logits works
        on each sequence alone and the loss is taken on the joined logits,
        so logits, loss and ``counter`` are bit-identical to one pass over
        the whole batch. The worker ends before this returns, also when
        either half raises.
        """
        cfg = self.model.config
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        if tokens.max(initial=0) >= cfg.vocab_size or tokens.min(initial=0) < 0:
            raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
        if tokens.shape[1] > cfg.context_len:
            raise ValueError(f"sequence length {tokens.shape[1]} exceeds context "
                             f"{cfg.context_len}")
        if tokens.shape[1] < cfg.context_len:
            pad = np.full((tokens.shape[0], cfg.context_len - tokens.shape[1]),
                          cfg.pad_token, dtype=np.int64)
            tokens = np.concatenate([tokens, pad], axis=1)

        if speculate.split_allowed(tokens.shape[0], tokens.shape[1] * cfg.hidden_dim):
            logits = self._split_logits(tokens, counter)
        else:
            logits = self._logits(tokens, counter)
        if labels is None:
            return logits, None
        if cfg.task_kind == "classification":
            return logits, cross_entropy(logits, labels)
        labels = np.asarray(labels, dtype=np.int64)
        flat = reshape(logits, (tokens.shape[0] * cfg.context_len, cfg.output_classes))
        flat_labels = labels.reshape(-1)
        valid = np.nonzero(flat_labels >= 0)[0]
        if valid.size == 0:
            raise ValueError("no labeled positions in batch")
        loss = cross_entropy(take(flat, valid, 0), flat_labels[valid])
        return logits, loss

    def _logits(self, tokens: np.ndarray, counter: OpCounter | None) -> Tensor:
        """The layer stack on padded tokens, from embedding to logits."""
        m = self.model
        x = add(embedding_lookup(m.embedding, tokens), m.positional)
        for layer in range(m.config.num_layers):
            x = self.attention_sublayer(layer, x, counter=counter)
            x = self.ffn_sublayer(layer, x)
        x = layer_norm(x, m.lnf_g, m.lnf_b)
        if m.config.task_kind == "classification":
            x = mean_rows(x)
        return linear(x, m.head_w, m.head_b)

    def _split_logits(self, tokens: np.ndarray, counter: OpCounter | None) -> Tensor:
        """``_logits`` of the first half of the batch in this thread and of
        the second half in a worker thread kept off this thread's CPU,
        joined in order. The worker counts into its own OpCounter, added to
        ``counter`` after the join; its error, if this thread's half raised
        none, is raised here."""
        half = (tokens.shape[0] + 1) // 2
        part = None if counter is None else OpCounter()
        out = {}
        caller = threading.get_native_id()

        def second_half():
            try:
                speculate.keep_off(caller)
                with no_grad():  # grad mode is per thread
                    out["logits"] = self._logits(tokens[half:], part)
            except BaseException as exc:  # raised in the caller after the join
                out["error"] = exc

        worker = threading.Thread(target=second_half)
        worker.start()
        try:
            first = self._logits(tokens[:half], counter)
        finally:
            worker.join()
        if "error" in out:
            raise out["error"]
        if counter is not None:
            counter.add(part)
        return Tensor(np.concatenate([first.data, out["logits"].data]))

    def cost(self) -> costs.CostModel:
        return costs.cost_from_views(self.model.config, self.views)


def _live_index(mask: np.ndarray):
    """How the live entries of a liveness mask are selected: None when all
    are live, a basic slice when they form one contiguous run (a
    GroupShrink band), else their indices."""
    live = np.flatnonzero(mask)
    if live.size == mask.size:
        return None
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    return slice(lo, hi) if hi - lo == live.size else live


def _take(a: Tensor, index, axis: int) -> Tensor:
    return a if index is None else take(a, index, axis)


class _BoundWeight:
    """One weight matrix as a bound layer reads it: its live rows and
    columns, with quantized row bands replaced by constant images computed
    once, so quantized rows get zero gradient. When every live row is
    quantized the matrix is a constant."""

    def __init__(self, w: Tensor, rows, cols, bits: np.ndarray, group_width: int):
        self.w, self.rows, self.cols = w, rows, cols
        self.keep = self.frozen = None
        if bits.any():
            g, n = group_width, w.data.shape[0]
            image = quantized_rows(w.data, [(i * g, min((i + 1) * g, n), int(b))
                                            for i, b in enumerate(bits) if b])
            image = _select(image, rows, cols)
            keep = _select(np.repeat(bits == 0, g)[:n, None], rows, None)
            if keep.any():
                self.keep = keep.astype(np.float64)
                image = np.where(keep, 0.0, image)
            self.frozen = Tensor(image)

    @property
    def constant(self) -> bool:
        return self.frozen is not None and self.keep is None

    def __call__(self) -> Tensor:
        if self.constant:
            return self.frozen
        w = _take(_take(self.w, self.rows, 0), self.cols, 1)
        if self.keep is not None:
            w = add(mul(w, self.keep), self.frozen)
        return w


def _select(a: np.ndarray, rows, cols) -> np.ndarray:
    a = a if rows is None else a[rows]
    return a if cols is None else a[:, cols]


class _BoundLayer:
    """One layer of a bound plan: the live head columns, QKV rows and FFN
    rows, the weight matrices it reads through them, and ``params``, the
    parameters that enter the graph. A block without live heads adds only
    wo's bias; an FFN without live input rows only a constant vector."""

    def __init__(self, p: LayerParams, view: LayerView, cfg: TransformerConfig):
        self.live_heads = int(view.head_live.sum())
        self.head_cols = _live_index(np.repeat(view.head_live, cfg.head_dim))
        self.qkv_rows = _live_index(view.qkv_live)
        self.ffn_rows = _live_index(view.ffn_live)
        self.ffn_empty = not view.ffn_live.any()
        qkv = (self.qkv_rows, self.head_cols)
        index = {"wq": qkv, "wk": qkv, "wv": qkv, "wo": (self.head_cols, None),
                 "w1": (self.ffn_rows, None), "w2": (None, None)}
        names = ()
        if not view.attn_skipped:
            names += LayerParams.ATTN_NAMES if self.live_heads else ("bo",)
        if not view.ffn_skipped:
            names += ("b1", "w2", "b2") if self.ffn_empty else LayerParams.FFN_NAMES
        self.weights = {name: _BoundWeight(getattr(p, name), *index[name],
                                           view.quant_bits[name], cfg.weight_group_width)
                        for name in names if name in index}
        self.params = [getattr(p, name) for name in names
                       if name not in self.weights or not self.weights[name].constant]


def measure_latency(model: TransformerModel, plan: ApproxPlan | None,
                    batch, repeats: int = 5) -> float:
    """Median wall time (ms) of forward passes; informational only, tests
    rely on mac_count."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    tokens = batch[0] if isinstance(batch, tuple) else batch
    planned = PlannedModel(model, plan)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with no_grad():
            planned.forward(tokens)
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(statistics.median(times))


# -- checkpoints -------------------------------------------------------------

def save_checkpoint(model: TransformerModel, prefix: str | Path) -> tuple[Path, Path]:
    """Write `<prefix>.json` (manifest) and `<prefix>.bin` (raw little-endian
    float64 tensor data)."""
    prefix = Path(prefix)
    tensors, offset = [], 0
    blob = bytearray()
    for name, t in model.named_parameters():
        raw = t.data.astype("<f8").tobytes()
        tensors.append({"name": name, "shape": list(t.data.shape), "offset": offset})
        blob.extend(raw)
        offset += len(raw)
    manifest = {
        "config": model.config.to_dict(),
        "seed": model.seed,
        "dtype": "<f8",
        "tensors": tensors,
    }
    json_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".bin")
    json_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    bin_path.write_bytes(bytes(blob))
    return json_path, bin_path


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(prefix: str | Path) -> TransformerModel:
    """Read a checkpoint pair. The manifest must hold a valid model config
    and list every parameter of that model, and nothing else, as "<f8" data
    inside the `.bin`; anything else raises PlanError."""
    prefix = Path(prefix)
    try:
        manifest = json.loads(prefix.with_suffix(".json").read_text())
    except json.JSONDecodeError as exc:
        raise PlanError(f"checkpoint manifest is not JSON: {exc}") from exc
    tensors = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(tensors, list) or "config" not in manifest:
        raise PlanError("checkpoint manifest needs a 'config' and a 'tensors' list")
    if not all(isinstance(spec, dict) and {"name", "shape", "offset"} <= spec.keys()
               and isinstance(spec["name"], str) and _count(spec["offset"])
               and isinstance(spec["shape"], list) and all(map(_count, spec["shape"]))
               for spec in tensors):
        raise PlanError("every checkpoint tensor entry needs a name, shape and offset: "
                        "a string, a list of non-negative ints and a non-negative int")
    if manifest.get("dtype") != "<f8":
        raise PlanError(f"checkpoint dtype {manifest.get('dtype')!r} is not '<f8'")
    try:
        config = TransformerConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise PlanError(f"checkpoint config is invalid: {exc}") from exc
    model = TransformerModel(config, manifest.get("seed", -1))
    blob = prefix.with_suffix(".bin").read_bytes()
    params = dict(model.named_parameters())
    listed = [spec["name"] for spec in tensors]
    if sorted(listed) != sorted(params):
        unknown = sorted(set(listed) - set(params))
        missing = sorted(set(params) - set(listed))
        raise PlanError(f"checkpoint tensors do not match the model: unknown {unknown}, "
                        f"missing {missing}")
    for spec in tensors:
        t = params[spec["name"]]
        if tuple(spec["shape"]) != t.data.shape:
            raise PlanError(f"checkpoint tensor {spec['name']} has shape {spec['shape']}, "
                            f"expected {t.data.shape}")
        end = spec["offset"] + 8 * t.data.size
        if end > len(blob):
            raise PlanError(f"checkpoint tensor {spec['name']} needs bytes "
                            f"[{spec['offset']}, {end}) of a {len(blob)}-byte .bin")
        arr = np.frombuffer(blob, dtype="<f8", count=t.data.size, offset=spec["offset"])
        t.data = arr.reshape(t.data.shape).astype(np.float64)
    return model
