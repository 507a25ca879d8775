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
import time
from pathlib import Path

import numpy as np

from . import costs, speculate
from .config import TransformerConfig
from .elements import ATTN_BLOCK, FFN_BLOCK, FFN_GROUP, HEAD, PARAM_TABLE, QKV_GROUP
from .errors import ConfigError, PlanError
from .plan import ApproxPlan, LayerView, quantized_rows
from .signmatch import OpCounter, causal_attention, causal_mask, sign_match_attention
from .tasks import IGNORE_LABEL
from .tensor import (Tensor, add, cross_entropy, embedding_lookup, full_attention,
                     gelu, layer_norm, linear, make_rng, mean_rows, merge_heads,
                     mul, no_grad, place, reshape, split_heads, take)

# The widest band of read positions, as a share of the context, that the
# loss path computes alone. Its copies (the head's placed band, the FFN's
# placed gradient products) cost about what a fifth of the FFN rows saves:
# with the band, a training step (batch 32, hidden width 32) ran 2-5%
# slower at toy_lm's 14 of 15 and 31 of 32 read positions, about even at
# four fifths, and 8% faster at the copy task's 7 of 15.
BAND_MAX_SHARE = 0.75


class LayerParams:
    """One layer's parameters: an attribute per ``PARAM_TABLE`` row, of
    its shape, layer-norm gains at one and the rest at zero."""

    def __init__(self, config: TransformerConfig):
        for name, (_, axes) in PARAM_TABLE.items():
            shape = tuple(getattr(config, length) for length, _ in axes)
            setattr(self, name, _param(np.ones(shape) if name.endswith("_g") else np.zeros(shape)))


class TransformerModel:
    """Embedding + positional table, L pre-norm layers, final norm, task head."""

    def __init__(self, config: TransformerConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        d, n, v = config.hidden_dim, config.context_len, config.vocab_size
        self.embedding = Tensor(np.zeros((v, d)), requires_grad=True)
        self.positional = Tensor(np.zeros((n, d)), requires_grad=True)
        self.layers = [LayerParams(config) for _ in range(config.num_layers)]
        c = config.output_classes
        self.lnf_g = _param(np.ones(d))
        self.lnf_b = _param(np.zeros(d))
        self.head_w = _param(np.zeros((d, c)))
        self.head_b = _param(np.zeros(c))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding), ("positional", self.positional)]
        for i, layer in enumerate(self.layers):
            for name in PARAM_TABLE:
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
    res = (2 * config.num_layers) ** -0.5
    model.embedding.data = rng.normal(0.0, 1.0, model.embedding.data.shape)
    model.positional.data = rng.normal(0.0, 0.1, model.positional.data.shape)
    for layer in model.layers:
        for name, (_, axes) in PARAM_TABLE.items():  # the weight matrices, in table order
            if len(axes) == 2:
                t = getattr(layer, name)
                std = t.data.shape[0] ** -0.5
                t.data = rng.normal(0.0, res * std if name in ("wo", "w2") else std, t.data.shape)
    model.head_w.data = rng.normal(0.0, config.hidden_dim ** -0.5, model.head_w.data.shape)
    return model


class PlannedModel:
    """A model bound to a resolved plan: the forward-ready execution view.

    Construction validates the plan against the model's config and binds
    it: each layer gets the index arrays of its live heads, QKV input rows
    and FFN input rows, and the images of its quantized row bands, so a
    forward computes only live work. The views' masks and bit arrays are
    made read-only, so the bound plan cannot change. The view reads the
    model's weights and can be reused across forward passes while they
    train in place; the cached bands stay valid because quantized rows get
    zero gradient. Binding does not warn: a plan that leaves early causal
    queries without keys warns where it is made or read (the greedy
    analyzer resolves every candidate, ``slimformer evaluate`` the plan
    it is given).
    """

    def __init__(self, model: TransformerModel, plan: ApproxPlan | None = None):
        self.model = model
        self.plan = plan or ApproxPlan()
        self.views: list[LayerView] = self.plan.resolve(model.config, warn=False)
        for view in self.views:  # bound below, and replicated by the split worker
            for live in (view.head_live, view.kv_live, view.qkv_live, view.ffn_live,
                         *view.quant_bits.values()):
                live.flags.writeable = False
        self._bound = [_BoundLayer(p, view, model.config)
                       for p, view in zip(model.layers, self.views)]
        # the last layer whose attention mixes positions, None if none does
        self._last_mixing = max((i for i, (view, b) in enumerate(zip(self.views, self._bound))
                                 if not view.attn_skipped and b.live_heads), default=None)

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
        b = self._bound[layer]
        if not b.live_heads:  # reads no keys: it may see only the loss path's read rows
            return add(x, p.bo)
        n_x = x.data.shape[-2]
        # standalone sublayer calls may pass sequences shorter than the context
        kv_positions = np.flatnonzero(view.kv_live[:n_x])
        if kv_positions.size == 0:
            raise PlanError(f"layer {layer}: no live key/value positions for "
                            f"sequence length {n_x}")
        w, cols = b.weights, b.head_cols
        h = _take(layer_norm(x, p.ln1_g, p.ln1_b), b.qkv_rows, -1)
        q = linear(h, w["wq"](), _take(p.bq, cols, 0))
        h_kv = take(h, kv_positions, -2) if len(kv_positions) < n_x else h
        k = linear(h_kv, w["wk"](), _take(p.bk, cols, 0))
        v = linear(h_kv, w["wv"](), _take(p.bv, cols, 0))

        # live heads as strided views of the projections: [B, h, n, dh]
        q, k, v = (split_heads(t, b.live_heads) for t in (q, k, v))
        # k at or above the live key count selects every key: plain attention's bits
        if view.signmatch_k is not None and view.signmatch_k < kv_positions.size:
            out = sign_match_attention(q, k, v, view.signmatch_k, cfg.autoregressive,
                                       key_positions=kv_positions, counter=counter)
        elif cfg.autoregressive:
            out = causal_attention(q, k, v, b.causal[:n_x, :kv_positions.size], counter)
        else:
            out = full_attention(q, k, v)
        return add(x, linear(merge_heads(out), w["wo"](), p.bo))

    def ffn_sublayer(self, layer: int, x: Tensor, rows=None) -> Tensor:
        """The FFN block's output. ``rows``, a slice, says that x holds
        only those positions of the context; the gradient products then
        run on every position (see ``linear``'s ``placed``)."""
        view = self.views[layer]
        if view.ffn_skipped:
            return x
        p = self.model.layers[layer]
        b = self._bound[layer]
        if b.ffn_empty:
            # no live input row: every position gets gelu(b1) @ w2 + b2
            z, placed = gelu(reshape(p.b1, (1, -1))), None
        else:
            placed = None if rows is None else (rows, self.model.config.context_len)
            h = _take(layer_norm(x, p.ln2_g, p.ln2_b), b.ffn_rows, -1)
            z = gelu(linear(h, b.weights["w1"](), p.b1, placed))
        return add(x, linear(z, b.weights["w2"](), p.b2, placed))

    # -- end to end ----------------------------------------------------------

    def forward(self, tokens, labels=None, counter: OpCounter | None = None):
        """Run the model under the plan. Returns (logits, loss); loss is None
        when labels are not given. Sequences shorter than the context are
        padded with ``pad_token``, and per-token labels, which must have the
        tokens' shape, with ``IGNORE_LABEL``.

        When ``speculate.split_allowed`` holds (grad off, a residual
        stream of at least ``speculate.SPLIT_MIN_VALUES`` values, a free
        spare CPU), the split worker process runs the second half of the
        batch while this thread runs the first. Every op up to the logits
        works on each sequence alone and the loss is taken on the joined
        logits, so logits, loss and ``counter`` are bit-identical to one
        pass over the whole batch.
        """
        tokens, labels = self._inputs(tokens, labels)
        if self._splits(tokens):
            logits = self._split_logits(tokens, counter)
        else:
            logits = self._logits(tokens, counter)
        return logits, None if labels is None else self._loss(logits, labels)

    def loss(self, tokens, labels) -> Tensor:
        """``forward(tokens, labels)``'s loss, with the same bits and
        gradients, computed on the band of positions the loss reads: from
        the first to the last where any sequence has a label (the copy
        task's second pattern; all but the last position of ``toy_lm``).
        Every op after the attention block of the last layer that mixes
        positions runs on that band only, if it spans at most
        ``BAND_MAX_SHARE`` of the context (``toy_lm``'s does not, so it
        computes every row). BLAS may round a product over
        fewer rows differently, so the head reads the band placed back
        into zeros at the full row count, the FFN's gradient products run
        at the full row count too (see ``linear``'s ``placed``), and the
        attention block runs on every query. Classification reads every
        position through the mean, so it computes every row; so does a
        forward that ``forward`` would split, which this one does."""
        tokens, labels = self._inputs(tokens, labels)
        if labels is None:
            raise ValueError("loss needs labels")
        if self._splits(tokens):
            return self._loss(self._split_logits(tokens, None), labels)
        rows = None
        if self.model.config.task_kind != "classification":
            read = np.flatnonzero((labels >= 0).any(axis=0))
            if read[-1] + 1 - read[0] <= BAND_MAX_SHARE * tokens.shape[1]:
                # one band, so that rows are taken as views in C order
                rows = slice(int(read[0]), int(read[-1]) + 1)
        return self._loss(self._logits(tokens, None, rows), labels)

    def _inputs(self, tokens, labels):
        """Tokens, checked and padded to the context, and labels: as given
        for classification, else checked against the tokens and padded."""
        cfg = self.model.config
        tokens = np.asarray(tokens, dtype=np.int64)
        if labels is not None and cfg.task_kind != "classification":
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != tokens.shape:
                raise ValueError(f"labels shape {labels.shape} does not match tokens "
                                 f"{tokens.shape}")
        tokens = np.atleast_2d(tokens)
        if tokens.max(initial=0) >= cfg.vocab_size or tokens.min(initial=0) < 0:
            raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
        if tokens.shape[1] > cfg.context_len:
            raise ValueError(f"sequence length {tokens.shape[1]} exceeds context "
                             f"{cfg.context_len}")
        if labels is not None and cfg.task_kind != "classification":
            labels = _pad_columns(np.atleast_2d(labels), cfg.context_len, IGNORE_LABEL)
            if not (labels >= 0).any():
                raise ValueError("no labeled positions in batch")
        return _pad_columns(tokens, cfg.context_len, cfg.pad_token), labels

    def _splits(self, tokens: np.ndarray) -> bool:
        return speculate.split_allowed(tokens.shape[0],
                                       tokens.shape[1] * self.model.config.hidden_dim)

    def _loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Cross-entropy of [B, n, c] logits on the padded labels' labeled
        positions, or of [B, c] logits on classification labels."""
        if logits.data.ndim == 2:
            return cross_entropy(logits, labels)
        flat = reshape(logits, (-1, logits.data.shape[-1]))
        flat_labels = labels.reshape(-1)
        valid = np.flatnonzero(flat_labels >= 0)
        return cross_entropy(take(flat, valid, 0), flat_labels[valid])

    def _logits(self, tokens: np.ndarray, counter: OpCounter | None, rows=None) -> Tensor:
        """The layer stack on padded tokens, from embedding to logits. With
        ``rows``, a slice of positions, every op after the last mixing
        layer's attention block (after the embedding when no layer mixes)
        runs on those positions only, and the head reads them placed into
        zeros at the others."""
        m = self.model
        x = add(embedding_lookup(m.embedding, tokens), m.positional)
        held = None  # the rows x holds once it holds only the read rows
        if rows is not None and self._last_mixing is None:
            x, held = take(x, rows, -2), rows  # no layer mixes positions
        for layer in range(m.config.num_layers):
            x = self.attention_sublayer(layer, x, counter=counter)
            if rows is not None and layer == self._last_mixing:
                x, held = take(x, rows, -2), rows
            x = self.ffn_sublayer(layer, x, rows=held)
        x = layer_norm(x, m.lnf_g, m.lnf_b)
        if m.config.task_kind == "classification":
            x = mean_rows(x)
        elif held is not None:
            x = place(x, held, tokens.shape[1])
        return linear(x, m.head_w, m.head_b)

    def _split_logits(self, tokens: np.ndarray, counter: OpCounter | None) -> Tensor:
        """``_logits`` of the first half of the batch here and of the second
        half in the split worker (``speculate.split_worker``), on its
        replica of this model with this model's current weights, joined in
        order. The worker counts into its own OpCounter, added to
        ``counter``; its error, if this half raised none, is raised here.
        When the worker is busy or cannot take the half, the whole batch
        runs here; when it dies, its half runs here after this one."""
        cfg = self.model.config
        half = (tokens.shape[0] + 1) // 2
        rest = tokens[half:]
        out_shape = rest.shape[:1 if cfg.task_kind == "classification" else 2]
        part = None if counter is None else OpCounter()
        with speculate.split_worker() as worker:
            if worker is None or not worker.submit(self, rest, out_shape + (cfg.output_classes,),
                                                   part):
                return self._logits(tokens, counter)
            try:
                first = self._logits(tokens[:half], counter)
            finally:
                second, counted, error = worker.receive()
            if error is not None:
                raise error
            if second is None:  # the worker died: its half runs here
                counted = part
                second = self._logits(rest, counted).data
            logits = np.concatenate([first.data, second])
        if counter is not None:
            counter.add(counted)
        return Tensor(logits)

    def cost(self) -> costs.CostModel:
        return costs.cost_from_views(self.model.config, self.views)


def _pad_columns(a: np.ndarray, width: int, value: int) -> np.ndarray:
    """[B, n] integers filled with ``value`` on the right to [B, width]."""
    if a.shape[1] == width:
        return a
    return np.concatenate([a, np.full((a.shape[0], width - a.shape[1]), value, a.dtype)], axis=1)


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


# the (length, kind) of every parameter axis a kind slices
_SLICED_AXES = {axis for _, axes in PARAM_TABLE.values() for axis in axes if axis[1]}


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
    rows, the causal visibility of the live key/value positions that all
    sequences share (a shorter sequence reads its top-left corner; a
    sign-matched call that selects fewer keys than it has builds its own
    per sequence), the weight matrices it reads through them, and
    ``params``, the parameters that enter the graph: those of
    ``LayerView.read_params`` that are not constant."""

    def __init__(self, p: LayerParams, view: LayerView, cfg: TransformerConfig):
        self.causal = None
        if cfg.autoregressive:
            self.causal = causal_mask(cfg.context_len, np.flatnonzero(view.kv_live))
        self.live_heads = int(view.head_live.sum())
        # how the live entries of each sliced axis are taken
        index = {axis: _live_index(view.axis_live(cfg, axis)) for axis in _SLICED_AXES}
        self.head_cols = index["hidden_dim", HEAD]
        self.qkv_rows = index["hidden_dim", QKV_GROUP]
        self.ffn_rows = index["hidden_dim", FFN_GROUP]
        self.ffn_empty = not view.ffn_live.any()
        names = view.read_params(ATTN_BLOCK) + view.read_params(FFN_BLOCK)
        self.weights = {name: _BoundWeight(getattr(p, name),
                                           *(index.get(axis) for axis in PARAM_TABLE[name][1]),
                                           view.quant_bits[name], cfg.weight_group_width)
                        for name in names if name in view.quant_bits}
        self.params = [getattr(p, name) for name in names
                       if name not in self.weights or not self.weights[name].constant]


def bind(model: TransformerModel | PlannedModel, plan: ApproxPlan | None) -> PlannedModel:
    """``model`` bound to ``plan``; a model already bound is taken as it
    is, with ``plan`` None, so that callers can share one bind."""
    if not isinstance(model, PlannedModel):
        return PlannedModel(model, plan)
    if plan is not None:
        raise ValueError("a PlannedModel is bound already: pass plan=None")
    return model


def measure_latency(model: TransformerModel | PlannedModel, plan: ApproxPlan | None,
                    batch, repeats: int = 5) -> float:
    """Median wall time (ms) of forward passes of ``bind(model, plan)``;
    informational only, tests rely on mac_count."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    tokens = batch[0] if isinstance(batch, tuple) else batch
    planned = bind(model, plan)
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


def _count(value, least: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_checkpoint(prefix: str | Path) -> TransformerModel:
    """Read a checkpoint pair. The manifest must hold a valid model config,
    an int seed of at least -1 (-1: weights drawn from a Generator) if any,
    and list every parameter of that model, and nothing else, as "<f8"
    data inside the `.bin`; anything else raises PlanError."""
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
    seed = manifest.get("seed", -1)
    if not _count(seed, -1):
        raise PlanError(f"checkpoint seed {seed!r} is not an int >= -1")
    try:
        config = TransformerConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise PlanError(f"checkpoint config is invalid: {exc}") from exc
    model = TransformerModel(config, seed)
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
