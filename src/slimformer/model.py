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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import costs
from .config import TransformerConfig
from .errors import ConfigError, PlanError
from .plan import ApproxPlan, LayerView, quantized_rows
from .signmatch import (OpCounter, causal_mask, full_attention,
                        sign_match_attention)
from .tensor import (Tensor, add, cross_entropy, embedding_lookup, gather_rows,
                     gelu, layer_norm, make_rng, matmul, mean_rows, merge_heads,
                     mul, reshape, split_heads)


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

    Construction validates the plan against the model's config; the view is
    read-only with respect to the model and can be reused across forward
    passes while the underlying weights train.
    """

    def __init__(self, model: TransformerModel, plan: ApproxPlan | None = None):
        self.model = model
        self.plan = plan or ApproxPlan()
        self.views: list[LayerView] = self.plan.resolve(model.config)

    def parameters(self) -> list[Tensor]:
        """Parameters of the blocks the plan keeps alive, in
        named_parameters order."""
        m = self.model
        out = [m.embedding, m.positional]
        for layer, view in zip(m.layers, self.views):
            if not view.attn_skipped:
                # every head pruned: nothing upstream of the zero-padded
                # output can influence the loss
                names = LayerParams.ATTN_NAMES if view.head_live.any() else ("wo", "bo")
                out.extend(getattr(layer, name) for name in names)
            if not view.ffn_skipped:
                out.extend(getattr(layer, name) for name in LayerParams.FFN_NAMES)
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
        h = layer_norm(x, p.ln1_g, p.ln1_b)
        wq, wk, wv = (_effective(getattr(p, m), view.qkv_live, view.quant_bits[m], cfg)
                      for m in ("wq", "wk", "wv"))
        wo = _effective(p.wo, None, view.quant_bits["wo"], cfg)

        q = add(matmul(h, wq), p.bq)
        pruned_kv = len(kv_positions) < n_x
        h_kv = gather_rows(h, kv_positions) if pruned_kv else h
        k = add(matmul(h_kv, wk), p.bk)
        v = add(matmul(h_kv, wv), p.bv)

        # heads folded into the batch axis: [B*h, n, dh]
        heads = cfg.num_heads
        q, k, v = (split_heads(t, heads) for t in (q, k, v))
        if view.signmatch_k is None:
            mask = causal_mask(n_x, kv_positions) if cfg.autoregressive else None
            out = full_attention(q, k, v, mask)
        else:
            out = sign_match_attention(q, k, v, view.signmatch_k, cfg.autoregressive,
                                       key_positions=kv_positions, counter=counter)
        merged = merge_heads(out, heads, squeeze=x.data.ndim == 2)
        if not view.head_live.all():
            merged = mul(merged, np.repeat(view.head_live, cfg.head_dim))
        attn = add(matmul(merged, wo), p.bo)
        return add(x, attn)

    def ffn_sublayer(self, layer: int, x: Tensor) -> Tensor:
        cfg = self.model.config
        view = self.views[layer]
        if view.ffn_skipped:
            return x
        p = self.model.layers[layer]
        h = layer_norm(x, p.ln2_g, p.ln2_b)
        w1 = _effective(p.w1, view.ffn_live, view.quant_bits["w1"], cfg)
        w2 = _effective(p.w2, None, view.quant_bits["w2"], cfg)
        z = gelu(add(matmul(h, w1), p.b1))
        return add(x, add(matmul(z, w2), p.b2))

    # -- end to end ----------------------------------------------------------

    def forward(self, tokens, labels=None, counter: OpCounter | None = None):
        """Run the model under the plan. Returns (logits, loss); loss is None
        when labels are not given."""
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

        x = add(embedding_lookup(self.model.embedding, tokens), self.model.positional)
        for layer in range(cfg.num_layers):
            x = self.attention_sublayer(layer, x, counter=counter)
            x = self.ffn_sublayer(layer, x)
        x = layer_norm(x, self.model.lnf_g, self.model.lnf_b)

        if cfg.task_kind == "classification":
            logits = add(matmul(mean_rows(x), self.model.head_w), self.model.head_b)
            loss = None if labels is None else cross_entropy(logits, labels)
            return logits, loss
        logits = add(matmul(x, self.model.head_w), self.model.head_b)
        if labels is None:
            return logits, None
        labels = np.asarray(labels, dtype=np.int64)
        flat = reshape(logits, (tokens.shape[0] * cfg.context_len, cfg.output_classes))
        flat_labels = labels.reshape(-1)
        valid = np.nonzero(flat_labels >= 0)[0]
        if valid.size == 0:
            raise ValueError("no labeled positions in batch")
        loss = cross_entropy(gather_rows(flat, valid), flat_labels[valid])
        return logits, loss

    def cost(self) -> costs.CostModel:
        return costs.cost_from_views(self.model.config, self.views)


def _effective(w: Tensor, live: np.ndarray | None, bits: np.ndarray,
               cfg: TransformerConfig) -> Tensor:
    """Weight matrix as the plan sees it: pruned rows zeroed and quantized
    row bands replaced by their round-trip images; neither receives
    gradient."""
    out = w
    if live is not None and not live.all():
        out = mul(out, live.astype(np.float64)[:, None])
    if bits.any():
        g = cfg.weight_group_width
        out = quantized_rows(out, [(i * g, min((i + 1) * g, w.data.shape[0]), int(b))
                                   for i, b in enumerate(bits) if b])
    return out


def measure_latency(model: TransformerModel, plan: ApproxPlan | None,
                    batch, repeats: int = 5) -> float:
    """Median wall time (ms) of forward passes; informational only, tests
    rely on mac_count."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    tokens = batch[0] if isinstance(batch, tuple) else batch
    planned = PlannedModel(model, plan)
    times = []
    from .tensor import no_grad
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
               for spec in tensors):
        raise PlanError("every checkpoint tensor entry needs a name, shape and offset")
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
        if spec["offset"] < 0 or end > len(blob):
            raise PlanError(f"checkpoint tensor {spec['name']} needs bytes "
                            f"[{spec['offset']}, {end}) of a {len(blob)}-byte .bin")
        arr = np.frombuffer(blob, dtype="<f8", count=t.data.size, offset=spec["offset"])
        t.data = arr.reshape(t.data.shape).astype(np.float64)
    return model
