"""Experiment orchestration: train, analyze, optimize, report.

Pipeline: baseline fine-tune -> ordered queue -> greedy significance
analysis -> final fine-tune -> metrics. All artifacts (report,
plan, decision log, element queue audit, checkpoints) are JSON or JSONL and
deterministic except for wall-time fields.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .config import TransformerConfig, check_keys, check_number_fields, read_doc
from .elements import ElementQueue, enumerate_elements, order_queue
from .errors import ConfigError, InfeasibleError, PlanError, StageError
from .focus import Focus
from .model import (PlannedModel, TransformerModel, build_model,
                    measure_latency, save_checkpoint)
from .plan import QUANT_BITS, ApproxPlan
from .significance import (GreedyAnalyzer, eps_pair, final_finetune,
                           oracle_significance, taylor_significance)
from .speculate import available_cpus
from .tasks import TaskData, TaskSpec, generate_task
from .tensor import spawn_rng
from .training import (DEFAULT_BATCH, DEFAULT_LR, evaluate_accuracy,
                       evaluate_loss, train_epochs)


@dataclass(frozen=True)
class ModelShape:
    """Architecture knobs not derivable from the task."""

    num_layers: int = 2
    hidden_dim: int = 16
    num_heads: int = 2
    ffn_dim: int = 32
    weight_group_width: int = 4
    kv_group_width: int = 4


# Fields the config doc does not store flat under their own name: "shape"
# is the "model" section, "focus" is the focus name, and the epoch budgets
# form the "epochs" section.
_EPOCHS = {"epochs_baseline": "baseline", "epochs_candidate": "candidate",
           "epochs_final": "final"}
_STRUCTURED = ("task", "shape", "focus", *_EPOCHS)
COMPARATORS = ("greedy_heuristic", "greedy_plain", "oracle", "taylor")


@dataclass
class ExperimentConfig:
    task: TaskSpec
    shape: ModelShape = ModelShape()
    focus: Focus = Focus.SPEED
    seed: int = 0
    epochs_baseline: int = 5
    epochs_candidate: int = 1
    epochs_final: int = 5
    lr: float = DEFAULT_LR
    batch_size: int = DEFAULT_BATCH
    eps_skip: float = 0.005
    eps_approx: float | None = None
    sign_match_k: int | None = None
    quant_bits: int = 8
    max_oracle_elements: int = 64
    comparators: tuple[str, ...] = COMPARATORS

    def __post_init__(self):
        check_number_fields(self)
        self.transformer_config()  # range-checks the shape against the task
        eps_pair(self.eps_skip, self.eps_approx)
        n, k = self.task.context_len, self.sign_match_k
        if self.quant_bits not in QUANT_BITS:
            raise ConfigError(f"quant_bits must be one of {QUANT_BITS}, got {self.quant_bits}")
        if k is not None and not 1 <= k <= n:
            raise ConfigError(f"sign_match_k must be in [1, context_len={n}], got {k}")
        if min(self.epochs_baseline, self.epochs_candidate, self.epochs_final) < 0:
            raise ConfigError("epoch budgets must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if (not isinstance(self.comparators, (list, tuple))
                or not all(isinstance(c, str) for c in self.comparators)):
            raise ConfigError(f"comparators must be a list of names, got {self.comparators!r}")
        self.comparators = tuple(self.comparators)
        unknown = sorted(set(self.comparators) - set(COMPARATORS))
        if unknown:
            raise ConfigError(f"unknown comparator(s) {unknown}; known: {list(COMPARATORS)}")

    def transformer_config(self) -> TransformerConfig:
        """Model config derived from the task (vocab gains one padding id)."""
        return TransformerConfig(
            num_layers=self.shape.num_layers,
            hidden_dim=self.shape.hidden_dim,
            num_heads=self.shape.num_heads,
            ffn_dim=self.shape.ffn_dim,
            context_len=self.task.context_len,
            vocab_size=self.task.vocab_size + 1,
            autoregressive=self.task.autoregressive,
            weight_group_width=self.shape.weight_group_width,
            kv_group_width=self.shape.kv_group_width,
            task_kind=self.task.model_task_kind,
            num_classes=self.task.num_classes,
        )

    def to_doc(self) -> dict:
        doc = {"task": self.task.to_dict(), "model": asdict(self.shape),
               "focus": self.focus.value,
               "epochs": {key: getattr(self, name) for name, key in _EPOCHS.items()}}
        for f in fields(self):
            if f.name not in _STRUCTURED:
                value = getattr(self, f.name)
                doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_doc(cls, doc) -> "ExperimentConfig":
        """Inverse of to_doc; absent keys take the dataclass defaults, and
        an unknown key at any level raises ConfigError."""
        flat = [f.name for f in fields(cls) if f.name not in _STRUCTURED]
        check_keys(doc, ["task", "model", "focus", "epochs", *flat], "config")
        epochs = check_keys(doc.get("epochs", {}), _EPOCHS.values(), "config section 'epochs'")
        kwargs = {name: epochs[key] for name, key in _EPOCHS.items() if key in epochs}
        kwargs.update((name, doc[name]) for name in flat if name in doc)
        return cls(task=read_doc(TaskSpec, doc.get("task"), "config section 'task'"),
                   shape=read_doc(ModelShape, doc.get("model", {}), "config section 'model'"),
                   focus=Focus.parse(doc.get("focus", cls.focus.value)), **kwargs)


@dataclass
class MetricsBundle:
    train_loss: float
    val_loss: float
    accuracy: float
    param_count: int
    mac_count: int
    bytes: int
    wall_ms: float
    perplexity: float | None = None

    def to_doc(self) -> dict:
        """Every field, leaving out a perplexity of None."""
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class RunReport:
    baseline: MetricsBundle
    optimized: MetricsBundle
    ratios: dict
    plan_summary: dict
    histogram: list[dict]
    decision_log: str

    def to_doc(self) -> dict:
        return {
            "baseline": self.baseline.to_doc(),
            "optimized": self.optimized.to_doc(),
            "ratios": self.ratios,
            "plan_summary": self.plan_summary,
            "per_layer_histogram": self.histogram,
            "decision_log": self.decision_log,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


def _metrics(model: TransformerModel, plan, data: TaskData, spec: TaskSpec) -> MetricsBundle:
    planned = PlannedModel(model, plan)
    cost = planned.cost()
    wall = measure_latency(planned, None, data.val.tokens[:16], repeats=3)
    val_loss = evaluate_loss(planned, None, data.val)
    ppl = math.exp(val_loss) if spec.model_task_kind != "classification" else None
    return MetricsBundle(
        train_loss=evaluate_loss(planned, None, data.train),
        val_loss=val_loss,
        accuracy=evaluate_accuracy(planned, None, data.val),
        param_count=cost.param_count,
        mac_count=cost.mac_count,
        bytes=cost.bytes,
        wall_ms=wall,
        perplexity=ppl,
    )


def _plan_summary(plan, total_elements: int) -> dict:
    skipped: dict[str, int] = {}
    for el in plan.skiplist:
        skipped[el.kind] = skipped.get(el.kind, 0) + 1
    approx: dict[str, int] = {}
    for el, entries in plan.approxlist.items():
        for params in entries:
            approx[params.name] = approx.get(params.name, 0) + 1
    return {"skipped": dict(sorted(skipped.items())),
            "approximated": dict(sorted(approx.items())),
            "skiplist_size": len(plan.skiplist),
            "approxlist_size": len(plan.approxlist),
            "total_elements": total_elements}


def _histogram(plan, num_layers: int) -> list[dict]:
    rows = []
    for layer in range(num_layers):
        skipped = sum(1 for el in plan.skiplist if el.layer == layer)
        approximated = sum(1 for el in plan.approxlist if el.layer == layer)
        rows.append({"layer": layer, "skipped": skipped, "approximated": approximated})
    return rows


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a StageError naming it."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def train_baseline(config: ExperimentConfig) -> tuple[TaskData, TransformerModel,
                                                      float, float]:
    """The fine-tuned baseline every pipeline starts from: generate the task,
    build the model, train it. Returns (data, model, train loss, val loss)."""
    with _stage("generate_task"):
        data = generate_task(config.task)
    with _stage("build_model"):
        model = build_model(config.transformer_config(), config.seed)
    with _stage("baseline_finetune"):
        train_epochs(model, None, data.train, config.epochs_baseline,
                     spawn_rng(config.seed, 0), lr=config.lr,
                     batch_size=config.batch_size)
        return (data, model, evaluate_loss(model, None, data.train),
                evaluate_loss(model, None, data.val))


def _analyzer(config: ExperimentConfig, model: TransformerModel, data: TaskData,
              baseline: tuple[float, float], **kwargs) -> GreedyAnalyzer:
    """The greedy analyzer a config asks for, its bars set from the baseline
    (train, val) losses."""
    return GreedyAnalyzer(model, data, baseline, config.focus, config.seed,
                          eps_skip=config.eps_skip, eps_approx=config.eps_approx,
                          epochs_per_candidate=config.epochs_candidate, lr=config.lr,
                          batch_size=config.batch_size, sign_match_k=config.sign_match_k,
                          quant_bits=config.quant_bits, **kwargs)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunReport:
    """Full pipeline; writes report.json, plan.json, decisions.jsonl,
    elements.json and the baseline/final checkpoint pairs into out_dir.
    Partial artifacts are preserved when a stage fails."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_doc(), indent=2, sort_keys=True))

    data, model, baseline_train, baseline_val = train_baseline(config)
    tcfg = model.config
    with _stage("baseline_finetune"):
        save_checkpoint(model, out / "baseline")
    with _stage("order_queue"):
        queue = order_queue(enumerate_elements(tcfg), config.focus, tcfg)
    with _stage("significance"):
        analyzer = _analyzer(config, model, data, (baseline_train, baseline_val),
                             log_path=out / "decisions.jsonl")
        plan = analyzer.run(queue)
        (out / "plan.json").write_text(plan.to_json())
        (out / "elements.json").write_text(queue.to_json())
    with _stage("final_finetune"):
        final = final_finetune(analyzer.work, plan, data, config.epochs_final,
                               seed=config.seed, lr=config.lr,
                               batch_size=config.batch_size)
        save_checkpoint(final, out / "model")
    with _stage("metrics_report"):
        base = _metrics(model, None, data, config.task)
        opt = _metrics(final, plan, data, config.task)
        ratios = {
            "mac": base.mac_count / opt.mac_count,
            "params": base.param_count / opt.param_count,
            "bytes": base.bytes / opt.bytes,
            "wall": base.wall_ms / opt.wall_ms if opt.wall_ms > 0 else float("inf"),
            "accuracy_delta": opt.accuracy - base.accuracy,
        }
        report = RunReport(
            baseline=base, optimized=opt, ratios=ratios,
            plan_summary=_plan_summary(plan, len(enumerate_elements(tcfg))),
            histogram=_histogram(plan, tcfg.num_layers),
            decision_log="decisions.jsonl",
        )
        (out / "report.json").write_text(report.to_json())
    return report


def compare_baselines(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Greedy analysis with and without heuristics, plus one-shot oracle and
    Taylor-expansion pruning at the same element-removal count, on a shared
    fine-tuned baseline. Guarded to tiny models."""
    tcfg = config.transformer_config()
    elements = enumerate_elements(tcfg)
    if len(elements) > config.max_oracle_elements:
        raise InfeasibleError(
            f"{len(elements)} elements exceed the comparison guard of "
            f"{config.max_oracle_elements}")

    data, model, baseline_train, baseline_val = train_baseline(config)
    baseline_cost = PlannedModel(model).cost()

    def row(method: str, weights: TransformerModel, plan: ApproxPlan, removed: int,
            evaluated: int, seconds: float) -> dict:
        planned = PlannedModel(weights, plan)
        cost = planned.cost()
        return {
            "method": method,
            "train_loss": evaluate_loss(planned, None, data.train),
            "val_loss": evaluate_loss(planned, None, data.val),
            "mac_count": cost.mac_count,
            "param_count": cost.param_count,
            "elements_removed": removed,
            "candidates_evaluated": evaluated,
            "analysis_seconds": seconds,
        }

    def greedy(method: str, queue: ElementQueue, encompass: bool) -> dict:
        analyzer = _analyzer(config, model, data, (baseline_train, baseline_val),
                             encompass_enabled=encompass)
        t0 = time.perf_counter()
        plan = analyzer.run(queue)
        seconds = time.perf_counter() - t0
        # counts a shrink scan's prunes, which the plan holds as one GroupShrink
        removed = sum(r["decision"] == "skip" for r in analyzer.records)
        return row(method, analyzer.work, plan, removed, len(analyzer.records), seconds)

    enabled = set(config.comparators)
    # the heuristic run anchors the matched element-removal count even when
    # its row is not requested
    heuristic = greedy("greedy_heuristic", order_queue(elements, config.focus, tcfg), True)
    k = heuristic["elements_removed"]
    rows = [heuristic] if "greedy_heuristic" in enabled else []
    if "greedy_plain" in enabled:
        rows.append(greedy("greedy_plain", ElementQueue(list(elements)), False))

    scorers = {"oracle": lambda: oracle_significance(
                   model, data, elements, max_elements=config.max_oracle_elements),
               "taylor": lambda: taylor_significance(model, data, elements)}
    for method in (m for m in scorers if m in enabled):
        t0 = time.perf_counter()
        scores = scorers[method]()
        seconds = time.perf_counter() - t0
        # one shot: skip the k lowest-scoring elements whose plan still resolves
        plan, taken = ApproxPlan(), 0
        for el in sorted(scores, key=lambda el: (scores[el], el.key)):
            if taken == k:
                break
            candidate = plan.with_skip(el)
            try:
                candidate.resolve(tcfg)
            except PlanError:
                continue  # lowest-score set may be structurally invalid
            plan, taken = candidate, taken + 1
        rows.append(row(method, model, plan, taken, len(scores), seconds))

    result = {
        "baseline": {"train_loss": baseline_train, "val_loss": baseline_val,
                     "mac_count": baseline_cost.mac_count,
                     "param_count": baseline_cost.param_count},
        "rows": rows,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    return result


def _sweep_one(config: ExperimentConfig, run_dir: str) -> dict:
    report = run_experiment(config, run_dir)
    return {
        "eps_skip": config.eps_skip,
        "eps_approx": config.eps_approx,
        "accuracy": report.optimized.accuracy,
        "mac_ratio": report.ratios["mac"],
        "bytes_ratio": report.ratios["bytes"],
    }


def sweep_thresholds(config: ExperimentConfig, epsilon_list, out_dir: str | Path,
                     workers: int = 1) -> list[dict]:
    """One experiment per (eps_skip, eps_approx) pair; bare floats f expand
    to (f, 2f). Every pair is validated before the first run. Runs in a
    pool of at most ``workers`` processes, capped at the CPUs available.
    Writes sweep.csv plus one run directory per pair."""
    if not epsilon_list:
        raise ConfigError("epsilon list must be nonempty")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = []
    for item in epsilon_list:
        es, ea = item if isinstance(item, (tuple, list)) else (item, 2.0 * float(item))
        configs.append(replace(config, eps_skip=float(es), eps_approx=float(ea)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_dirs = [str(out / f"run_{i:03d}") for i in range(len(configs))]
    workers = min(workers, available_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, configs, run_dirs))
    else:
        rows = list(map(_sweep_one, configs, run_dirs))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["eps_skip", "eps_approx", "accuracy",
                                                "mac_ratio", "bytes_ratio"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
