"""Command-line interface.

Subcommands: train, optimize, evaluate, compare-baselines, sweep.
Configuration comes from a JSON document; flags override config fields,
with --set taking dotted JSON paths. Exit codes: 0 success, 2 config
error, 3 infeasible constraint or bad plan.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, InfeasibleError, PlanError, StageError
from .experiment import (ExperimentConfig, compare_baselines, run_experiment,
                         sweep_thresholds, train_baseline)
from .model import PlannedModel, load_checkpoint, save_checkpoint
from .plan import ApproxPlan
from .tasks import generate_task
from .training import evaluate_accuracy, evaluate_loss


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc


def _load_config(args) -> ExperimentConfig:
    try:
        doc = json.loads(_read_text(args.config, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for override in getattr(args, "set", None) or []:
        if "=" not in override:
            raise ConfigError(f"--set expects path=value, got '{override}'")
        path, raw = override.split("=", 1)
        _set_path(doc, path.strip(), _parse_value(raw.strip()))
    if getattr(args, "focus", None):
        doc["focus"] = args.focus
    if getattr(args, "eps_skip", None) is not None:
        doc["eps_skip"] = args.eps_skip
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    return ExperimentConfig.from_doc(doc)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _set_path(doc: dict, path: str, value):
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{path}' crosses a non-object field")
    node[parts[-1]] = value


def _cmd_train(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, model, train_loss, val_loss = train_baseline(config)
    save_checkpoint(model, out / "baseline")
    metrics = {
        "train_loss": train_loss,
        "val_loss": val_loss,
        "val_accuracy": evaluate_accuracy(model, None, data.val),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    report = run_experiment(config, args.out)
    print(report.to_json())
    return 0


# fields of a model config that the task decides, and those that the
# config's model section fixes: a checkpoint must share both
_TASK_FIELDS = ("task_kind", "vocab_size", "num_classes", "autoregressive")
_SHAPE_FIELDS = ("num_layers", "hidden_dim", "num_heads", "ffn_dim", "weight_group_width",
                 "kv_group_width")


def _check_fits_task(model, config: ExperimentConfig):
    """Raise PlanError naming the first field in which the checkpoint's
    model cannot take the task and model of ``config``: a task or shape
    field that differs (the model's vocab_size counts the padding id), or a
    task context longer than the checkpoint's (a shorter one is padded)."""
    have, want = model.config, config.transformer_config()
    for name in _TASK_FIELDS + _SHAPE_FIELDS:
        if getattr(have, name) != getattr(want, name):
            section = "task" if name in _TASK_FIELDS else "model"
            raise PlanError(f"checkpoint {name} is {getattr(have, name)!r}, the config's "
                            f"{section} needs {getattr(want, name)!r}")
    if want.context_len > have.context_len:
        raise PlanError(f"checkpoint context_len is {have.context_len}, the config's "
                        f"task needs at least {want.context_len}")


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    try:
        model = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise ConfigError(f"checkpoint file not found: {exc.filename}") from exc
    _check_fits_task(model, config)
    plan = ApproxPlan.from_json(_read_text(args.plan, "plan")) if args.plan else ApproxPlan()
    plan.resolve(model.config)  # warns of early causal keys pruned; binding does not
    data = generate_task(config.task)
    planned = PlannedModel(model, plan)
    cost = planned.cost()
    result = {
        "train_loss": evaluate_loss(planned, None, data.train),
        "val_loss": evaluate_loss(planned, None, data.val),
        "val_accuracy": evaluate_accuracy(planned, None, data.val),
        "mac_count": cost.mac_count,
        "param_count": cost.param_count,
        "bytes": cost.bytes,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    result = compare_baselines(config, args.out)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    pairs = []
    for chunk in args.epsilons.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values = [float(part) for part in chunk.split(":", 1)]
        except ValueError as exc:
            raise ConfigError(f"bad --epsilons entry {chunk!r}") from exc
        pairs.append(tuple(values) if len(values) == 2 else values[0])
    rows = sweep_thresholds(config, pairs, args.out, workers=args.workers)
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimformer",
        description="Greedy significance analysis and approximation for toy transformers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config field by dotted JSON path")
        p.add_argument("--seed", type=int, default=None)
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p_train = sub.add_parser("train", help="fine-tune the baseline model")
    common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_opt = sub.add_parser("optimize", help="full analyze-and-approximate pipeline")
    common(p_opt)
    p_opt.add_argument("--focus", choices=["speed", "size", "accuracy"])
    p_opt.add_argument("--eps-skip", type=float, dest="eps_skip",
                       help="relative loss increase a skip may cost")
    p_opt.set_defaults(func=_cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint, optionally under a plan")
    common(p_eval, needs_out=False)
    p_eval.add_argument("--checkpoint", required=True,
                        help="checkpoint prefix (expects .json and .bin)")
    p_eval.add_argument("--plan", default=None, help="plan JSON file")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cmp = sub.add_parser("compare-baselines",
                           help="greedy vs oracle vs Taylor comparison on a tiny model")
    common(p_cmp)
    p_cmp.add_argument("--focus", choices=["speed", "size", "accuracy"])
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="threshold sweep producing sweep.csv")
    common(p_sweep)
    p_sweep.add_argument("--epsilons", required=True,
                         help="comma-separated eps values; 'skip:approx' pairs allowed")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        cause = exc.cause
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, ConfigError):
            return 2
        return 3 if isinstance(cause, (PlanError, InfeasibleError)) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PlanError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
