"""Per-layer metrics from the spans of one traced run.

Every metric of BENCHMARK.json's ``per_layer`` list is produced for every
workload; a layer a workload never enters reports 0.
"""

from __future__ import annotations

import statistics

from scenarios import PLAN_NAMES
from tracer import OP_TARGETS


class SpanIndex:
    """Totals and counts per span name over one phase's spans.

    ``busy_ns(start, end)`` gives the time within an interval that belongs to
    none of the traced work (the speed probe); durations exclude it."""

    def __init__(self, spans, ops, busy_ns=lambda a, b: 0):
        self.spans = spans
        self.ops = ops
        self.busy_ns = busy_ns

    def named(self, name: str):
        return [s for s in self.spans if s[2] == name]

    def between(self, start: int, end: int) -> float:
        return (end - start - self.busy_ns(start, end)) / 1e9

    def seconds(self, name: str) -> float:
        return sum(self.between(s[3], s[4]) for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def leaf_seconds(self, name: str) -> float:
        return sum(total for (_, leaf), (_, total) in self.ops.items() if leaf == name) / 1e9


def optimize_layers(spans, ops, busy_ns, cov: dict, score_ops: int,
                    starved: int) -> dict[str, tuple[float, str]]:
    """Layer metrics of one traced ``run_experiment`` call; the sign-match
    counts come from the OpCounter the tracer passed into it."""
    idx = SpanIndex(spans, ops, busy_ns)
    root = idx.named("experiment.run_experiment")[0]
    first_train = next(s for s in idx.named("training.train_epochs") if s[1] == root[0])
    final = idx.named("significance.final_finetune")[0]
    candidates = [idx.between(s[3], s[4]) for s in idx.named("significance.evaluate_candidate")]
    steps = idx.calls("optim.adam_step")
    train_s = idx.seconds("training.train_epochs")
    out = {
        "experiment.stage_s.baseline_finetune": (idx.between(first_train[3], first_train[4]),
                                                 "s"),
        "experiment.stage_s.significance": (idx.seconds("significance.run"), "s"),
        "experiment.stage_s.final_finetune": (idx.between(final[3], final[4]), "s"),
        "experiment.stage_s.metrics_report": (idx.between(final[4], root[4]), "s"),
        "significance.candidates": (len(candidates), "count"),
        "significance.candidate_s": (statistics.median(candidates) if candidates else 0.0, "s"),
        "significance.accept_ratio": (cov["accepted"] / cov["candidates"]
                                      if cov["candidates"] else 0.0, "ratio"),
        "significance.accept_base": (cov["candidates"], "count"),
        "significance.invalid_plans": (cov["invalid_plans"], "count"),
        "elements.queue_len": (cov["queue_len"], "count"),
        "elements.encompass_removed": (cov["encompass_removed"], "count"),
        "training.train_steps": (steps, "count"),
        "training.step_ms": (1e3 * train_s / steps if steps else 0.0, "ms"),
        "training.train_epochs_s": (train_s, "s"),
        "training.evaluate_loss_s": (idx.seconds("training.evaluate_loss"), "s"),
        "training.evaluate_loss_calls": (idx.calls("training.evaluate_loss"), "count"),
        "training.evaluate_accuracy_s": (idx.seconds("training.evaluate_accuracy"), "s"),
        "tensor.backward_s": (idx.seconds("tensor.backward"), "s"),
        "tensor.backward_calls": (idx.calls("tensor.backward"), "count"),
        "optim.adam_step_s": (idx.seconds("optim.adam_step"), "s"),
        "model.forward_grad_s": (idx.seconds("model.forward_grad"), "s"),
        "model.forward_nograd_s": (idx.seconds("model.forward_nograd"), "s"),
        "model.forward_calls": (idx.calls("model.forward_grad")
                                + idx.calls("model.forward_nograd"), "count"),
        "model.attention_s": (idx.seconds("model.attention"), "s"),
        "model.ffn_s": (idx.seconds("model.ffn"), "s"),
        "model.planned_builds": (idx.calls("model.planned_build"), "count"),
        "signmatch.attention_s": (idx.seconds("signmatch.attention"), "s"),
        "signmatch.attention_calls": (idx.calls("signmatch.attention"), "count"),
        "signmatch.select_s": (idx.leaf_seconds("signmatch.select"), "s"),
        "signmatch.score_ops": (score_ops, "count"),
        "signmatch.starved_queries": (starved, "count"),
        "plan.resolve_s": (idx.seconds("plan.resolve"), "s"),
        "plan.resolve_calls": (idx.calls("plan.resolve"), "count"),
        "plan.quantized_rows_s": (idx.seconds("plan.quantized_rows"), "s"),
        "plan.quantized_rows_calls": (idx.calls("plan.quantized_rows"), "count"),
    }
    for op in OP_TARGETS:
        out[f"tensor.op_s.{op}"] = (idx.leaf_seconds(f"tensor.op.{op}"), "s")
    return out


def serve_layers(spans, ops, rounds: int) -> dict[str, tuple[float, str]]:
    """Layer time per traced serving round (one forward under each plan)."""
    idx = SpanIndex(spans, ops)
    per = 1e3 / rounds
    out = {
        "fwd.model.attention_ms": (per * idx.seconds("model.attention"), "ms"),
        "fwd.model.ffn_ms": (per * idx.seconds("model.ffn"), "ms"),
        "fwd.signmatch.select_ms": (per * idx.leaf_seconds("signmatch.select"), "ms"),
        "fwd.plan.quantized_rows_ms": (per * idx.seconds("plan.quantized_rows"), "ms"),
    }
    for op in OP_TARGETS:
        if op != "cross_entropy":  # a serving forward computes no loss
            out[f"fwd.tensor.op_ms.{op}"] = (per * idx.leaf_seconds(f"tensor.op.{op}"), "ms")
    return out


def ratio_layers(mac_ratios: dict, fwd_ms: dict) -> dict[str, tuple[float, str]]:
    """MAC ratio beside wall ratio (dense over plan) for each non-dense plan."""
    out = {}
    for name in PLAN_NAMES[1:]:
        out[f"costs.mac_ratio.{name}"] = (mac_ratios[name], "ratio")
        out[f"model.wall_ratio.{name}"] = (fwd_ms["dense"] / fwd_ms[name], "ratio")
    return out
