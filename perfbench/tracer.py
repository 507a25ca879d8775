"""In-memory span tracer that wraps slimformer's public entry points.

Spans are recorded only around calls the benchmark wraps from here, at the
boundaries of the package's modules (its layers); nothing inside the
package is edited. A wrapped method is replaced on its class. A wrapped
free function is replaced in every loaded ``slimformer`` module that bound
the same function object, because ``from .training import train_epochs``
gives ``significance`` and ``experiment`` bindings of their own.

Each span is ``(span_id, parent_id, name, start_ns, end_ns)`` and belongs to
one run id. Leaf functions (tensor ops, sign-match key selection) are called
hundreds of thousands of times per pipeline run, so they are folded into one
aggregate record per (parent span, name) instead of one span per call; the
tree above them is kept span by span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer module, owner, attribute, span name). An owner of None wraps a free
# function; otherwise it names a class in the layer module.
SPAN_TARGETS = (
    ("experiment", None, "run_experiment", "experiment.run_experiment"),
    ("significance", "GreedyAnalyzer", "run", "significance.run"),
    ("significance", None, "evaluate_candidate", "significance.evaluate_candidate"),
    ("significance", None, "final_finetune", "significance.final_finetune"),
    ("elements", None, "order_queue", "elements.order_queue"),
    ("training", None, "train_epochs", "training.train_epochs"),
    ("training", None, "evaluate_loss", "training.evaluate_loss"),
    ("training", None, "evaluate_accuracy", "training.evaluate_accuracy"),
    ("optim", "Adam", "step", "optim.adam_step"),
    ("model", "PlannedModel", "__init__", "model.planned_build"),
    ("model", "PlannedModel", "forward", "model.forward"),
    ("model", "PlannedModel", "attention_sublayer", "model.attention"),
    ("model", "PlannedModel", "ffn_sublayer", "model.ffn"),
    ("signmatch", None, "sign_match_attention", "signmatch.attention"),
    ("plan", "ApproxPlan", "resolve", "plan.resolve"),
    ("plan", None, "quantized_rows", "plan.quantized_rows"),
    ("tasks", None, "generate_task", "tasks.generate_task"),
    ("tensor", "Tensor", "backward", "tensor.backward"),
)

# Leaf free functions, aggregated per (parent span, name): forward tensor ops
# per op kind, and the per-sequence, per-head key selection of sign matching.
OP_TARGETS = ("matmul", "softmax_rows", "layer_norm", "gelu", "cross_entropy",
              "gather_rows")
LEAF_TARGETS = tuple(("tensor", op, f"tensor.op.{op}") for op in OP_TARGETS) + (
    ("signmatch", "causal_select", "signmatch.select"),
    ("signmatch", "select_topk", "signmatch.select"),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.op_totals: dict[tuple[int, str], list[int]] = {}
        self.counter = None
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: int):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "signmatch.attention" and kwargs.get("counter") is None:
                kwargs["counter"] = tracer.counter
            sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if name == "model.forward":
                    label = ("model.forward_grad" if out[0].requires_grad
                             else "model.forward_nograd")
                return out
            finally:
                tracer._close(sid, parent, label, t0)

        return wrapper

    def _op_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                slot = tracer.op_totals.get((tracer._stack[-1], name))
                if slot is None:
                    tracer.op_totals[(tracer._stack[-1], name)] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Wrap every target of ``package`` (the imported slimformer). Each
        install starts a fresh OpCounter for sign-match calls made without one."""
        self.counter = package.OpCounter()
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for layer, owner, attr, name in SPAN_TARGETS:
            home = sys.modules[f"{package.__name__}.{layer}"]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._span_wrapper(original, name))
            else:
                original = getattr(home, attr)
                self._patch_everywhere(modules, original, self._span_wrapper(original, name))
        for layer, attr, name in LEAF_TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{layer}"], attr)
            self._patch_everywhere(modules, original, self._op_wrapper(original, name))

    def _patch(self, owner, attr: str, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and op aggregates recorded so far."""
        spans, ops = self.spans, self.op_totals
        self.spans, self.op_totals = [], {}
        return spans, ops

    def write(self, path, phases: dict[str, tuple[list, dict]]):
        """Write every recorded span as JSON lines: one record per span, and
        one per (parent span, leaf function) aggregate."""
        with open(path, "w") as fh:
            for phase, (spans, ops) in phases.items():
                for sid, parent, name, t0, t1 in spans:
                    fh.write(json.dumps({"run": self.run_id, "phase": phase, "span": sid,
                                         "parent": parent, "name": name,
                                         "start_ns": t0, "end_ns": t1}) + "\n")
                for (parent, name), (calls, total) in sorted(ops.items()):
                    fh.write(json.dumps({"run": self.run_id, "phase": phase,
                                         "parent": parent, "name": name,
                                         "calls": calls, "total_ns": total}) + "\n")

