"""Output checks and coverage counts. Each check returns a list of failure
messages; an empty list means the output passed."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from slimformer import ApproxPlan, ConfigError, PlanError
from slimformer.costs import cost_from_views

# Forward logits must match their reference to this tolerance. Outputs are
# float64 and a deterministic executor reproduces them bit for bit; the
# slack admits a reordered summation, not a changed result.
LOGIT_RTOL = 1e-7
LOGIT_ATOL = 1e-9


def check_plan(plan_text: str, tcfg, report) -> list[str]:
    """plan.json round-trips, resolves against the config, and its
    recomputed cost equals what the report claims."""
    try:
        plan = ApproxPlan.from_json(plan_text)
        views = plan.resolve(tcfg)
    except (PlanError, ConfigError, ValueError, KeyError, TypeError) as exc:
        return [f"plan.json does not load and resolve: {exc!r}"]
    failures = []
    if plan.to_json() != plan_text:
        failures.append("plan.json does not round-trip through ApproxPlan.from_json")
    cost = cost_from_views(tcfg, views)
    if cost.mac_count != report.optimized.mac_count:
        failures.append(f"report mac_count {report.optimized.mac_count} != "
                        f"recomputed {cost.mac_count}")
    if cost.bytes != report.optimized.bytes:
        failures.append(f"report bytes {report.optimized.bytes} != recomputed {cost.bytes}")
    return failures


def coverage(plan_text: str, decisions_text: str, elements_text: str) -> dict:
    """Decision and outcome counts of one optimize run, from its artifacts."""
    plan = json.loads(plan_text)
    records = [json.loads(line) for line in decisions_text.splitlines() if line]
    elements = json.loads(elements_text)
    by_kind = Counter(f"{r['element'].split(':')[0]}.{r['decision']}" for r in records)
    evaluated = [r for r in records if r["train_loss"] is not None]
    accepted = sum(1 for r in evaluated if r["decision"] != "keep")
    variants = Counter(entry["variant"] for entry in plan["approx"])
    variants.update(f"skip:{key.split(':')[0]}" for key in plan["skip"])
    return {
        "decisions": dict(sorted(by_kind.items())),
        "accepted_variants": dict(sorted(variants.items())),
        "candidates": len(evaluated),
        "accepted": accepted,
        "invalid_plans": sum(1 for r in records if r["train_loss"] is None),
        "queue_len": len(elements["queue"]),
        "encompass_removed": sum(1 for r in elements["removed"]
                                 if r["reason"] in ("encompassed", "parent_pruned")),
    }


def check_coverage(cov: dict, required: tuple[str, ...]) -> list[str]:
    """The plan must contain each mechanism the workload exists to exercise."""
    return [f"optimized plan has no {name}" for name in required
            if cov["accepted_variants"].get(name, 0) < 1]


def check_logits(logits: np.ndarray, reference: np.ndarray, what: str) -> list[str]:
    if logits.shape != reference.shape:
        return [f"{what}: logits shape {logits.shape} != reference {reference.shape}"]
    if not np.isfinite(logits).all():
        return [f"{what}: non-finite logits"]
    if not np.allclose(logits, reference, rtol=LOGIT_RTOL, atol=LOGIT_ATOL):
        worst = float(np.max(np.abs(logits - reference)))
        return [f"{what}: logits differ from reference by up to {worst:.3e}"]
    return []
