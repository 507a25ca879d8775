"""Self-test of the benchmark harness; takes about half a minute.

    python3 perfbench/selftest.py

1. Smoke: every workload runs end to end at minimal size, untraced and
   traced, and prints a result that names exactly the metrics of
   BENCHMARK.json with no failed operation.
2. Negative cases: a tampered plan.json, perturbed forward logits and a
   perturbed stored reference must each be counted as failed operations.
3. Outside a source checkout the benchmark exits non-zero without a result.

Exits 0 when every case passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> list[str]:
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        units = [(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]
        problems.append(f"metrics differ from BENCHMARK.json {key}: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, units {units}")
    return problems


def smoke_run(workload: str):
    """A smoke Run in this process, ready for its phases."""
    import slimformer as sf

    run = bench.Run(bench.parse_args(["--workload", workload, "--seed", "3",
                                      "--seconds", "1", "--smoke"]), sf, 0.0)
    run.work_dir.mkdir(parents=True, exist_ok=True)
    run.setup()
    return run, sf


def tampered_plan() -> list[str]:
    """Rewriting plan.json after the pipeline wrote it fails every repeat."""
    run, sf = smoke_run("optimize_speed_copy")
    real = sf.experiment.run_experiment

    def tampering(config, out_dir):
        report = real(config, out_dir)
        path = Path(out_dir) / "plan.json"
        doc = json.loads(path.read_text())
        if doc["skip"]:
            doc["skip"] = doc["skip"][1:]  # drop one pruned element
        else:
            doc["approx"] = doc["approx"][1:]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return report

    sf.experiment.run_experiment = tampering
    try:
        run.optimize()
    finally:
        sf.experiment.run_experiment = real
        shutil.rmtree(run.work_dir, ignore_errors=True)
    if run.failed != run.attempted or not any("mac_count" in f for f in run.failures):
        return [f"tampered plan: {run.failed}/{run.attempted} failed: {run.failures[:2]}"]
    return []


def perturbed_logits() -> list[str]:
    """Logits off by one part in 10^5 fail each forward that produced them,
    and a perturbed stored reference fails every reference check."""
    import numpy as np
    import reference

    problems = []
    run, sf = smoke_run("optimize_size_copy")
    run.args.seconds = 0.0
    shrink = run.planned["shrink"]
    real_forward = shrink.forward
    calls = {"n": 0}

    def drifting(*args, **kwargs):
        logits, loss = real_forward(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] > 1:  # the first call is the untimed per-seed reference
            logits.data = logits.data * (1 + 1e-5)
        return logits, loss

    shrink.forward = drifting
    real_load = reference.load
    reference.load = lambda: {name: ref + 1e-3 for name, ref in real_load().items()}
    try:
        run.serve()
    finally:
        reference.load = real_load
        shutil.rmtree(run.work_dir, ignore_errors=True)
    timed = bench.MIN_SERVE_ROUNDS
    shrink_fails = sum(1 for f in run.failures if f.startswith("forward shrink:"))
    stored_fails = sum(1 for f in run.failures if f.startswith("stored reference"))
    if shrink_fails != timed:
        problems.append(f"perturbed logits: {shrink_fails} of {timed} forwards failed")
    if stored_fails != len(real_load()):
        problems.append(f"perturbed stored reference: {stored_fails} checks failed")
    if run.failed != shrink_fails + stored_fails:
        problems.append(f"unperturbed operations failed: {run.failures[:3]}")
    from checks import check_logits
    if not check_logits(np.full((2, 2), np.nan), np.zeros((2, 2)), "nan"):
        problems.append("non-finite logits passed")
    return problems


def outside_checkout() -> list[str]:
    """In a directory holding only the benchmark, the run must fail."""
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(bench.BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "optimize_size_copy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    warnings.simplefilter("ignore", UserWarning)  # per-resolve plan warnings
    bench.OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(bench.ROOT / "src"))
    cases = [(f"smoke {w['name']} trace={t}", lambda w=w, t=t: smoke(w["name"], t))
             for w in BENCHMARK["workloads"] for t in (0, 1)]
    cases += [("tampered plan", tampered_plan), ("perturbed logits", perturbed_logits),
              ("outside a checkout", outside_checkout)]
    failed = 0
    for name, case in cases:
        problems = case()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
    print(f"{len(cases) - failed}/{len(cases)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
