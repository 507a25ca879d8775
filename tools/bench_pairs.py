"""Run the benchmark in interleaved pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py --against PARENT --workload W --pairs N [--seed S]

Pair i runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
unmodified, from the root of each checkout, so each run imports its own
``src/``: the PARENT checkout first in even pairs and the change (the
checkout holding this script) first in odd ones. Both sides run for the
same ``SECONDS``. Each run's last line of standard output is its JSON
result.

For every end-to-end metric that the change's ``BENCHMARK.json`` declares,
the script prints each side's median and quartiles over the pairs, the
number of pairs each side won (ties count for neither) and whether the
change's gain is claimable: it wins at least nine tenths of the pairs, the
medians differ, in the better direction, by more than the distance between
the parent's quartiles, every change run reports ``correct: true`` and the
change's runs fail no more operations than the parent's. Runs that report
``correct: false`` or failed operations are listed. Each run starts in a
session of its own; a run that leaves a process of that session running
is listed as ``# LEFT RUNNING`` and its leftovers are killed. The script
writes nothing; each run writes only its own checkout's gitignored
``perfbench/out/``. Exits 2 when a run fails, 1 when a change run is not
correct, fails more operations than the parent's runs or a run leaves a
process running, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_SHARE = 0.9
SECONDS = 20
ROOT = Path(__file__).resolve().parents[1]


def run_bench(checkout: Path, args) -> tuple[dict, bool]:
    """One benchmark run in ``checkout``, in a session of its own: its JSON
    result, and whether a process of that session outlived it (any such
    process is then killed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    stdout, stderr = proc.communicate()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        left = False
    else:
        left = True
        os.killpg(proc.pid, signal.SIGKILL)
    lines = stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{stderr}")
    return json.loads(lines[-1]), left


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sound(parent: list[dict], change: list[dict]) -> bool:
    """Every change run is correct and the change's runs fail no more
    operations than the parent's; without that no gain is claimable."""
    return (all(c["correct"] for c in change)
            and sum(c["failed"] for c in change) <= sum(p["failed"] for p in parent))


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: medians, quartiles, wins and the claim verdict."""
    ok = sound(parent, change)
    rows = [f"{'metric':<18} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
            f"{'wins p/c':>9} claim"]
    for spec in metrics:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        old, new = ([pair[i] for pair in pairs] for i in (0, 1))
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        change_wins = sum(sign * (b - a) > 0 for a, b in pairs)
        parent_wins = sum(sign * (a - b) > 0 for a, b in pairs)
        claim = (ok and change_wins >= CLAIM_SHARE * len(pairs)
                 and sign * (cm - pm) > p3 - p1)
        rows.append(f"{name:<18} {p1:>9.4g} {pm:>9.4g} {p3:>9.4g}  {c1:>9.4g} {cm:>9.4g} "
                    f"{c3:>9.4g}  {parent_wins:>3}/{change_wins:<3}  "
                    f"{'yes' if claim else 'no'} ({spec['unit']}, {spec['better']} is better)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, metavar="PARENT",
                        help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    against = args.against.resolve()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    parent, change, bad, stray = [], [], [], []
    for i in range(args.pairs):
        order = ((against, parent), (ROOT, change))
        for checkout, results in (order if i % 2 == 0 else order[::-1]):
            try:
                result, left = run_bench(checkout, args)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            results.append(result)
            if left:
                stray.append(f"pair {i} {checkout}")
            if not result["correct"] or result["failed"]:
                bad.append(f"pair {i} {checkout}: correct={result['correct']} "
                           f"failed={result['failed']} of {result['attempted']}")
        first = metrics[0]["name"]
        print(f"# pair {i}: {first} parent {parent[-1]['metrics'][first]['value']:.4g} "
              f"change {change[-1]['metrics'][first]['value']:.4g}", flush=True)

    print(f"# {args.workload} seed={args.seed} seconds={SECONDS} pairs={args.pairs} "
          f"(parent first in even pairs)")
    for row in summarize(metrics, parent, change):
        print(row)
    for line in bad:
        print(f"# NOT CORRECT {line}")
    for run in stray:
        print(f"# LEFT RUNNING {run}")
    return 0 if sound(parent, change) and not stray else 1


if __name__ == "__main__":
    sys.exit(main())
