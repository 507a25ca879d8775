"""slimformer benchmark: pipeline time and planned-forward latency.

    python3 perfbench/run.py --workload optimize_speed_copy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. One process, one client, a
closed loop, BLAS pinned to one thread, glibc's allocator thresholds pinned.

After set-up (the package import, timed in child processes beside a
reference import, plus input generation, repeated; medians count), each run
has two timed phases:

1. optimize: ``run_experiment`` on the workload's fixed copy-task scenario,
   repeated until half of ``--seconds`` has passed (at least twice, so the
   audit trail can be compared across repeats);
2. serve: round-robin no-grad ``PlannedModel.forward`` of 64 seeded
   sequences on a seeded desk-scale model under seven fixed plans, for the
   other half.

Times are scaled to a reference machine speed by ``speed.SpeedProbe``.
Every operation (one ``run_experiment`` call, one forward, one reference
check) is checked; a failed check counts the operation as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the second
pipeline repeat and every second serving round under the span tracer and
prints the per-layer metrics, including the tracing overhead (traced minus
untraced). Spans and a detailed result (timing tails, sample counts,
coverage counts, environment) are written under ``perfbench/out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# Pin BLAS before numpy loads: the model's matrices are 32 wide, so extra
# threads add only scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

WORKLOADS = ("optimize_speed_copy", "optimize_size_copy")
OPTIMIZE_SHARE = 0.5
MIN_OPTIMIZE_REPEATS = 2
MIN_SERVE_ROUNDS = 4
SETUP_REPEATS = 5
# Import time is file-system and loader bound, which the speed probe does not
# track, so it is scaled by a reference import timed beside it: each child
# process times one cold import, of the package or of the reference.
IMPORT_REPEATS = 3
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "__import__(sys.argv[2]); print(time.perf_counter() - t0)")
REFERENCE_IMPORT = "scipy.special"  # numpy and scipy: most of the package's import
REFERENCE_IMPORT_S = 0.3  # its median cold import on the baseline machine
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc serves the forward pass's multi-megabyte temporaries
    with fresh mmap'd pages and moves its mmap threshold as the allocation
    history changes, so the same forward took 36 to 55 ms depending on what
    ran before it in the process. Pinned, every large temporary reuses heap
    pages and timings do not depend on that history. The page faults left
    are reported per serving round as ``fwd.minor_faults``.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                and libc.mallopt(M_TRIM_THRESHOLD, 256 << 20))


def child_import_seconds(module: str) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(ROOT / "src"), module],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timing_stats(samples: list[float]) -> dict:
    """Median, the highest ladder percentile with >= 10 samples beyond it,
    and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "tail": None}
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            out["tail"] = {"percentile": p, "value": cut[round(p * 10) - 1]}
            break
    return out


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, sf, import_s: float):
        from scenarios import OPTIMIZE_WORKLOADS, optimize_config
        from tracer import Tracer

        self.args = args
        self.sf = sf
        self.import_s = import_s
        self.focus, self.required = OPTIMIZE_WORKLOADS[args.workload]
        self.config = optimize_config(self.focus, smoke=args.smoke)
        self.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.tracer = Tracer(self.run_id) if args.trace else None
        self.phases: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.work_dir = OUT_DIR / f"tmp-{self.run_id}"
        self.raw: dict = {}  # timings before speed scaling, with their factors

    def operation(self, what: str, failures: list[str]):
        """Count one checked operation; it failed if any check failed."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{what}: {msg}" for msg in failures)

    def traced(self, phase: str, fn):
        """Call fn under the tracer, keeping its spans as ``phase``."""
        self.tracer.install(self.sf)
        try:
            return fn()
        finally:
            self.tracer.uninstall()
            spans, ops = self.tracer.take()
            old = self.phases.get(phase, ([], {}))
            old[0].extend(spans)
            for key, (calls, total) in ops.items():
                slot = old[1].setdefault(key, [0, 0])
                slot[0] += calls
                slot[1] += total
            self.phases[phase] = old

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        from scenarios import SERVE_BATCH, probe_tokens, serve_inputs
        from speed import SpeedProbe

        def once():
            tcfg = self.config.transformer_config()
            self.sf.generate_task(self.config.task)
            self.sf.build_model(tcfg, self.config.seed)
            self.probe_tokens = probe_tokens(self.config, self.args.seed)
            self.tokens, self.planned = serve_inputs(
                self.args.seed, batch=4 if self.args.smoke else SERVE_BATCH)

        imports, references = [], []
        for _ in range(IMPORT_REPEATS):
            imports.append(child_import_seconds("slimformer"))
            references.append(child_import_seconds(REFERENCE_IMPORT))
        import_s = statistics.median(imports) * REFERENCE_IMPORT_S / statistics.median(references)
        spans = []
        with SpeedProbe(timer=False) as probe:
            for i in range(SETUP_REPEATS):
                probe.sample()
                t0 = time.perf_counter()
                if self.tracer is not None and i == 0:
                    self.traced("setup", once)
                else:
                    once()
                spans.append((t0, time.perf_counter()))
        if self.tracer is not None:
            spans = spans[1:]  # the traced first repeat is not set-up time
        self.setup_s = import_s + statistics.median(probe.scaled(*s) for s in spans)
        self.raw["setup_s"] = {"in_process_import": self.import_s, "imports": imports,
                               "reference_imports": references,
                               "speed_factor": probe.factor(),
                               "inputs": statistics.median(probe.raw(*s) for s in spans)}

    # -- optimize phase -------------------------------------------------------

    def optimize(self):
        from speed import SpeedProbe

        sf = self.sf
        budget = OPTIMIZE_SHARE * self.args.seconds
        self.opt_times, self.opt_traced_s = [], None
        first = None
        start, i = time.perf_counter(), -1
        while True:
            i += 1
            if i >= MIN_OPTIMIZE_REPEATS and (
                    self.tracer is not None or time.perf_counter() - start >= budget):
                break
            out = self.work_dir / f"rep{i}"
            trace_this = self.tracer is not None and i == 1
            try:
                with SpeedProbe() as probe:
                    t0 = time.perf_counter()
                    if trace_this:
                        report = self.traced(
                            "optimize", lambda: sf.experiment.run_experiment(self.config, out))
                    else:
                        report = sf.experiment.run_experiment(self.config, out)
                    t1 = time.perf_counter()
            except Exception:  # a failed pipeline is a failed operation
                self.operation(f"run_experiment rep{i}", [traceback.format_exc(limit=3)])
                continue
            if trace_this:
                self.opt_probe = probe
            dt, raw = probe.scaled(t0, t1), probe.raw(t0, t1)
            self.raw.setdefault("optimize_s", []).append(
                {"seconds": raw, "speed_factor": dt / raw, "traced": trace_this})
            if trace_this:
                self.opt_traced_s = dt
                self.opt_counts = (self.tracer.counter.score_stage,
                                   self.tracer.counter.starved_queries)
            else:
                self.opt_times.append(dt)

            try:
                fails, cov, logits = self._check_repeat(out, report, first)
            except Exception:  # a check that cannot run fails the operation
                fails, cov, logits = [traceback.format_exc(limit=3)], None, None
            if first is None and not fails:
                first = (self._texts(out), logits, report, cov)
            self.operation(f"run_experiment rep{i}", fails)
            shutil.rmtree(out, ignore_errors=True)
        self.report, self.coverage = (first[2], first[3]) if first else (None, None)

    @staticmethod
    def _texts(out: Path) -> dict[str, str]:
        return {name: (out / name).read_text()
                for name in ("plan.json", "decisions.jsonl", "elements.json")}

    def _check_repeat(self, out: Path, report, first):
        """Output checks of one pipeline repeat against its own artifacts and
        against the first repeat of this invocation."""
        from checks import check_coverage, check_logits, check_plan, coverage

        sf = self.sf
        texts = self._texts(out)
        fails = check_plan(texts["plan.json"], self.config.transformer_config(), report)
        cov = coverage(texts["plan.json"], texts["decisions.jsonl"], texts["elements.json"])
        if not self.args.smoke:
            fails += check_coverage(cov, self.required)
        final = sf.load_checkpoint(out / "model")
        plan = sf.ApproxPlan.from_json(texts["plan.json"])
        with sf.no_grad():
            logits = sf.PlannedModel(final, plan).forward(self.probe_tokens)[0].data
        acc = sf.evaluate_accuracy(final, plan, sf.generate_task(self.config.task).val)
        if acc != report.optimized.accuracy:
            fails.append(f"reloaded model accuracy {acc} != reported "
                         f"{report.optimized.accuracy}")
        if first is None:
            fails += check_logits(logits, logits, "probe")
        else:
            for name in ("plan.json", "decisions.jsonl"):
                if texts[name] != first[0][name]:
                    fails.append(f"{name} differs from repeat 0")
            fails += check_logits(logits, first[1], "probe vs repeat 0")
        return fails, cov, logits

    # -- serve phase ----------------------------------------------------------

    def serve(self):
        from checks import check_logits
        from reference import load as load_reference
        from scenarios import PLAN_NAMES, REFERENCE_BATCH, REFERENCE_SEED, serve_inputs
        from speed import SpeedProbe

        sf = self.sf
        with sf.no_grad():
            # warm-up forwards, untimed; they are the per-seed references
            refs = {name: pm.forward(self.tokens)[0].data
                    for name, pm in self.planned.items()}
            for name, ref in refs.items():
                self.operation(f"forward {name} warm-up", check_logits(ref, ref, name))

        def one_round(store):
            with sf.no_grad():
                for name in PLAN_NAMES:
                    probe.sample()  # one speed sample before every forward
                    t0 = time.perf_counter()
                    logits = self.planned[name].forward(self.tokens)[0]
                    store[name].append((t0, time.perf_counter()))
                    self.operation(f"forward {name}",
                                   check_logits(logits.data, refs[name], name))

        spans = {name: [] for name in PLAN_NAMES}
        traced_spans = {name: [] for name in PLAN_NAMES}
        budget = self.args.seconds * (1 - OPTIMIZE_SHARE)
        start, rounds, faults = time.perf_counter(), 0, 0
        # no timer: an interrupt inside a forward would evict its working set
        with SpeedProbe(timer=False) as probe:
            while rounds < MIN_SERVE_ROUNDS or time.perf_counter() - start < budget:
                if self.tracer is not None and rounds % 2 == 1:
                    self.traced("serve", lambda: one_round(traced_spans))
                else:
                    before = minor_faults()
                    one_round(spans)
                    faults += minor_faults() - before
                rounds += 1
        self.faults_per_round = faults / len(spans["dense"])
        self.fwd = {name: [1e3 * probe.scaled(*s) for s in v] for name, v in spans.items()}
        self.fwd_traced = {name: [1e3 * probe.scaled(*s) for s in v]
                           for name, v in traced_spans.items()}
        self.raw["fwd_ms"] = {
            "median": {name: statistics.median(1e3 * probe.raw(*s) for s in v)
                       for name, v in spans.items()},
            "speed_factor": probe.factor()}

        counter = sf.OpCounter()
        with sf.no_grad():
            self.planned["signmatch"].forward(self.tokens, counter=counter)
        self.serve_counter = (counter.score_stage, counter.starved_queries)
        self.mac_ratios = {name: self.planned["dense"].cost().mac_count / pm.cost().mac_count
                           for name, pm in self.planned.items()}

        stored = load_reference()
        ref_tokens, ref_planned = serve_inputs(REFERENCE_SEED, batch=REFERENCE_BATCH)
        with sf.no_grad():
            for name in PLAN_NAMES:
                logits = ref_planned[name].forward(ref_tokens)[0].data
                self.operation(f"stored reference {name}",
                               check_logits(logits, stored[name], f"{name} vs stored"))

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> dict:
        from scenarios import PLAN_NAMES

        ratios = self.report.ratios
        out = {
            "optimize_s": (self.opt_times, "s"),
            "mac_ratio": (ratios["mac"], "ratio"),
            "bytes_ratio": (ratios["bytes"], "ratio"),
            "acc_delta": (ratios["accuracy_delta"], "fraction"),
        }
        for name in PLAN_NAMES:
            out[f"fwd_ms.{name}"] = (self.fwd[name], "ms")
        out["setup_s"] = (self.setup_s, "s")
        out["success_rate"] = (1 - self.failed / self.attempted, "ratio")
        return out

    def per_layer(self) -> dict:
        from layers import optimize_layers, ratio_layers, serve_layers
        from scenarios import PLAN_NAMES

        # probe samples ran inside whatever span was open: span durations
        # exclude them (leaf-op totals keep theirs, a few percent)
        def busy_ns(start: int, end: int) -> float:
            return 1e9 * self.opt_probe.inside(start / 1e9, end / 1e9)

        out = optimize_layers(*self.phases["optimize"], busy_ns, self.coverage,
                              *self.opt_counts)
        serve_rounds = len(self.fwd_traced["dense"])
        out.update(serve_layers(*self.phases["serve"], serve_rounds))
        med = {name: statistics.median(v) for name, v in self.fwd.items()}
        out.update(ratio_layers(self.mac_ratios, med))
        out["fwd.minor_faults"] = (self.faults_per_round, "count")
        out["fwd.signmatch.score_ops"] = (self.serve_counter[0], "count")
        out["fwd.signmatch.starved_queries"] = (self.serve_counter[1], "count")
        setup_spans = self.phases["setup"][0]
        out["tasks.generate_task_s"] = (
            sum(s[4] - s[3] for s in setup_spans if s[2] == "tasks.generate_task") / 1e9, "s")
        out["trace.overhead_s.optimize"] = (
            self.opt_traced_s - statistics.median(self.opt_times), "s")
        for name in PLAN_NAMES:
            out[f"trace.overhead_ms.fwd.{name}"] = (
                statistics.median(self.fwd_traced[name]) - med[name], "ms")
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal-size inputs for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "slimformer" / "__init__.py").is_file():
        print(f"error: no slimformer sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    allocator_pinned = pin_allocator()
    t0 = time.perf_counter()
    import slimformer as sf
    import_s = time.perf_counter() - t0
    if Path(sf.__file__).resolve().parent != ROOT / "src" / "slimformer":
        print(f"error: imported slimformer from {sf.__file__}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", UserWarning)  # per-resolve plan warnings

    import envinfo

    run = Run(args, sf, import_s)
    run.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run.setup()
        run.optimize()
        run.serve()
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
    if run.report is None:
        print("error: no pipeline repeat completed", file=sys.stderr)
        for failure in run.failures:
            print(failure, file=sys.stderr)
        return 1

    raw = run.per_layer() if args.trace else run.end_to_end()
    metrics, detail = {}, {}
    for name, (value, unit) in raw.items():
        if isinstance(value, list):
            detail[name] = {**timing_stats(value), "unit": unit, "samples": value}
            value = detail[name]["median"]
        metrics[name] = {"value": value, "unit": unit}

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"run": run.run_id, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": {**envinfo.record(ROOT, args.seed),
                              "allocator_pinned": allocator_pinned},
              "coverage": run.coverage, "failures": run.failures, "raw_timings": run.raw,
              "timings": detail, **result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if run.tracer is not None:
        run.tracer.write(OUT_DIR / f"{stem}.spans.jsonl", run.phases)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(record['environment'], sort_keys=True)}")
    print(f"# coverage {json.dumps(run.coverage, sort_keys=True)}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        extra = ""
        if name in detail:
            d = detail[name]
            tail = (f" p{d['tail']['percentile']:g}={d['tail']['value']:.4f}"
                    if d["tail"] else " tail=n/a")
            extra = f"  (median of n={d['n']}{tail})"
        print(f"# {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
