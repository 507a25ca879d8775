"""Print the sha256 of the determinism fixtures' audit artifacts.

    python3 tools/fixture_hashes.py [--root CHECKOUT] [--against CHECKOUT]

Runs ``run_experiment`` on five fixed configs, each into a temporary
directory, and prints one line per fixture and artifact
(``plan.json``, ``decisions.jsonl``, ``model.bin`` and ``elements.json``, the
final queue and the encompass-filter removal log):
``<fixture> <artifact> <sha256>``, then ``<fixture> manifest <sha256>``: the
hash of the final checkpoint's manifest, ``model.json``, so the checkpoint
format stays pinned, then ``<fixture> config <sha256>``: the hash of the
run's ``config.json``, so the config document format stays pinned, then
``<fixture> views <sha256>``: a hash
over the per-layer ``LayerView`` that ``plan.json`` resolves to (skip flags,
liveness masks, sign-match k, quantization bits), so a change that rewrites
the plan's form can show that it executes the same model, and
``<fixture> choices <sha256>``: a hash over ``decisions.jsonl`` with each
record's ``train_loss``, ``val_loss`` and ``thresholds`` removed, so a change
that moves losses in the last bits can show that every element, decision,
action and approximation held, and ``<fixture> speculation
<speculated>:<taken>:<trials>``: the greedy trials handed to the speculative
helper, the helper results the loop took and the trials run, so a change to
the loop's prediction can show that the helper does the same work (the first
two read 0 where no helper may run, as on one CPU), and ``<fixture> cost
baseline <mac>:<params>:<bytes>`` and ``<fixture> cost optimized ...``: the
``mac_count``, ``param_count`` and ``bytes`` of ``report.json``'s two
bundles (the report itself holds wall times and is not hashed), so a change
to the cost model can show that every count held. The fixtures are
``tests/test_experiment.py::small_config`` under speed, size and accuracy
focus (``small_speed``, ``small_size``, ``small_accuracy``) and
``perfbench/scenarios.optimize_config("speed")`` and ``("size")``
(``bench_speed``, ``bench_size``). Each small fixture also prints
``<fixture> comparison <sha256>``: a hash over the ``compare_baselines``
result (baseline and all four comparator rows) with each row's wall-time
``analysis_seconds`` removed. Then come ``serve <plan> logits <sha256>``
lines, one per plan in ``perfbench/scenarios.PLAN_NAMES``: a hash over the
logits of the no-grad ``PlannedModel.forward`` on ``serve_inputs(1)``, so a
change to the forward kernels can show that it serves the same bits, then
``serve <plan> counts <sha256>`` lines: a hash over the ``OpCounter``
fields of that same forward (sign-match work and queries that see no
key), so it can show that it does the same counted work, then ``serve
<plan> cost <mac>:<params>:<bytes>`` lines: that plan's ``cost()``, and
``serve headless cost <mac>:<params>:<bytes>``: the cost of a serve-shape
plan that skips every head of layer 0 and every FFN weight group of layer
1, so that the parameters a headless attention block and an FFN without
live input rows read stay pinned. Last
come ``train <plan> weights <sha256>`` lines, one per plan kind, at the copy
shape of ``perfbench/scenarios.optimize_config("speed")``: a hash over a
fixed model's weights after one epoch of ``train_epochs`` under that plan
on the first ``TRAIN_SEQUENCES`` sequences of its task, so a change to the
training step can show that it trains the same bits under every kind of
plan, not only the plans the fixtures happen to visit; the last,
``train signmatch_kvprune weights``, is the ``kvprune`` plan with
``SignMatch(8)`` on both attention blocks, which keeps all 5 live keys of
each, so its digest must equal ``train kvprune weights``. A change that
claims the same behaviour must print the same lines as its parent:
``--against PARENT`` runs the script on both checkouts, side by side in
two processes when at least four CPUs are available and one after the
other otherwise (each run may use two: its own and a speculative greedy
trial's), prints only the
lines that differ (``-`` PARENT's, ``+`` the ``--root`` checkout's) and
exits 1 on any difference, 0 when every line is equal (2 when a run
fails). The package, the tests and the benchmark scenarios are all
imported from ``--root`` (default: the checkout that holds this script);
nothing is written there.
BLAS runs on one thread, as in the benchmark. Takes about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

ARTIFACTS = ("plan.json", "decisions.jsonl", "model.bin", "elements.json")
TRAIN_SEQUENCES = 109  # three full training batches and an odd one


def fixtures(root: Path) -> list:
    """(name, ExperimentConfig) pairs, imported from the checkout at root."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(root / sub))
    from scenarios import optimize_config
    from test_experiment import small_config

    from slimformer import Focus
    return ([(f"small_{focus}", small_config(Focus(focus)))
             for focus in ("speed", "size", "accuracy")]
            + [(f"bench_{focus}", optimize_config(focus)) for focus in ("speed", "size")])


def recorded_analyzers() -> list:
    """Every GreedyAnalyzer the experiment module builds from here on, in
    order, as ``tests/test_speculate.py::analyzers`` records them."""
    from slimformer import GreedyAnalyzer, experiment
    made = []

    class Recording(GreedyAnalyzer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    experiment.GreedyAnalyzer = Recording
    return made


def views_digest(plan_json: str, config) -> str:
    """sha256 over what the resolved views of a plan execute."""
    from slimformer import ApproxPlan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # plan warnings are not part of the views
        views = ApproxPlan.from_json(plan_json).resolve(config.transformer_config())
    doc = [{"attn_skipped": v.attn_skipped, "ffn_skipped": v.ffn_skipped,
            "head_live": v.head_live.tolist(), "kv_live": v.kv_live.tolist(),
            "qkv_live": v.qkv_live.tolist(), "ffn_live": v.ffn_live.tolist(),
            "signmatch_k": v.signmatch_k,
            "quant_bits": {m: bits.tolist() for m, bits in v.quant_bits.items()}}
           for v in views]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def choices_digest(decisions: str) -> str:
    """sha256 over decisions.jsonl without its losses and loss bars."""
    records = [json.loads(line) for line in decisions.splitlines()]
    for rec in records:
        for key in ("train_loss", "val_loss", "thresholds"):
            del rec[key]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def comparison_digest(config) -> str:
    """sha256 over compare_baselines' result without its wall times."""
    from slimformer import compare_baselines
    result = compare_baselines(config)
    for row in result["rows"]:
        del row["analysis_seconds"]
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def cost_line(doc: dict) -> str:
    """``<mac>:<params>:<bytes>`` of a cost or metrics document."""
    return f"{doc['mac_count']}:{doc['param_count']}:{doc['bytes']}"


def serve_digests() -> dict:
    """Per serve plan, sha256 over the logits of a counted no-grad forward
    on serve_inputs(1) and over that forward's OpCounter fields, and the
    plan's cost line."""
    from scenarios import PLAN_NAMES, serve_inputs

    from slimformer import OpCounter, no_grad
    tokens, planned = serve_inputs(1)
    digests = {}
    with no_grad():
        for name in PLAN_NAMES:
            counter = OpCounter()
            logits = planned[name].forward(tokens, counter=counter)[0]
            digests[name] = (hashlib.sha256(logits.data.tobytes()).hexdigest(),
                             hashlib.sha256(json.dumps(asdict(counter), sort_keys=True)
                                            .encode()).hexdigest(),
                             cost_line(asdict(planned[name].cost())))
    return digests


def headless_cost() -> str:
    """The cost line of a serve-shape plan with a headless attention block
    (layer 0) and an FFN without live input rows (layer 1)."""
    from scenarios import serve_config

    from slimformer import FFN_GROUP, HEAD, ApproxPlan, PlannedModel, TransElement, build_model
    cfg = serve_config()
    plan = ApproxPlan([TransElement(HEAD, 0, h) for h in range(cfg.num_heads)]
                      + [TransElement(FFN_GROUP, 1, g) for g in range(cfg.num_weight_groups)])
    return cost_line(asdict(PlannedModel(build_model(cfg, 0), plan).cost()))


def train_digests() -> dict:
    """Per serve plan kind, adapted to the copy shape, and for the kvprune
    plan with every attention block sign-matched, sha256 over a fixed
    model's parameters after one epoch of train_epochs under that plan."""
    from scenarios import PLAN_NAMES, optimize_config, serve_plans

    from slimformer import (ATTN_BLOCK, KV_GROUP, ApproxPlan, SignMatch, TransElement,
                            build_model, generate_task, make_rng, train_epochs)
    config = optimize_config("speed")
    tcfg = config.transformer_config()
    plans = serve_plans(tcfg)
    # the copy context has three key/value groups; prune the later two
    plans["kvprune"] = ApproxPlan(TransElement(KV_GROUP, layer, g)
                                  for layer in range(tcfg.num_layers) for g in (1, 2))
    # SignMatch(8) keeps all 5 live keys of each block: kvprune's bits
    plans["signmatch_kvprune"] = plans["kvprune"]
    for layer in range(tcfg.num_layers):
        plans["signmatch_kvprune"] = plans["signmatch_kvprune"].with_approx(
            TransElement(ATTN_BLOCK, layer), SignMatch(config.sign_match_k))
    data = generate_task(config.task).train.subset(slice(0, TRAIN_SEQUENCES))
    digests = {}
    for name in (*PLAN_NAMES, "signmatch_kvprune"):
        model = build_model(tcfg, config.seed)
        train_epochs(model, plans[name], data, 1, make_rng(0), lr=config.lr,
                     batch_size=config.batch_size)
        weights = b"".join(t.data.tobytes() for _, t in model.named_parameters())
        digests[name] = hashlib.sha256(weights).hexdigest()
    return digests


def compare(root: Path, against: Path) -> int:
    """Print the lines of the two checkouts' outputs that differ; 1 if any do."""
    def run(checkout: Path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, __file__, "--root", str(checkout)],
                              capture_output=True, text=True)

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(2 if cpus >= 4 else 1) as pool:
        runs = list(pool.map(run, (against, root)))
    for checkout, proc in zip((against, root), runs):
        if proc.returncode:
            print(f"{checkout}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
    old, new = ({line.rsplit(" ", 1)[0]: line for line in proc.stdout.splitlines()}
                for proc in runs)
    keys = list(dict.fromkeys([*old, *new]))
    differ = [key for key in keys if old.get(key) != new.get(key)]
    for key in differ:
        for sign, lines in (("-", old), ("+", new)):
            if key in lines:
                print(f"{sign} {lines[key]}")
    print(f"{len(differ)} of {len(keys)} lines differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/, tests/ and perfbench/ are used")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="run CHECKOUT too; print only the lines that differ")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.root.resolve(), args.against.resolve())
    # before numpy is first imported, which fixes the BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    configs = fixtures(args.root.resolve())
    from slimformer import run_experiment
    analyzers = recorded_analyzers()
    for name, config in configs:
        analyzers.clear()
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(config, Path(tmp))
            for artifact in ARTIFACTS:
                digest = hashlib.sha256((Path(tmp) / artifact).read_bytes()).hexdigest()
                print(f"{name} {artifact} {digest}", flush=True)
            manifest = hashlib.sha256((Path(tmp) / "model.json").read_bytes()).hexdigest()
            print(f"{name} manifest {manifest}", flush=True)
            doc = hashlib.sha256((Path(tmp) / "config.json").read_bytes()).hexdigest()
            print(f"{name} config {doc}", flush=True)
            views = views_digest((Path(tmp) / "plan.json").read_text(), config)
            print(f"{name} views {views}", flush=True)
            choices = choices_digest((Path(tmp) / "decisions.jsonl").read_text())
            print(f"{name} choices {choices}", flush=True)
            report = json.loads((Path(tmp) / "report.json").read_text())
            for bundle in ("baseline", "optimized"):
                print(f"{name} cost {bundle} {cost_line(report[bundle])}", flush=True)
        counts = [sum(a.speculated for a in analyzers), sum(a.speculation_hits for a in analyzers),
                  sum(r["train_loss"] is not None for a in analyzers for r in a.records)]
        print(f"{name} speculation {':'.join(map(str, counts))}", flush=True)
        if name.startswith("small_"):
            print(f"{name} comparison {comparison_digest(config)}", flush=True)
    digests = serve_digests()
    for name, (logits, _, _) in digests.items():
        print(f"serve {name} logits {logits}", flush=True)
    for name, (_, counts, _) in digests.items():
        print(f"serve {name} counts {counts}", flush=True)
    for name, (_, _, cost) in digests.items():
        print(f"serve {name} cost {cost}", flush=True)
    print(f"serve headless cost {headless_cost()}", flush=True)
    for name, weights in train_digests().items():
        print(f"train {name} weights {weights}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
