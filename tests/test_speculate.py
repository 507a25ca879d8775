"""Speculative greedy trials: the helper process may change when a trial
result is computed, never what it is."""

import ctypes
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from test_experiment import small_config

import conftest
from slimformer import (ElementQueue, Focus, GreedyAnalyzer, PlannedModel, TaskSpec,
                        TransElement, build_model, compare_baselines, experiment, generate_task,
                        run_experiment, significance, speculate, sweep_thresholds)
from slimformer.elements import FFN_GROUP, KV_GROUP, ffn_block
from slimformer.tensor import no_grad, spawn_rng
from slimformer.training import evaluate_loss, train_epochs

ARTIFACTS = ("plan.json", "decisions.jsonl", "elements.json", "model.bin")
# small_config with a loss bar low enough for runs of plain keeps: its speed
# run speculates two trials, takes one and drops one
KEEPS = {"eps_skip": 0.02}
# small_config with an approximation band every block trial lands in: its
# speed run keeps the working weights throughout, and the helper takes every
# second trial from the second on
BAND = {"eps_skip": 0.05, "eps_approx": 0.3}


def split_allowed() -> bool:
    """The forward's gate for two sequences at the split threshold, grad off."""
    with no_grad():
        return speculate.split_allowed(2, speculate.SPLIT_MIN_VALUES // 2)


def split_forward(monkeypatch):
    """A toy model's no-grad forward of two sequences, split: it leaves the
    split worker running."""
    planned = PlannedModel(build_model(small_config().transformer_config(), 3))
    with monkeypatch.context() as m, no_grad():
        m.setattr(speculate, "SPLIT_MIN_VALUES", 1)
        planned.forward(np.zeros((2, 8), dtype=np.int64))
    assert speculate._worker.proc.is_alive()


def set_helper(monkeypatch, on: bool):
    monkeypatch.setattr(speculate, "helper_allowed", lambda: on)


def speculate_always(monkeypatch):
    """Submit every prediction, not only those made while predictions hold."""
    monkeypatch.setattr(significance._Speculation, "next_request",
                        lambda self, key, predicted: predicted)


@pytest.fixture
def analyzers(monkeypatch):
    """Every GreedyAnalyzer the experiment module builds, in order."""
    made = []

    class Recording(GreedyAnalyzer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(experiment, "GreedyAnalyzer", Recording)
    return made


@pytest.fixture
def one_helper(monkeypatch):
    """Fail if a submit ever leaves more than one child process alive."""
    submit = speculate.Helper.submit

    def checked(self, key, compute):
        submit(self, key, compute)
        assert len(multiprocessing.active_children()) <= 1

    monkeypatch.setattr(speculate.Helper, "submit", checked)


def helpers() -> list:
    """Live child processes other than the split worker."""
    split = speculate._worker and speculate._worker.proc
    return [p for p in multiprocessing.active_children() if p is not split]


def artifacts(config, out: Path) -> dict:
    run_experiment(config, out)
    assert helpers() == []
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def off_then_on(monkeypatch, tmp_path, config) -> tuple[dict, dict]:
    set_helper(monkeypatch, False)
    off = artifacts(config, tmp_path / "off")
    set_helper(monkeypatch, True)
    return off, artifacts(config, tmp_path / "on")


@pytest.mark.parametrize("focus", list(Focus))
def test_artifacts_identical_with_helper_off_and_on(monkeypatch, tmp_path, one_helper,
                                                     focus):
    off, on = off_then_on(monkeypatch, tmp_path, small_config(focus))
    assert on == off


def test_speed_run_takes_and_drops_speculations(monkeypatch, tmp_path, analyzers,
                                                one_helper):
    off, on = off_then_on(monkeypatch, tmp_path, small_config(**KEEPS))
    assert on == off
    unaided, aided = analyzers
    assert unaided.speculated == 0
    assert aided.speculation_hits >= 1
    assert aided.speculated > aided.speculation_hits  # one prediction failed


def test_in_band_block_trials_speculated_from_the_first(monkeypatch, tmp_path, analyzers,
                                                        one_helper):
    """While the first block trial runs, the helper trains the second one on
    the plan the first one's landing in the band yields; the loop takes it."""
    taken = []
    take = speculate.Helper.take

    def recording(self, key):
        result = take(self, key)
        if result is not None:
            taken.append(key)
        return result

    monkeypatch.setattr(speculate.Helper, "take", recording)
    off, on = off_then_on(monkeypatch, tmp_path, small_config(**BAND))
    assert on == off
    records = [r for r in analyzers[1].records if r["train_loss"] is not None]
    blocks = [r for r in records if r["element"].startswith(("attn_block", "ffn_block"))]
    assert len(blocks) == 4 and all(r["decision"] == "approximate" for r in blocks)
    el, step, generation = taken[0][:3]
    assert (el.key, step, generation) == (blocks[1]["element"], 1, 0)
    assert [key[1] for key in taken] == list(range(1, len(records), 2))


@pytest.mark.parametrize("focus", [Focus.SPEED, Focus.SIZE])
def test_every_prediction_holds_on_the_band(monkeypatch, tmp_path, analyzers, one_helper,
                                            focus):
    """With every trial's losses on the approximation bars, each prediction
    names the request that follows, so the helper takes every second trial
    from the second on. Under speed focus that spans both phases of each
    shrink scan (the top trial is predicted while the bottom one runs) and
    a scan's close, which writes no record, before the next element."""
    taken = []
    take = speculate.Helper.take

    def recording(self, key):
        result = take(self, key)
        if result is not None:
            taken.append(key[1])
        return result

    def on_the_bars(self, work, candidate, step):
        return (*self._approx, work)

    monkeypatch.setattr(speculate.Helper, "take", recording)
    monkeypatch.setattr(GreedyAnalyzer, "_train", on_the_bars)
    off, on = off_then_on(monkeypatch, tmp_path, small_config(focus, **BAND))
    assert on == off
    trials = [r for r in analyzers[1].records if r["train_loss"] is not None]
    assert taken == list(range(1, len(trials), 2))
    actions = {trials[step]["tentative_action"] for step in taken}
    assert actions == ({"skip", "shrink_prune_top"} if focus == Focus.SPEED else {"skip"})


def test_other_generation_never_submitted(monkeypatch, tmp_path, analyzers):
    """A prediction made for weights the helper would not inherit is not
    handed to it."""
    def other_weights(self, key, predicted):
        if predicted is not None:
            el, candidate, step, generation = predicted
            return el, candidate, step, generation + 1
        return None

    set_helper(monkeypatch, False)
    off = artifacts(small_config(**BAND), tmp_path / "off")
    set_helper(monkeypatch, True)
    monkeypatch.setattr(significance._Speculation, "next_request", other_weights)
    monkeypatch.setattr(speculate.Helper, "submit", None)  # a submit would fail the run
    assert artifacts(small_config(**BAND), tmp_path / "on") == off
    assert analyzers[1].speculated == 0


def test_comparison_rows_identical(monkeypatch):
    def rows():
        result = compare_baselines(small_config(**KEEPS))
        for row in result["rows"]:
            del row["analysis_seconds"]
        return result

    set_helper(monkeypatch, False)
    off = rows()
    set_helper(monkeypatch, True)
    assert rows() == off
    assert multiprocessing.active_children() == []


def test_forced_misprediction_is_dropped(monkeypatch, tmp_path, analyzers, one_helper):
    """Every helper runs a request one RNG step off the one that comes next."""
    def wrong(self, key, predicted):
        if predicted is not None:
            el, candidate, step, generation = predicted
            return el, candidate, step + 1, generation
        return None

    set_helper(monkeypatch, False)
    off = artifacts(small_config(**KEEPS), tmp_path / "off")
    set_helper(monkeypatch, True)
    monkeypatch.setattr(significance._Speculation, "next_request", wrong)
    assert artifacts(small_config(**KEEPS), tmp_path / "on") == off
    assert analyzers[1].speculated > 0 and analyzers[1].speculation_hits == 0


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_failed_helper_falls_back_in_process(monkeypatch, tmp_path, analyzers, failure):
    train = GreedyAnalyzer._train

    def failing(self, work, candidate, step):
        if multiprocessing.parent_process() is None:  # this process: train
            return train(self, work, candidate, step)
        if failure == "raises":
            raise RuntimeError("helper failure")
        os.kill(os.getpid(), signal.SIGKILL)

    set_helper(monkeypatch, False)
    off = artifacts(small_config(**KEEPS), tmp_path / "off")
    set_helper(monkeypatch, True)
    speculate_always(monkeypatch)
    monkeypatch.setattr(GreedyAnalyzer, "_train", failing)
    assert artifacts(small_config(**KEEPS), tmp_path / "on") == off
    assert analyzers[1].speculated > 0 and analyzers[1].speculation_hits == 0


def test_weights_generation_guards_a_restored_plan(monkeypatch, tiny_config,
                                                  majority_data):
    """A shrink scan of a skipped block ends with the plan it started
    from, whether its last trial is accepted or not; only the weights tell
    the two outcomes apart. The helper, started on the next element while
    that last trial runs, assumes it rejected, so its result must be
    dropped when the trial is accepted."""
    kv = TransElement(KV_GROUP, 1, 0)
    g0, g1 = (TransElement(FFN_GROUP, 0, g) for g in (0, 1))

    def fake(self, work, candidate, step):
        accepted = work.layers[1].wq.data[0, 0]  # trials whose weights were adopted
        tuned = work.clone()
        tuned.layers[1].wq.data[0, 0] += 1.0
        if kv in candidate.skiplist:  # passes only on the weights of 3 accepts
            loss = 0.5 if accepted == 3 else 2.0
        else:  # the bottom scan stops at once, the top scan empties the block
            loss = 2.0 if g0 in candidate.skiplist and g1 not in candidate.skiplist else 0.5
        return loss, loss, tuned

    def run(on: bool):
        set_helper(monkeypatch, on)
        queue = ElementQueue([ffn_block(0), g0, kv])
        analyzer = GreedyAnalyzer(model, majority_data, (1.0, 1.0), Focus.SPEED, 0,
                                  encompass_enabled=False)
        analyzer.run(queue)
        return analyzer

    model = build_model(tiny_config, 3)
    model.layers[1].wq.data[0, 0] = 0.0
    monkeypatch.setattr(GreedyAnalyzer, "_train", fake)
    speculate_always(monkeypatch)
    off, on = run(False), run(True)
    assert [r["decision"] for r in off.records] == ["skip", "keep", "skip", "skip", "skip"]
    assert on.records == off.records
    assert on.speculated > on.speculation_hits


def test_no_helper_outlives_run(monkeypatch, tiny_config, majority_data, one_helper):
    """A scan whose last trial is accepted ends the run while the helper
    still trains the top-down trial a rejection would have led to."""
    def fake(self, work, candidate, step):
        if multiprocessing.parent_process() is not None:
            time.sleep(60)
        return 0.5, 0.5, work

    set_helper(monkeypatch, True)
    speculate_always(monkeypatch)
    monkeypatch.setattr(GreedyAnalyzer, "_train", fake)
    analyzer = GreedyAnalyzer(build_model(tiny_config, 3), majority_data, (1.0, 1.0),
                              Focus.SPEED, 0)
    analyzer.run(ElementQueue([TransElement(FFN_GROUP, 0, 0)]))
    assert [r["decision"] for r in analyzer.records] == ["skip", "skip"]
    assert analyzer.speculated == 2 and analyzer.speculation_hits == 0
    assert multiprocessing.active_children() == []


def test_direct_shrink_stays_serial(monkeypatch, tiny_config, majority_data):
    set_helper(monkeypatch, True)
    monkeypatch.setattr(speculate, "Helper", None)  # a speculating run would fail
    model = build_model(tiny_config, 3)
    tl = evaluate_loss(model, None, majority_data.train)
    vl = evaluate_loss(model, None, majority_data.val)
    analyzer = GreedyAnalyzer(model, majority_data, (tl * 0.5, vl * 0.5), Focus.SPEED, 0)
    assert analyzer.shrink(ffn_block(0)) == (0, 2)  # both scan phases fail at once
    assert len(analyzer.records) == 2


def test_warnings_unchanged_by_helper(monkeypatch, causal_config):
    """Trials that prune early key/value positions of a causal model warn
    once per request from the analyzer's own plan check, helper or not; the
    helper and the prediction add none."""
    data = generate_task(TaskSpec("toy_lm", vocab_size=5, context_len=8,
                                  train_size=64, seed=5))
    model = build_model(causal_config, 5)
    train_epochs(model, None, data.train, 2, spawn_rng(5, 0), lr=0.01)
    tl = evaluate_loss(model, None, data.train)
    vl = evaluate_loss(model, None, data.val)

    def run(on: bool):
        set_helper(monkeypatch, on)
        queue = ElementQueue([TransElement(KV_GROUP, layer, g)
                              for g in (0, 1) for layer in (1, 0)])
        # bars at half the baseline: every trial is a plain keep
        analyzer = GreedyAnalyzer(model, data, (tl * 0.5, vl * 0.5), Focus.SPEED, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analyzer.run(queue)
        own = Counter(str(w.message) for w in caught
                      if Path(w.filename).name == "significance.py")
        return {str(w.message) for w in caught}, own, analyzer

    speculate_always(monkeypatch)
    off_messages, off_own, _ = run(False)
    on_messages, on_own, analyzer = run(True)
    assert analyzer.speculation_hits >= 1
    assert off_messages and on_messages == off_messages
    assert on_own == off_own and sum(off_own.values()) == 2


def test_sweep_pool_capped_at_available_cpus(monkeypatch, tmp_path):
    """A huge worker request asks the pool for the CPUs there are; a
    recording stand-in runs the pool's work in this process."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    config, pairs = small_config(), [0.1, 0.3]
    sweep_thresholds(config, pairs, tmp_path / "serial")
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "available_cpus", lambda: 3)
    sweep_thresholds(config, pairs, tmp_path / "pool", workers=10 ** 6)
    assert requested == [3]
    assert ((tmp_path / "pool" / "sweep.csv").read_bytes()
            == (tmp_path / "serial" / "sweep.csv").read_bytes())


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy's wheel bundles, if found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                return getattr(handle, name)()
    return None


def test_blas_pinned_before_numpy_loaded():
    assert not conftest.NUMPY_LOADED_BEFORE_PIN
    assert speculate.blas_threads(speculate.available_cpus()) == 1
    assert openblas_threads() in (None, 1)


@pytest.mark.parametrize("env, cpus, allowed", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OMP_NUM_THREADS": "2"}, 4, True),
    ({}, 2, False),            # unset: BLAS on every CPU
    ({"OMP_NUM_THREADS": "x"}, 8, False),
])
def test_gate_needs_twice_the_blas_threads(monkeypatch, env, cpus, allowed):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(speculate, "available_cpus", lambda: cpus)
    assert speculate.helper_allowed() is allowed
    assert split_allowed() is allowed


def test_gate_closed_in_pool_workers(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(speculate, "available_cpus", lambda: 64)
    assert speculate.helper_allowed() and split_allowed()
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert not speculate.helper_allowed()
    assert not split_allowed()


def test_gate_closed_while_a_child_lives(monkeypatch):
    """A live helper holds the spare CPU: neither a second helper nor a
    split forward may use it."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(speculate, "available_cpus", lambda: 64)
    monkeypatch.setattr(multiprocessing, "active_children", lambda: [object()])
    assert not speculate.helper_allowed()
    assert not split_allowed()


def test_split_gate_needs_no_grad_two_sequences_and_the_threshold(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(speculate, "available_cpus", lambda: 64)
    least = speculate.SPLIT_MIN_VALUES
    assert split_allowed()
    assert not speculate.split_allowed(2, least)  # grad on
    with no_grad():
        assert not speculate.split_allowed(2, least // 2 - 1)
        assert not speculate.split_allowed(1, least)


def test_gate_closed_beside_other_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(speculate, "available_cpus", lambda: 64)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not speculate.helper_allowed()
    assert split_allowed()  # a running split worker serves any thread


def test_split_worker_leaves_the_gates_open(monkeypatch):
    """The split worker is the only child alive after a split forward; it
    holds the spare CPU for later forwards, not against a helper."""
    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    split_forward(monkeypatch)
    assert multiprocessing.active_children() == [speculate._worker.proc]
    assert speculate.helper_allowed() and split_allowed()


def test_open_helper_owns_the_spare_cpu(monkeypatch):
    """While a helper is open no forward splits, and its first submit stops
    the split worker before it forks."""
    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    split_forward(monkeypatch)
    worker = speculate._worker
    with speculate.Helper() as helper:
        assert not split_allowed()
        assert speculate._worker is worker
        helper.submit("key", lambda: 7)
        assert speculate._worker is None and helpers() == [helper._proc]
        assert helper.take("key") == 7
    assert split_allowed() and helpers() == []


def test_speculating_run_owns_the_spare_cpu(monkeypatch, tmp_path, analyzers):
    """From start to end of a speculating greedy run no forward splits and
    no split worker starts, though every no-grad forward of the run passes
    the split threshold; the worker from an earlier forward is stopped."""
    events, left = [], []  # left: the split worker at the run's end
    split, start, run = (PlannedModel._split_logits, speculate._SplitWorker.__init__,
                         GreedyAnalyzer.run)

    def recording_split(self, tokens, counter):
        events.append("split")
        return split(self, tokens, counter)

    def recording_start(self, size):
        events.append("fork")
        start(self, size)

    def recording_run(self, queue):
        events.append("run")
        try:
            return run(self, queue)
        finally:
            events.append("end")
            left.append(speculate._worker)

    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    monkeypatch.setattr(speculate, "SPLIT_MIN_VALUES", 1)  # a toy model's batches too
    monkeypatch.setattr(PlannedModel, "_split_logits", recording_split)
    monkeypatch.setattr(speculate._SplitWorker, "__init__", recording_start)
    monkeypatch.setattr(GreedyAnalyzer, "run", recording_run)
    split_forward(monkeypatch)
    artifacts(small_config(**KEEPS), tmp_path)
    inside = events[events.index("run") + 1:events.index("end")]
    assert "split" in events[:events.index("run")]  # the baseline's evaluations split
    assert inside == [] and left == [None]
    [analyzer] = analyzers
    assert analyzer.speculated > analyzer.speculation_hits >= 1  # a trial ran here alone


def test_speculation_unchanged_by_split_forward(monkeypatch, tmp_path, analyzers):
    """Split forwards in the baseline's evaluations leave the split worker
    running, which the greedy loop's real gate does not count as a helper;
    the loop's speculations are the same with the split on or off."""
    splits = []
    split = PlannedModel._split_logits

    def recording(self, tokens, counter):
        splits.append(tokens.shape[0])
        return split(self, tokens, counter)

    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    monkeypatch.setattr(speculate, "SPLIT_MIN_VALUES", 1)  # a toy model's batches too
    monkeypatch.setattr(PlannedModel, "_split_logits", recording)
    config = small_config(**KEEPS)
    with monkeypatch.context() as m:
        m.setattr(speculate, "split_allowed", lambda batch, values: False)
        off = artifacts(config, tmp_path / "off")
    assert splits == []
    on = artifacts(config, tmp_path / "on")
    assert splits and on == off
    serial, split_on = analyzers
    assert split_on.speculated == serial.speculated > 0
    assert split_on.speculation_hits == serial.speculation_hits > 0


FRESH_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from test_experiment import small_config
from slimformer import experiment, run_experiment, speculate
speculate.available_cpus = lambda: 2
made = []
class Recording(experiment.GreedyAnalyzer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        made.append(self)
experiment.GreedyAnalyzer = Recording
run_experiment(small_config(**json.loads(sys.argv[3])), sys.argv[4])
print(json.dumps([(a.speculated, a.speculation_hits) for a in made]))
"""


def test_speculation_after_split_forward_as_in_a_fresh_process(monkeypatch, tmp_path,
                                                               analyzers):
    """A speed run started while the split worker from an earlier forward
    still runs speculates and takes helper results as it does in a fresh
    process, with the same artifacts."""
    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    split_forward(monkeypatch)
    here = artifacts(small_config(**KEEPS), tmp_path / "here")
    tests = Path(__file__).resolve().parent
    fresh = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tests.parent / "src"), str(tests),
         json.dumps(KEEPS), str(tmp_path / "fresh")],
        capture_output=True, text=True, timeout=300, check=True)
    assert [list(pair) for pair in json.loads(fresh.stdout)] == [
        [a.speculated, a.speculation_hits] for a in analyzers]
    assert analyzers[0].speculation_hits >= 1
    assert here == {name: (tmp_path / "fresh" / name).read_bytes() for name in ARTIFACTS}
