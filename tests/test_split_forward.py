"""The split no-grad forward: with grad off, a large batch runs its second
half in the split worker, one long-lived forked process. Logits, losses
and counters are the bits of one pass over the whole batch, whatever
happens to the worker, and the worker leaves no process behind."""

import gc
import multiprocessing
import os
import pickle
import signal
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from test_bench_contract import load

from slimformer import (OpCounter, PlanError, PlannedModel, TaskSpec, TransformerConfig,
                        build_model, generate_task, speculate)
from slimformer.tensor import no_grad

scenarios = load("scenarios")
COPY_CONFIG = scenarios.optimize_config("speed")
SRC = Path(__file__).resolve().parents[1] / "src"


def min_batch(config: TransformerConfig) -> int:
    """Fewest sequences whose no-grad forward splits under ``config``."""
    return -(-speculate.SPLIT_MIN_VALUES // (config.context_len * config.hidden_dim))


MIN = min_batch(COPY_CONFIG.transformer_config())  # copy-task sequences


@pytest.fixture
def splits(monkeypatch):
    """The batch of every split forward, with the spare CPU free whatever
    this machine has; ``splits.taken`` records whether the worker took
    each half handed to it."""
    made = Recorded()
    split, submit = PlannedModel._split_logits, speculate._SplitWorker.submit

    def recording(self, tokens, counter):
        made.append(tokens.shape[0])
        return split(self, tokens, counter)

    def submitting(self, *args):
        made.taken.append(submit(self, *args))
        return made.taken[-1]

    monkeypatch.setattr(speculate, "spare_cpu_free", lambda: True)
    monkeypatch.setattr(PlannedModel, "_split_logits", recording)
    monkeypatch.setattr(speculate._SplitWorker, "submit", submitting)
    return made


class Recorded(list):
    """A list of records with side lists."""

    def __init__(self):
        super().__init__()
        self.taken, self.threads = [], []


@pytest.fixture
def starts(monkeypatch):
    """Every split worker started in this process; ``starts.threads``
    records every thread."""
    made = Recorded()
    init, start = speculate._SplitWorker.__init__, threading.Thread.start

    def forking(self, size):
        init(self, size)
        made.append(self)

    def counting(self):
        made.threads.append(self)
        start(self)

    monkeypatch.setattr(speculate._SplitWorker, "__init__", forking)
    monkeypatch.setattr(threading.Thread, "start", counting)
    return made


def serial_and_split(monkeypatch, planned, tokens, labels=None, with_counter=False):
    """(serial, gated) results of a no-grad forward, each as (logits, loss,
    counter): serial with the split gate closed, gated with the gate as it is."""
    def run():
        counter = OpCounter() if with_counter else None
        with no_grad():
            logits, loss = planned.forward(tokens, labels, counter=counter)
        assert not logits.requires_grad and (loss is None or not loss.requires_grad)
        return logits.data, None if loss is None else loss.data, counter

    with monkeypatch.context() as m:
        m.setattr(speculate, "split_allowed", lambda batch, values: False)
        serial = run()
    return serial, run()


def copy_task(batch: int):
    """The benchmark's copy-task model and `batch` labelled sequences."""
    spec = TaskSpec("copy", COPY_CONFIG.task.vocab_size, COPY_CONFIG.task.context_len,
                    train_size=2 * batch, seed=3)
    data = generate_task(spec).train
    model = build_model(COPY_CONFIG.transformer_config(), 4)
    return PlannedModel(model), data.tokens[:batch], data.labels[:batch]


def forward(planned, tokens):
    with no_grad():
        return planned.forward(tokens)[0].data


@pytest.mark.parametrize("plan", scenarios.PLAN_NAMES)
def test_serve_plans_bit_identical(monkeypatch, splits, plan):
    tokens, planned = scenarios.serve_inputs(1)
    serial, split = serial_and_split(monkeypatch, planned[plan], tokens, with_counter=True)
    assert splits == [len(tokens)] and splits.taken == [True]
    assert np.array_equal(split[0], serial[0])
    assert split[2] == serial[2]  # the worker's counts merged into the caller's
    if plan == "signmatch":
        assert serial[2].score_stage > 0 and serial[2].starved_queries > 0


def test_classification_head_bit_identical(monkeypatch, splits):
    config = TransformerConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                               context_len=16, vocab_size=6, task_kind="classification",
                               num_classes=5, weight_group_width=8, kv_group_width=4)
    batch = 2 * min_batch(config) + 1
    data = generate_task(TaskSpec("majority_classification", vocab_size=5,
                                  context_len=16, train_size=2 * batch, seed=21)).train
    tokens, labels = data.tokens[:batch], data.labels[:batch]
    planned = PlannedModel(build_model(config, 7))
    serial, split = serial_and_split(monkeypatch, planned, tokens, labels)
    assert splits == [batch] and splits.taken == [True]
    assert np.array_equal(split[0], serial[0])
    assert np.array_equal(split[1], serial[1])


@pytest.mark.parametrize("batch", [MIN - 1, MIN, MIN + 1, 2 * MIN + 3])
def test_copy_task_loss_bit_identical(monkeypatch, splits, batch):
    """Below the threshold the forward stays serial; at it and above, odd
    batches included, the halves give the serial bits."""
    planned, tokens, labels = copy_task(batch)
    serial, split = serial_and_split(monkeypatch, planned, tokens, labels)
    assert splits == ([] if batch < MIN else [batch])
    assert splits.taken == [True] * len(splits)
    assert np.array_equal(split[0], serial[0])
    assert np.array_equal(split[1], serial[1])


@pytest.mark.parametrize("batch", [MIN - 1, MIN + 1])
def test_no_grad_loss_path_keeps_the_split(monkeypatch, splits, batch):
    """``PlannedModel.loss`` splits where ``forward`` would and gives the
    bits of the serial forward's loss; below the threshold it runs its
    read rows here, with the same bits."""
    planned, tokens, labels = copy_task(batch)
    with no_grad():
        with monkeypatch.context() as m:
            m.setattr(speculate, "split_allowed", lambda batch, values: False)
            serial = planned.forward(tokens, labels)[1].data
        loss = planned.loss(tokens, labels).data
    assert splits == ([] if batch < MIN else [batch])
    assert splits.taken == [True] * len(splits)
    assert loss.tobytes() == serial.tobytes()


def test_concurrent_split_forwards_bit_identical(monkeypatch, splits):
    """Four callers split at once under a short switch interval: one takes
    the worker, the others run their whole batch, and every caller gets
    the serial bits."""
    tokens, planned = scenarios.serve_inputs(1)
    (serial, _, _), _ = serial_and_split(monkeypatch, planned["signmatch"], tokens)
    results = [None] * 4

    def call(i):
        results[i] = forward(planned["signmatch"], tokens)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(splits) == 1 + 4 and splits.taken[0] and 1 <= len(splits.taken) <= 5
    assert all(np.array_equal(r, serial) for r in results)


def test_grad_enabled_forward_starts_nothing(splits, starts):
    planned, tokens, labels = copy_task(2 * MIN)
    logits, loss = planned.forward(tokens, labels)
    assert loss.requires_grad
    assert splits == [] and starts == [] and starts.threads == []


@pytest.mark.parametrize("condition, workers", [
    ("open", 1),
    ("below_threshold", 0),
    ("one_sequence", 0),
    ("blas_on_every_cpu", 0),
    ("pool_worker", 0),
    ("child_alive", 0),
    ("speculating", 0),
    ("other_threads", 0),
])
def test_forward_splits_only_when_allowed(monkeypatch, starts, condition, workers):
    monkeypatch.setattr(speculate, "available_cpus", lambda: 2)
    batch = {"below_threshold": MIN - 1, "one_sequence": 1}.get(condition, MIN)
    if condition == "one_sequence":
        monkeypatch.setattr(speculate, "SPLIT_MIN_VALUES", 1)
    if condition == "blas_on_every_cpu":
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    if condition == "pool_worker":
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    if condition == "child_alive":
        monkeypatch.setattr(multiprocessing, "active_children", lambda: [object()])
    if condition == "speculating":
        monkeypatch.setattr(speculate, "_speculating", 1)
    if condition == "other_threads":  # fork would be unsafe
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    planned, tokens, _ = copy_task(batch)
    serial = forward(planned, tokens)
    with monkeypatch.context() as m:
        m.setattr(speculate, "split_allowed", lambda batch, values: False)
        assert np.array_equal(forward(planned, tokens), serial)
    assert len(starts) == workers and starts.threads == []


def test_worker_outlives_forward_off_the_callers_cpu(splits, starts):
    """One worker serves every split forward, of any model, without a
    thread; it runs off the caller's CPU where there is another."""
    planned, tokens, _ = copy_task(MIN)
    other, _, _ = copy_task(MIN)
    first = forward(planned, tokens)
    for model in (planned, other, planned):
        assert np.array_equal(forward(model, tokens), first)
    assert splits.taken == [True] * 4 and len(starts) == 1 and starts.threads == []
    worker = starts[0]
    assert worker.proc.is_alive() and worker is speculate._worker
    caller, helper = os.sched_getaffinity(0), os.sched_getaffinity(worker.proc.pid)
    assert helper < caller or len(caller) == 1


def test_helper_runs_off_the_callers_cpu():
    """A speculative helper, like the split worker, runs off the CPU of
    the process that forks it where there is another."""
    with speculate.Helper() as helper:
        helper.submit("key", lambda: os.sched_getaffinity(0))
        helper_cpus = helper.take("key")
    caller = os.sched_getaffinity(0)
    assert helper_cpus < caller or len(caller) == 1


def test_weights_read_at_every_forward(monkeypatch, splits):
    """Weights that train in place after the worker has its replica, or
    are replaced, reach the worker's half."""
    planned, tokens, _ = copy_task(MIN)
    forward(planned, tokens)
    planned.model.layers[0].wq.data += 0.25
    planned.model.head_w.data = planned.model.head_w.data * 2.0
    serial, split = serial_and_split(monkeypatch, planned, tokens)
    assert splits.taken == [True, True]
    assert np.array_equal(split[0], serial[0])


def test_bound_plan_is_read_only():
    planned, _, _ = copy_task(2)
    view = planned.views[1]
    for live in (view.kv_live, view.head_live, view.qkv_live, view.ffn_live,
                 view.quant_bits["w1"]):
        with pytest.raises(ValueError):
            live[0] = not live[0]


@pytest.mark.parametrize("failing", ["both_halves", "worker_half", "caller_half"])
def test_failing_half_raises_in_caller(monkeypatch, splits, failing):
    """A weight of the wrong shape, which the worker's replica takes on
    too, fails both halves; a failure in either half alone is raised in
    the caller as well. The next forward gets the serial bits."""
    planned, tokens, _ = copy_task(MIN)
    with monkeypatch.context() as m:
        m.setattr(speculate, "split_allowed", lambda batch, values: False)
        serial = forward(planned, tokens)
    wv = planned.model.layers[1].wv.data
    with monkeypatch.context() as m:  # the worker, forked here, sees the same
        if failing == "both_halves":
            planned.model.layers[1].wv.data = np.zeros((wv.shape[0] - 1, wv.shape[1]))
            error, match = ValueError, None
        else:
            attention = PlannedModel.attention_sublayer
            in_worker = failing == "worker_half"

            def one_half_fails(self, layer, x, counter=None):
                if (multiprocessing.parent_process() is not None) == in_worker:
                    raise PlanError(f"{failing} failed")
                return attention(self, layer, x, counter)

            m.setattr(PlannedModel, "attention_sublayer", one_half_fails)
            error, match = PlanError, failing
        with pytest.raises(error, match=match):
            forward(planned, tokens)
    planned.model.layers[1].wv.data = wv
    assert np.array_equal(forward(planned, tokens), serial)
    assert splits.taken == [True, True]


def test_dead_worker_half_runs_here_then_restarts(monkeypatch, splits, starts):
    """A worker killed while the caller runs its half: the caller computes
    the worker's half too, counts included, and the next split forward
    starts a new worker."""
    planned, tokens, _ = copy_task(MIN + 1)
    with monkeypatch.context() as m:
        m.setattr(speculate, "split_allowed", lambda batch, values: False)
        serial = OpCounter()
        with no_grad():
            first = planned.forward(tokens, counter=serial)[0].data
    doomed, logits = [], PlannedModel._logits

    def killing(self, tokens, counter):
        if doomed:  # empty in the worker, forked before
            os.kill(doomed.pop().proc.pid, signal.SIGKILL)
        return logits(self, tokens, counter)

    monkeypatch.setattr(PlannedModel, "_logits", killing)
    assert np.array_equal(forward(planned, tokens), first)
    doomed.append(starts[0])
    counter = OpCounter()
    with no_grad():
        assert np.array_equal(planned.forward(tokens, counter=counter)[0].data, first)
    assert counter == serial
    for _ in range(2):
        assert np.array_equal(forward(planned, tokens), first)
    assert len(starts) == 2
    assert splits.taken[-1] and speculate._worker is starts[1]


def test_interrupted_send_replaces_the_worker(monkeypatch, splits, starts):
    """An interrupt while a request is sent leaves part of it in the pipe:
    the caller sees the interrupt, and the next split forward starts a new
    worker rather than write behind the torn request."""
    planned, tokens, _ = copy_task(MIN + 1)
    first = forward(planned, tokens)
    [torn] = starts

    class TornPipe:
        def __init__(self, conn):
            self.conn = conn

        def send(self, message):
            data = pickle.dumps(message)
            os.write(self.conn.fileno(), struct.pack("!i", len(data)) + data[:len(data) // 2])
            raise KeyboardInterrupt

        def __getattr__(self, name):
            return getattr(self.conn, name)

    torn.conn = TornPipe(torn.conn)
    with pytest.raises(KeyboardInterrupt):
        forward(planned, tokens)
    assert torn.broken
    assert np.array_equal(forward(planned, tokens), first)
    assert len(starts) == 2 and splits.taken[-1] and speculate._worker is starts[1]
    assert multiprocessing.active_children() == [starts[1].proc]


def test_map_grows_for_a_larger_batch(monkeypatch, splits, starts):
    """A half that does not fit the worker's map runs here; the next split
    forward starts a worker with a map large enough."""
    monkeypatch.setattr(speculate, "_map_bytes", 4096)
    planned, tokens, _ = copy_task(MIN)
    first = forward(planned, tokens)
    assert np.array_equal(forward(planned, tokens), first)
    assert splits.taken == [False, True] and len(starts) == 2
    assert len(starts[1].map) > len(starts[0].map) == 4096


def test_replica_of_a_collected_model_dropped(splits):
    planned, tokens, _ = copy_task(MIN)
    other, _, _ = copy_task(MIN)
    forward(planned, tokens)
    forward(other, tokens)
    worker = speculate._worker
    gone = worker.replicas[id(planned)].rid
    del planned
    gc.collect()
    assert worker.dropped == [gone] and id(other) in worker.replicas
    forward(other, tokens)
    assert worker.dropped == [] and len(worker.replicas) == 1 and splits.taken[-1]


def test_forked_child_never_talks_to_the_worker(splits):
    """A child forked beside the worker starts without it and holds no end
    of its pipe: closing the parent's end still ends the worker while the
    child lives, and the parent's worker stays in step."""
    planned, tokens, _ = copy_task(MIN)
    first = forward(planned, tokens)
    worker = speculate._worker
    ctx = multiprocessing.get_context("fork")
    ready, release = ctx.Pipe()

    def child():
        alone = speculate._worker is None
        ready.send((alone, np.array_equal(forward(planned, tokens), first)))
        ready.recv()  # stay alive until the parent says

    proc = ctx.Process(target=child)
    proc.start()
    assert release.poll(120) and release.recv() == (True, True)
    assert np.array_equal(forward(planned, tokens), first)
    worker.conn.close()
    worker.proc.join(timeout=30)
    ended = worker.proc.exitcode
    release.send(None)
    proc.join(timeout=30)
    assert ended == 0 and proc.exitcode == 0
    assert splits == [MIN, MIN] and splits.taken == [True, True]


def test_process_that_splits_leaves_no_process_behind():
    script = textwrap.dedent("""
        import os, sys
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from slimformer import (PlannedModel, TransformerConfig, build_model, no_grad,
                                speculate)
        speculate.spare_cpu_free = lambda: True
        config = TransformerConfig(num_layers=1, hidden_dim=32, num_heads=4, ffn_dim=32,
                                   context_len=32, vocab_size=8)
        with no_grad():
            PlannedModel(build_model(config, 1)).forward(np.zeros((48, 32), dtype=int))
        print(speculate._worker.proc.pid)
    """)
    proc = subprocess.Popen([sys.executable, "-c", script, str(SRC)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert int(out) > 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
