"""The split no-grad forward: with grad off, a large batch runs its second
half in a worker thread. Logits, losses and counters are the bits of one
pass over the whole batch, and the worker never outlives the forward."""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from test_bench_contract import load

from slimformer import (OpCounter, PlanError, PlannedModel, TaskSpec, TransformerConfig,
                        build_model, generate_task, speculate)
from slimformer.tensor import no_grad

scenarios = load("scenarios")
COPY_CONFIG = scenarios.optimize_config("speed")


def min_batch(config: TransformerConfig) -> int:
    """Fewest sequences whose no-grad forward splits under ``config``."""
    return -(-speculate.SPLIT_MIN_VALUES // (config.context_len * config.hidden_dim))


MIN = min_batch(COPY_CONFIG.transformer_config())  # copy-task sequences


@pytest.fixture
def splits(monkeypatch):
    """The batch of every split forward, with the spare CPU free whatever
    this machine has."""
    made = []
    split = PlannedModel._split_logits

    def recording(self, tokens, counter):
        made.append(tokens.shape[0])
        return split(self, tokens, counter)

    monkeypatch.setattr(speculate, "spare_cpu_free", lambda: True)
    monkeypatch.setattr(PlannedModel, "_split_logits", recording)
    return made


@pytest.fixture
def thread_starts(monkeypatch):
    """Count every thread started in this process."""
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


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


@pytest.mark.parametrize("plan", scenarios.PLAN_NAMES)
def test_serve_plans_bit_identical(monkeypatch, splits, plan):
    tokens, planned = scenarios.serve_inputs(1)
    serial, split = serial_and_split(monkeypatch, planned[plan], tokens, with_counter=True)
    assert splits == [len(tokens)]
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
    assert splits == [batch]
    assert np.array_equal(split[0], serial[0])
    assert np.array_equal(split[1], serial[1])


@pytest.mark.parametrize("batch", [MIN - 1, MIN, MIN + 1, 2 * MIN + 3])
def test_copy_task_loss_bit_identical(monkeypatch, splits, batch):
    """Below the threshold the forward stays serial; at it and above, odd
    batches included, the halves give the serial bits."""
    planned, tokens, labels = copy_task(batch)
    serial, split = serial_and_split(monkeypatch, planned, tokens, labels)
    assert splits == ([] if batch < MIN else [batch])
    assert np.array_equal(split[0], serial[0])
    assert np.array_equal(split[1], serial[1])


def test_concurrent_split_forwards_bit_identical(monkeypatch, splits):
    """Four callers split at once under a short switch interval, eight
    threads on fewer CPUs: the halves share only what they read, so every
    caller gets the serial bits."""
    tokens, planned = scenarios.serve_inputs(1)
    (serial, _, _), _ = serial_and_split(monkeypatch, planned["signmatch"], tokens)
    results = [None] * 4

    def call(i):
        with no_grad():
            results[i] = planned["signmatch"].forward(tokens)[0].data

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
    assert len(splits) == 1 + 4
    assert all(np.array_equal(r, serial) for r in results)


def test_grad_enabled_forward_starts_no_thread(splits, thread_starts):
    planned, tokens, labels = copy_task(2 * MIN)
    logits, loss = planned.forward(tokens, labels)
    assert loss.requires_grad
    assert splits == [] and thread_starts == []


@pytest.mark.parametrize("condition, threads", [
    ("open", 1),
    ("below_threshold", 0),
    ("one_sequence", 0),
    ("blas_on_every_cpu", 0),
    ("pool_worker", 0),
    ("child_alive", 0),
])
def test_forward_splits_only_when_allowed(monkeypatch, thread_starts, condition, threads):
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
    planned, tokens, _ = copy_task(batch)
    with no_grad():
        planned.forward(tokens)
    assert len(thread_starts) == threads


def test_worker_joined_after_split(monkeypatch, splits):
    """The worker ends with the forward, its half builds no graph although
    grad mode is per thread, and it runs off the caller's CPU where there
    is another."""
    halves = {}
    logits = PlannedModel._logits

    def recording(self, tokens, counter):
        out = logits(self, tokens, counter)
        caller = threading.current_thread() is threading.main_thread()
        halves[caller] = (out.requires_grad, os.sched_getaffinity(0))
        return out

    monkeypatch.setattr(PlannedModel, "_logits", recording)
    planned, tokens, _ = copy_task(MIN)
    before = threading.active_count()
    with no_grad():
        planned.forward(tokens)
    assert splits == [MIN]
    (caller_grad, caller_cpus), (worker_grad, worker_cpus) = halves[True], halves[False]
    assert not caller_grad and not worker_grad
    assert worker_cpus < caller_cpus or len(caller_cpus) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["both_halves", "worker_half"])
def test_failing_half_raises_in_caller(monkeypatch, splits, failing):
    """A plan left with no live key/value position fails in both halves;
    a failure in the worker's half alone is raised in the caller too. The
    worker is joined either way."""
    planned, tokens, _ = copy_task(MIN)
    if failing == "both_halves":
        planned.views[1].kv_live[:] = False
    else:
        attention = PlannedModel.attention_sublayer

        def worker_fails(self, layer, x, counter=None):
            if threading.current_thread() is not threading.main_thread():
                raise PlanError("worker half failed")
            return attention(self, layer, x, counter)

        monkeypatch.setattr(PlannedModel, "attention_sublayer", worker_fails)
    before = threading.active_count()
    with no_grad(), pytest.raises(PlanError):
        planned.forward(tokens)
    assert splits == [MIN]
    assert threading.active_count() == before
