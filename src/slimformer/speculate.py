"""The spare CPU: one speculative trial in a forked helper process, and
the second half of a large no-grad forward in a long-lived forked worker.

A greedy trial is a pure function of the working weights, the candidate
plan and its RNG step. So the trial after the current one can start before
the current one is decided, provided its result is used only when the loop
then asks for exactly the request that was predicted. ``Helper`` runs one
predicted request in a process forked from this one, which inherits the
weights and data as they are at the fork. ``take`` hands back its result
for an equal request. ``cancel`` kills a stale helper without waiting for
its trial. A helper that fails or dies yields no result, and the caller
computes the request itself. A speculation therefore changes when a trial
result is computed, never what it is.

``PlannedModel.forward`` is the other user: every op from embedding to
logits works on each sequence alone, so another process can run one half
of a batch beside the other and give the same bits. ``split_allowed``
gates it. The split worker is forked once, at the first split forward, and
then serves every later one: it keeps a replica of each model it has
served, pickled once, and per forward reads that model's current weights
and its half of the tokens from one shared anonymous map, and writes its
logits back there. Two processes share no interpreter lock, so each half
runs at one-thread speed.

The spare CPU has one owner at a time. An open ``Helper`` (a speculating
greedy run) owns it from start to end: no forward splits meanwhile, and
``Helper.submit`` stops the split worker before it forks. Outside such a
run the split worker owns it. ``spare_cpu_free`` is the rule both users
share. Either child moves itself off the CPU its parent ran on at the
fork, where it may run on another. The spare CPU must not be shared with
this process's BLAS threads: on a 2-CPU machine with BLAS on both CPUs,
the speed run of the acceptance suite's desk-scale fixture took 60.6 s
instead of 16.8 s with a helper on every trial (16.4 s with BLAS on one).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import warnings
import weakref

import numpy as np

from .tensor import grad_enabled, no_grad

# Smallest residual stream (sequences x positions x hidden width) whose
# no-grad forward is split: 48 sequences of the serve shape, 32 x 32. On 2
# CPUs, BLAS on one thread, the split of a no-grad copy-task loss (15 x 32)
# wins below it too, in 300 alternating pairs: 32 sequences 3.55 -> 2.47 ms
# (290 won), 64 sequences 5.87 -> 4.89 ms (275 won). But a threshold of 64
# copy-task sequences, which splits the pipeline's evaluation batches,
# moved neither benchmark pipeline's time beyond noise in 10 pairs each.
SPLIT_MIN_VALUES = 48 * 32 * 32

_ALIGN = 64  # byte alignment of every array in the split worker's map
_speculating = 0  # open Helpers: a speculating greedy run owns the spare CPU
_worker: _SplitWorker | None = None
_worker_lock = threading.Lock()  # held by the forward using the worker
_map_bytes = 16 << 20  # size of the next worker's map (address space, touched as used)


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads(cpus: int) -> int:
    """BLAS threads per process as the environment sets them; unset (or
    unreadable) means one per CPU, the OpenBLAS default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def spare_cpu_free() -> bool:
    """Whether this process may put work on a second CPU: it is not itself
    a worker of a process pool or a forked helper, no child of it other
    than the split worker is alive (a helper or a pool would already hold
    that CPU), and it may use at least twice as many CPUs as one process's
    BLAS threads."""
    split = _worker and _worker.proc
    if multiprocessing.parent_process() is not None or any(
            child is not split for child in multiprocessing.active_children()):
        return False
    cpus = available_cpus()
    return cpus >= 2 * blas_threads(cpus)


def _fork_safe() -> bool:
    """Fork is available and safe: this process runs one thread."""
    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


def helper_allowed() -> bool:
    """Whether a helper may be forked: the spare CPU is free, and fork is
    available and safe."""
    return _fork_safe() and spare_cpu_free()


def split_allowed(batch: int, sequence_values: int) -> bool:
    """Whether a forward of ``batch`` sequences of ``sequence_values``
    residual-stream values each may run half of them in the split worker:
    grad is off (no graph spans two processes), the batch has two
    sequences and at least SPLIT_MIN_VALUES values, no speculating greedy
    run owns the spare CPU, and the spare CPU is free."""
    return (batch > 1 and batch * sequence_values >= SPLIT_MIN_VALUES
            and not grad_enabled() and not _speculating and spare_cpu_free())


# -- the split worker ------------------------------------------------------------

@contextlib.contextmanager
def split_worker():
    """The split worker for one forward, forked if none runs (or the last
    one died or needs a larger map); None when another thread is using it
    or none may be forked: fork is unavailable or unsafe (this process runs
    more than one thread), or it failed."""
    global _worker
    if not _worker_lock.acquire(blocking=False):
        yield None
        return
    try:
        if _worker is not None and _worker.broken:
            stop_split_worker()
        if _worker is None and _fork_safe():
            try:
                _worker = _SplitWorker(_map_bytes)
            except OSError:
                pass
        yield _worker
    finally:
        _worker_lock.release()


def stop_split_worker():
    """Stop the split worker, if any, while no forward uses it: close its
    pipe, so that it exits, and reap it."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.close()


def _forget_split_worker():
    """In a forked child: drop the parent's split worker unused, so that
    the child neither talks to it nor keeps its pipe open."""
    global _worker, _worker_lock
    if _worker is not None:
        _worker.conn.close()
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_split_worker)


def _own_cpu() -> int | None:
    """The CPU the calling thread runs on, where the system says."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None):
    """In a forked child: run off ``cpu``, the parent's, where it may."""
    if cpu is not None:
        with contextlib.suppress(OSError, ValueError):
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})


def _layout(specs, start: int) -> tuple[list[int], int]:
    """Byte offsets of arrays of (dtype, shape) ``specs`` laid out from
    ``start`` on aligned bounds, and the end of the last."""
    offsets, end = [], start
    for dtype, shape in specs:
        end = -(-end // _ALIGN) * _ALIGN
        offsets.append(end)
        end += np.dtype(dtype).itemsize * math.prod(shape)
    return offsets, end


def _view(buf, dtype, shape, offset: int) -> np.ndarray:
    return np.ndarray(shape, dtype, buffer=buf, offset=offset)


def _serve_halves(conn, parent_end, buf, cpu):
    """Split worker body, in a forked process: kept off the parent's CPU,
    it answers requests until the parent's end of the pipe closes (also
    when the parent dies). A request names a replica, pickled along the
    first time, the replicas to drop, and where in ``buf`` its tokens and
    logits lie, and a counter or None; the reply is that counter, filled,
    or the half's error."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent takes interrupts
    warnings.simplefilter("ignore")  # the parent warns for its own half
    _leave_cpu(cpu)
    replicas = {}
    with no_grad():
        while True:
            try:
                rid, install, dropped, tokens, out, counter = conn.recv()
            except (EOFError, OSError):
                return
            for old in dropped:
                replicas.pop(old, None)
            try:
                if install is not None:
                    replica = replicas[rid] = pickle.loads(install)
                    # its parameters read the values the parent writes per request
                    params = replica.parameters()
                    specs = [(t.data.dtype, t.data.shape) for t in params]
                    for t, spec, at in zip(params, specs, _layout(specs, 0)[0]):
                        t.data = _view(buf, *spec, at)
                logits = replicas[rid]._logits(_view(buf, *tokens), counter)
                np.copyto(_view(buf, *out), logits.data)
                reply = pickle.dumps((counter, None))
            except Exception as exc:  # raised in the parent
                try:
                    reply = pickle.dumps((None, exc))
                except Exception:
                    reply = pickle.dumps((None, RuntimeError(f"split worker: {exc!r}")))
            try:
                conn.send_bytes(reply)
            except OSError:
                return


class _SplitWorker:
    """This process's end of the split worker: a forked daemon process that
    runs ``_logits`` of the second half of a batch on its replica of the
    calling ``PlannedModel``. Parameter values, tokens and logits pass
    through one shared anonymous map, each parameter at the same offset in
    this process and in every replica; requests, replicas and replies pass
    through a pipe. The worker exits when the pipe closes."""

    def __init__(self, size: int):
        ctx = multiprocessing.get_context("fork")
        self.map = mmap.mmap(-1, size)
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve_halves, daemon=True,
                                args=(child_end, self.conn, self.map, _own_cpu()))
        try:
            self.proc.start()
        finally:
            child_end.close()
        self.broken = False  # died, or needs a larger map: replaced at the next split
        # id(model) -> _Replica; a model's replica is dropped when it is collected
        self.replicas: dict[int, _Replica] = {}
        self.dropped: list[int] = []  # replica ids to drop in the worker
        self.ids = itertools.count()
        self.out = None

    def submit(self, owner, tokens: np.ndarray, out_shape: tuple, counter) -> bool:
        """Hand the worker ``owner._logits`` of ``tokens`` on ``owner``'s
        current parameter values, counting into a copy of the fresh
        ``counter`` (or None); False when it cannot take it, so that the
        forward runs here."""
        params = owner.parameters()
        specs = [(t.data.dtype, t.data.shape) for t in params]
        replica = self.replicas.get(id(owner))
        fresh = replica is None or replica.specs != specs
        (tok_at, out_at), end = _layout([(tokens.dtype, tokens.shape), (np.float64, out_shape)],
                                        _layout(specs, 0)[1] if fresh else replica.end)
        if end > len(self.map):
            global _map_bytes
            _map_bytes = max(_map_bytes, 2 * end)
            self.broken = True
            return False
        install = None
        if fresh:
            try:
                install = pickle.dumps(owner, pickle.HIGHEST_PROTOCOL)
            except Exception:  # a model that does not pickle runs here
                return False
        try:
            if fresh:
                if replica is not None:
                    self.dropped.append(replica.rid)
                replica = self.replicas[id(owner)] = _Replica(self, owner, specs)
            for view, t in zip(replica.views, params):
                view[...] = t.data
            _view(self.map, tokens.dtype, tokens.shape, tok_at)[...] = tokens
            self.out = _view(self.map, np.float64, out_shape, out_at)
            dropped, self.dropped = self.dropped, []
            self.conn.send((replica.rid, install, dropped, (tokens.dtype, tokens.shape, tok_at),
                            (np.float64, out_shape, out_at), counter))
        except OSError:
            self.broken = True
            return False
        except BaseException:  # interrupted: this end and the worker may be out of step
            self.broken = True
            raise
        return True

    def receive(self):
        """(logits, counter, error) of the submitted half: the logits are a
        view of the map, valid until the next submit, and the counter is
        the one the worker filled. An error of the worker's half comes back
        as ``error``, and a dead worker gives (None, None, None); either
        way the worker is replaced at the next split."""
        try:
            counter, error = self.conn.recv()
        except (EOFError, OSError):
            self.broken = True
            return None, None, None
        except BaseException:  # interrupted: the pipe is out of step
            self.broken = True
            raise
        if error is not None:  # its replicas may be out of step: start afresh
            self.broken = True
            return None, None, error
        return self.out, counter, None

    def close(self):
        self.conn.close()
        self.proc.join(timeout=10)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        self.proc.close()


class _Replica:
    """What this process keeps of a model the split worker has a replica
    of: the replica's id, the parameters' (dtype, shape) specs, their views
    in the map and the end of the last. Once the model is collected, the
    replica is dropped with the next request."""

    def __init__(self, worker: _SplitWorker, owner, specs):
        key = id(owner)

        def collected(_):
            if worker.replicas.get(key) is self:
                del worker.replicas[key]
                worker.dropped.append(self.rid)

        self.ref = weakref.ref(owner, collected)
        self.rid, self.specs = next(worker.ids), specs
        offsets, self.end = _layout(specs, 0)
        self.views = [_view(worker.map, *spec, at) for spec, at in zip(specs, offsets)]


# -- the speculative helper --------------------------------------------------------

def _serve(conn, compute, cpu):
    """Helper body, off the parent's CPU: send compute()'s result. On a
    failure it sends nothing, so the parent reads end-of-file and computes
    the trial itself, raising there if the failure is the trial's own."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent takes interrupts
    warnings.simplefilter("ignore")  # the parent warns for its own trials
    _leave_cpu(cpu)
    try:
        conn.send(compute())
    except Exception:
        pass


class Helper:
    """At most one forked process computing one speculative request.

    Fork, not spawn: the child inherits the weights, the data and the
    trial's closure without pickling or re-importing anything. The gate
    only allows it in a process that runs one thread. Open (``with``), a
    helper owns the spare CPU: no forward splits until it is closed, which
    kills any running helper process."""

    def __init__(self):
        self._ctx = multiprocessing.get_context("fork")
        self._key = self._proc = self._conn = None
        self.speculated = 0  # requests handed to a helper
        self.hits = 0        # helper results taken

    def __enter__(self):
        global _speculating
        _speculating += 1
        return self

    def __exit__(self, *exc):
        global _speculating
        self.cancel()
        _speculating -= 1

    def submit(self, key, compute):
        """Kill any running helper and stop the split worker, then fork a
        helper that runs compute(); its result is for a later
        ``take(key)``. A failed fork submits nothing."""
        self.cancel()
        stop_split_worker()
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_serve, args=(send, compute, _own_cpu()),
                                 daemon=True)
        try:
            proc.start()
        except OSError:
            recv.close()
            return
        finally:
            send.close()
        self._key, self._proc, self._conn = key, proc, recv
        self.speculated += 1

    def take(self, key):
        """The helper's result when it was submitted for an equal key,
        waiting for it if it still runs; None otherwise, or when the helper
        failed. A helper whose key differs is left running."""
        if self._proc is None or self._key != key:
            return None
        try:
            result = self._conn.recv()
        except (EOFError, OSError):
            result = None
        else:
            self.hits += 1
        self.cancel()
        return result

    def cancel(self):
        """Kill the helper, if any, without waiting for its trial."""
        if self._proc is None:
            return
        self._proc.kill()
        self._proc.join()
        self._proc.close()
        self._conn.close()
        self._key = self._proc = self._conn = None
