"""The spare CPU: one speculative trial in a forked helper process, and
the second half of a large no-grad forward in a worker thread.

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
logits works on each sequence alone, so a worker thread can run one half
of a batch beside the other and give the same bits. ``split_allowed``
gates it.

``spare_cpu_free`` is the rule both users share. The spare CPU must not be
shared with this process's BLAS threads: on a 2-CPU machine with BLAS on
both CPUs, the speed run of the acceptance suite's desk-scale fixture took
60.6 s instead of 16.8 s with a helper on every trial (16.4 s with BLAS on
one). A live helper holds the spare CPU, so while one runs the forward
stays in one thread.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings

from .tensor import grad_enabled

# Smallest residual stream (sequences x positions x hidden width) whose
# no-grad forward is split. The split pays when each numpy call has enough
# work to cover the handoffs of the interpreter lock between the threads,
# and that work grows with the stream, not with the sequence count: on 2
# CPUs with BLAS on one thread the split won at least 9 of 10 timed pairs
# from here on at the benchmark's serve shape (48 sequences of 32 x 32) and
# its copy-task shape (103 of 15 x 32), but not at 64 copy-task sequences.
SPLIT_MIN_VALUES = 48 * 32 * 32


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def keep_off(tid: int):
    """Keep the calling thread off the CPU that thread ``tid`` of this
    process runs on, where the system allows it. Linux may leave a new
    thread on its creator's CPU: a split forward whose worker sat beside
    the caller gained nothing on a 2-CPU VM (serve shape 36.0 → 37.6 ms),
    one whose worker was kept on the other CPU took 22.0 ms."""
    try:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39: its CPU
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


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
    a worker of a process pool or a forked helper, no child of it is alive
    (a helper would already hold that CPU), and it may use at least twice
    as many CPUs as one process's BLAS threads."""
    if multiprocessing.parent_process() is not None or multiprocessing.active_children():
        return False
    cpus = available_cpus()
    return cpus >= 2 * blas_threads(cpus)


def helper_allowed() -> bool:
    """Whether a helper may be forked: the spare CPU is free, and fork is
    available and safe (this process runs one thread)."""
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return False
    return spare_cpu_free()


def split_allowed(batch: int, sequence_values: int) -> bool:
    """Whether a forward of ``batch`` sequences of ``sequence_values``
    residual-stream values each may run half of them in a worker thread:
    grad is off, so no graph spans two threads, the batch has two
    sequences and at least SPLIT_MIN_VALUES values, and the spare CPU is
    free."""
    return (batch > 1 and batch * sequence_values >= SPLIT_MIN_VALUES
            and not grad_enabled() and spare_cpu_free())


def _serve(conn, compute):
    """Helper body: send compute()'s result. On a failure it sends nothing,
    so the parent reads end-of-file and computes the trial itself, raising
    there if the failure is the trial's own."""
    warnings.simplefilter("ignore")  # the parent warns for its own trials
    try:
        conn.send(compute())
    except Exception:
        pass


class Helper:
    """At most one forked process computing one speculative request.

    Fork, not spawn: the child inherits the weights, the data and the
    trial's closure without pickling or re-importing anything. The gate
    only allows it in a process that runs one thread."""

    def __init__(self):
        self._ctx = multiprocessing.get_context("fork")
        self._key = self._proc = self._conn = None
        self.speculated = 0  # requests handed to a helper
        self.hits = 0        # helper results taken

    def submit(self, key, compute):
        """Kill any running helper, then fork one that runs compute(); its
        result is for a later ``take(key)``. A failed fork submits nothing."""
        self.cancel()
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_serve, args=(send, compute), daemon=True)
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
