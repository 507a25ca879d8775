"""One speculative trial at a time, in a forked helper process.

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

``helper_allowed`` gates the whole mechanism. The helper must not share
CPUs with this process's BLAS threads: on a 2-CPU machine with BLAS on both
CPUs, the speed run of the acceptance suite's desk-scale fixture took 60.6 s
instead of 16.8 s with a helper on every trial (16.4 s with BLAS on one).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings


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


def helper_allowed() -> bool:
    """Whether a helper may run beside this process: fork is available and
    safe (this process runs one thread), this process is not itself a
    worker of a process pool, and it may use at least twice as many CPUs as
    one process's BLAS threads."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    if threading.active_count() > 1 or multiprocessing.parent_process() is not None:
        return False
    cpus = available_cpus()
    return cpus >= 2 * blas_threads(cpus)


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
