"""Machine-speed probe: scales timings to a reference machine speed.

On a shared 2-vCPU host the same forward pass took from under 40 to over
70 ms within one hour, and its speed swung by a fifth within seconds, because
neighbours load the machine unevenly. Every timing the benchmark reports is therefore
taken with a probe running a fixed kernel and recording how long it took:
every ``INTERVAL`` seconds from a SIGALRM timer during long operations, and
before each one in a loop of short operations. The kernel has the
model's op mix: batched matmul, softmax, erf-GELU and layer norm on whole
batches, a loop of small-array numpy calls like the per-head sign-matching
loop, and plain Python like the autodiff graph's bookkeeping. It lives
here, not in the package, so a change to slimformer cannot move it.

A timed interval is cut at the probe samples inside it. Each piece's work
time (probe time excluded) is scaled by ``NOMINAL_S`` over the median probe
time within ``WINDOW`` seconds of the piece, and the pieces are summed:
the result is the time the work would have taken on a machine where the
kernel always runs in ``NOMINAL_S``. Raw times and factors are kept in the
detailed result.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.special import erf

INTERVAL = 0.1
WINDOW = 0.25
MIN_NEIGHBOURS = 3
EDGE_SAMPLES = 5
# median kernel time on the 2-vCPU machine the baseline was recorded on
NOMINAL_S = 4.0e-3

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(16, 32, 32))
_W = _rng.normal(scale=32 ** -0.5, size=(32, 32))
_ROWS = _rng.normal(size=(48, 32))
_IDX = np.arange(32)


def kernel() -> float:
    """One probe sample: seconds to run the fixed op mix."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(3):
        h = x @ _W
        s = h @ np.swapaxes(h, -1, -2) * 32 ** -0.5
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        x = (s / s.sum(axis=-1, keepdims=True)) @ h
        x = x * 0.5 * (1.0 + erf(x * 0.7071067811865476))
        x = (x - x.mean(axis=-1, keepdims=True)) / (x.std(axis=-1, keepdims=True) + 1e-5)
    picked = []
    for row in _ROWS:
        dist = (np.where(row > 0, 1, -1) != 1).astype(np.int64)
        picked = [int(i) for i in np.lexsort((_IDX, dist))[:8]]
    table: dict[int, list[int]] = {}
    for i in range(1500):
        table.setdefault(i % 97, []).append(i + len(picked))
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager sampling machine speed while timed work runs.

    With ``timer`` a SIGALRM handler samples every ``INTERVAL`` seconds, for
    long operations. Without it only the samples at entry and exit and those
    the caller takes with ``sample`` between short operations are recorded;
    traced work runs that way, so its spans never contain probe work.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.starts: list[float] = []   # sample start times, ascending
        self.lengths: list[float] = []  # sample durations

    def sample(self, *_):
        """Take one probe sample now (also the SIGALRM handler)."""
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.lengths.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        return False

    def factor(self, at: float | None = None) -> float:
        """Reference speed over observed speed near ``at`` (over the whole
        probe when None); below 1 on a slow machine."""
        if at is None:
            near = self.lengths
        else:
            lo = bisect.bisect_left(self.starts, at - WINDOW)
            hi = bisect.bisect_right(self.starts, at + WINDOW)
            if hi - lo < MIN_NEIGHBOURS:
                order = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - at))
                near = [self.lengths[i] for i in order[:MIN_NEIGHBOURS]]
            else:
                near = self.lengths[lo:hi]
        return NOMINAL_S / statistics.median(near)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran within [t0, t1]."""
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.lengths[lo:hi])

    def raw(self, t0: float, t1: float) -> float:
        """Work seconds in [t0, t1] with the probe's own time taken out."""
        return t1 - t0 - self.inside(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """Work seconds in [t0, t1] at reference speed."""
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        edges = [t0] + self.starts[lo:hi] + [t1]
        total = 0.0
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            work = b - a - (self.lengths[lo + i - 1] if i > 0 else 0.0)
            total += work * self.factor((a + b) / 2)
        return total
