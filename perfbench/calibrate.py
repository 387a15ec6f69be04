"""Machine-speed calibration for timings on a shared, noisy host.

On a host shared with other tenants the same pass can take twice as long a
minute later, and the process's CPU time slows with it, so raw medians from
separate processes disagree by far more than any change worth measuring.
While a report runs, a timer signal therefore times a small fixed reference
kernel every ``INTERVAL_S``; a few more kernel runs bracket the report.  The
report's raw time, less the time spent in the kernel, is scaled by the mean
over the report of ``REFERENCE_S / kernel time``: the result reads as
seconds on a machine where the kernel takes ``REFERENCE_S``.  The mean of the
inverse is the right average because work done per second is proportional to
speed; it is also barely moved by a sample that a context switch made slow.

The kernel lives here, not in the library, so no library change can move
its code; its time still depends on what the program leaves in the cache
(``perfbench/NOTES.md`` gives the size of that effect).
It has two parts, because no single one tracked every report: a
fraction-free big-integer elimination on a small torus Laplacian (the mix of
Bareiss and Smith, about 0.4 ms), and a walk that follows a pseudo-random
permutation through a 2 MB table while summing Fractions into a tuple-keyed
dict (the mix of the walk engines and Wilson's sampler, about 2 ms).  The
walk has four fifths of the time: with an even split the walk-heavy reports
still slowed more than the kernel when neighbours loaded the host, and a
larger walk share corrected them without loosening the elimination-heavy
ones (``perfbench/NOTES.md``).
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

# about the kernel time on the 2-core host the benchmark was written on
REFERENCE_S = 0.0025
INTERVAL_S = 0.05
BRACKET_REPS = 5

_TABLE_BITS = 19
_WALK_STEPS = 1000


def _torus_matrix(m: int) -> list:
    """Reduced Laplacian (vertex 0 removed) of the m x m nearest-neighbour torus."""
    n = m * m
    lap = [[0] * n for _ in range(n)]
    for x in range(m):
        for y in range(m):
            u = x * m + y
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                v = ((x + dx) % m) * m + (y + dy) % m
                lap[u][v] -= 1
                lap[u][u] += 1
    return [row[1:] for row in lap[1:]]


def _permutation_table() -> array:
    """x -> (a x + c) mod 2^bits, a full-period LCG step, as a lookup table."""
    mask = (1 << _TABLE_BITS) - 1
    return array("I", [(1103515245 * x + 12345) & mask for x in range(mask + 1)])


_MATRIX = _torus_matrix(5)
_TABLE = _permutation_table()


def _eliminate(rows: list) -> int:
    a = [row[:] for row in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            factor, row_i = a[i][k], a[i]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def _walk(steps: int) -> dict:
    x = 1
    sums = {}
    for _ in range(steps):
        x = _TABLE[x]
        key = (x & 63, x >> 13)
        sums[key] = sums.get(key, 0) + Fraction(1, 1 + (x & 7))
    return sums


def _kernel() -> float:
    t0 = time.perf_counter()
    _eliminate(_MATRIX)
    _walk(_WALK_STEPS)
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the kernel around and during a timed region.

    Use as a context manager around the region; afterwards ``speed`` is the
    factor from raw to reference seconds and ``overhead`` the seconds the
    in-region samples took, to be subtracted from the region's raw time.
    """

    def __init__(self):
        self.bracket = []
        self.ticks = []
        self.overhead = 0.0
        self.region = 0.0
        self._previous = None
        self._start = 0.0

    def _bracket(self) -> None:
        self.bracket.extend(_kernel() for _ in range(BRACKET_REPS))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ticks.append(_kernel())
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self._bracket()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.region = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._bracket()
        return False

    @property
    def speed(self) -> float:
        """Mean of ``REFERENCE_S / kernel time`` over the region, each sample
        weighted by the region time it stands for: an in-region sample the
        interval before it, the brackets together the rest (all of a region
        shorter than one interval).  The brackets run back to back with a
        warm cache and the in-region samples after the program has evicted
        it, so a plain mean would give the brackets more weight the shorter
        the region, and a change that shortens a report would change the
        mix of its own factor."""
        rest = max(self.region - INTERVAL_S * len(self.ticks), 0.0)
        bracket = statistics.fmean(REFERENCE_S / t for t in self.bracket)
        ticks = sum(REFERENCE_S / t for t in self.ticks)
        weight = INTERVAL_S * len(self.ticks) + rest
        if weight == 0.0:
            return bracket
        return (INTERVAL_S * ticks + rest * bracket) / weight

    @property
    def warmth(self) -> float | None:
        """Mean kernel speed in the brackets over that in the region, or None
        without in-region samples: how much faster the kernel runs with a
        warm cache than after the program has run.  A change to the
        program's working set that moves this ratio also moves ``speed``."""
        if not self.ticks:
            return None
        return statistics.fmean(1 / t for t in self.bracket) / statistics.fmean(
            1 / t for t in self.ticks
        )
