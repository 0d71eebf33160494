"""Timings scaled to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts, as other tenants come
and go, by up to a factor of two over seconds to minutes; a program's wall
time drifts with it. A ``SpeedProbe`` times a fixed pure-Python search, the
benchmark's own code with no call into the package, between the operations
being measured. ``scaled`` turns a wall-time interval into the time it would
have taken at the reference speed, the speed at which the probe takes
``REF_S`` seconds: each stretch of the interval between two probes is
multiplied by ``REF_S`` over those probes' times. The probes' own time is never
part of a scaled interval.

The probe is a recursive bitmask search, like the package's solvers, so the
two slow down together when the host does; a change to the package does not
change the probe.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 0.0005
QUEENS = 8


def queens(n: int) -> int:
    """Number of ways to place n non-attacking queens on an n x n board."""
    full = (1 << n) - 1

    def place(cols: int, left: int, right: int) -> int:
        if cols == full:
            return 1
        count = 0
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            count += place(cols | bit, (left | bit) << 1 & full, (right | bit) >> 1)
        return count

    return place(0, 0, 0)


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.ends = []
        self._factors = None

    def sample(self) -> None:
        """Time the probe once, now."""
        t0 = time.perf_counter()
        queens(QUEENS)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._factors = None

    @property
    def seconds(self) -> list:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def factors(self) -> list:
        """REF_S over each probe's time, taken as the median of it and its two
        neighbours on each side, so that one interrupted probe does not count."""
        if self._factors is None:
            s = self.seconds
            self._factors = [REF_S / statistics.median(s[max(i - 2, 0) : i + 3]) for i in range(len(s))]
        return self._factors

    def scaled(self, start: float, end: float) -> float:
        """Seconds that the wall-time interval [start, end] takes at the reference speed."""
        return sum(overlap * factor for overlap, factor in self._gaps(start, end))

    def wall(self, start: float, end: float) -> float:
        """Wall-time seconds of [start, end] outside the probes."""
        return sum(overlap for overlap, _ in self._gaps(start, end))

    def _gaps(self, start: float, end: float):
        """(seconds of [start, end] in the gap, the gap's factor) for each gap it overlaps.

        Gap i is the time between probe i-1 and probe i (gap 0 is before the
        first probe, the last gap after the last one); its factor is the mean
        of the factors of the probes around it.
        """
        f = self.factors()
        if not f:
            raise ValueError("no probe was sampled")
        m = len(f)
        for i in range(bisect.bisect_right(self.ends, start), bisect.bisect_left(self.starts, end) + 1):
            lo = self.ends[i - 1] if i > 0 else start
            hi = self.starts[i] if i < m else end
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                yield overlap, statistics.fmean(f[j] for j in (i - 1, i) if 0 <= j < m)
