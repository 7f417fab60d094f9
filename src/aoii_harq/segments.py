"""Per-segment sums shared by the simulator's two samplers.

Both samplers see a trajectory as back-to-back segments, each some slots at
AoII 0 and then an AoII ramp 1, 2, ...: the renewal cycles of a threshold
policy, or the slots between two reset marks of a periodic one (marks).  A
segment costs dwell f(0) + F[ramp], F the prefix sums of the penalty f, so
the totals up to any slot are those of the segments before it plus a known
part of its own, and a batch boundary or the horizon cuts one segment.
"""

from __future__ import annotations

import numpy as np


class RampCost:
    """F[m] = f(1) + ... + f(m), the penalty of an AoII ramp 1, ..., m, as one
    running sum grown on demand (so F[m] does not depend on how far it grew),
    and f0 = f(0)."""

    def __init__(self, penalty):
        self._penalty = penalty
        self.f0 = float(penalty.evaluate(0))
        self._grow(64)

    def _grow(self, n: int) -> None:
        self._table = np.concatenate(([0.0], np.cumsum(self._penalty.evaluate(np.arange(1, n)))))

    def __getitem__(self, m: np.ndarray) -> np.ndarray:
        while m.max(initial=0) >= self._table.size:
            self._grow(2 * self._table.size)
        return self._table[m]


class Segments:
    """Back-to-back segments from the first slot of a block, each dwell slots
    at AoII 0 and then an AoII ramp 1, ..., ramp: renewal cycles, or the
    slots between two reset marks.  A segment costs dwell f(0) + F[ramp],
    a ramp past slot n cut there (only its first slots are read)."""

    def __init__(self, dwell, ramp, ramp_cost, n):
        self.dwell, self.ramp, self._ramp_cost = dwell, ramp, ramp_cost
        self.ends = np.cumsum(dwell + ramp)
        self.starts = self.ends - dwell - ramp
        # AoII-0 slots and penalty of the segments before each one
        self._dwelt, self._cost = (
            np.concatenate(([0], np.cumsum(v)))
            for v in (dwell, ramp_cost[np.minimum(ramp, n)] + ramp_cost.f0 * dwell)
        )
        self.top = int(np.max(np.minimum(self.ends, n) - self.starts - dwell, initial=0))  # largest AoII

    def upto(self, x):
        """Per entry of x: the segment i that slot x falls in, its ramp slots
        before x, and the AoII-0 slots and penalty of the first x slots."""
        i = np.searchsorted(self.starts, x, "right") - 1
        k = x - self.starts[i]
        zeros = np.minimum(k, self.dwell[i])
        into = k - zeros
        cost = self._cost[i] + self._ramp_cost.f0 * zeros + self._ramp_cost[into]
        return i, into, self._dwelt[i] + zeros, cost

    def ages(self, n):
        """(segment, AoII) of each of the first n slots."""
        seg = np.searchsorted(self.ends, np.arange(n), "right")
        lead = self.ends - self.ramp - 1  # last AoII-0 slot of each segment
        return seg, np.maximum(np.arange(n) - lead[seg], 0)


def batch_starts(t0: int, n: int, size: int) -> list:
    """Offsets in slots t0 .. t0 + n - 1 at which a batch of size slots
    starts, led by 0: the segments that sim.simulate adds by batch index."""
    return [0, *range(-t0 % size or size, n, size)]
