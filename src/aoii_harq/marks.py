"""Reset-mark sampler of a periodic policy with period >= 2 (sim.Periodic).

Such a policy never transmits in two consecutive slots, so every
transmission goes out with r = 0.  Slot t is then a reset mark with
probability c2 = alpha p(0) + mu (1 - p(0)) if it transmits (t % period ==
0) and mu if not, and a stale AoII resets exactly at a mark.  Marks do not
depend on the state, so a window of slots draws them up front, as geometric
gaps on the transmit-slot and on the wait-slot lattice.  A window spans
_WINDOW slots or, where marks are denser, about _MARKS marks, which bounds
its per-mark arrays.

After a mark the AoII stays at 0 for g slots if it was stale there and
g - 1 if it was 0, g ~ Geom(1 - alpha) drawn per mark, and then climbs until
the next mark: the segments of segments.Segments, which price the report.
Transmit slots are counted from the lattice.  At AoII 0 they decode with
p(0), at a mark with a stale AoII with c1 / c2 (c1 = alpha p(0)), and every
other stale one draws one uniform over the outcomes that keep the AoII
stale: decoded, count kept (r = 1 on the next slot) or count restarted.  So
the work is per mark, not per slot.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from .model import transmit_law
from .segments import RampCost, Segments, batch_starts

_WINDOW = 1 << 15  # most slots per window
_MARKS = 2048  # marks a window aims to hold


def _lattice_marks(rng, lo, hi, p):
    """The lattice indices in [lo, hi) that are marks, each one independently
    with probability p, drawn as geometric gaps from lo (the gaps past hi
    are dropped, which memorylessness allows)."""
    parts = [np.zeros(0, dtype=np.int64)]
    at = lo - 1
    while at < hi - 1:
        expect = (hi - 1 - at) * p
        pos = at + np.cumsum(rng.geometric(p, int(expect + 4 * sqrt(expect)) + 4))
        parts.append(pos[: np.searchsorted(pos, hi)])
        at = int(pos[-1])
    return np.concatenate(parts)


class ResetMarks:
    """The mark law, window width and segment pricing of one policy.  p(0)
    and the outcome masses at r = 0 are model.transmit_law's, range-checked
    there; this class forms none of them.  A window's per-mark arrays live
    only inside these methods, so they are freed before the next window is
    drawn (a generator's locals are not)."""

    def __init__(self, period, source, channel, penalty):
        self.period, self.alpha, self.mu = period, source.alpha, source.mu
        p, masses, _ = transmit_law(source, channel, 1)
        self.p0 = float(p[0])
        # cuts of the outcomes that reset the AoII (c1 decoded, c2 either),
        # and of those that keep it stale, of mass 1 - c2 (decoded, kept)
        self.c1, self.c2 = np.cumsum(masses[:2, 0]).tolist()
        self.decoded_cut, self.kept_cut = np.cumsum(masses[2:, 0]).tolist()
        self.ramp_cost = RampCost(penalty)
        self.width = min(_WINDOW, ceil(_MARKS * period / (self.c2 + (period - 1) * self.mu)))

    def window(self, rng, w0, w1):
        """The marks in slots w0 .. w1 - 1, in order (the j-th wait slot is
        j + j // (period - 1) + 1)."""
        period = self.period
        tx_lo, tx_hi = -(-w0 // period), -(-w1 // period)  # transmit slots before w0, w1
        sent = period * _lattice_marks(rng, tx_lo, tx_hi, self.c2)
        waits = _lattice_marks(rng, w0 - tx_lo, w1 - tx_hi, self.mu)
        waits += waits // (period - 1) + 1
        # merge the two ordered runs (np.sort's code pages alone cost about
        # 0.4 MB of RSS on first use)
        at = np.searchsorted(waits, sent) + np.arange(sent.size)
        ends = np.empty(sent.size + waits.size, dtype=np.int64)
        ends[at] = sent
        rest = np.ones(ends.size, dtype=bool)
        rest[at] = False
        ends[rest] = waits
        return ends

    def segments(self, rng, ends, last, zero):
        """(dwell, ramp) of the segments after mark last up to each mark in
        ends, and whether the AoII is 0 at the last one, zero telling that
        at mark last.  The AoII is 0 at a mark if g > gap, stale if g < gap,
        and flips if g == gap, so the composition over the marks is a
        last-constant index plus a flip parity."""
        gap = np.diff(ends, prepend=last)
        g = rng.geometric(1.0 - self.alpha, ends.size)
        const = g != gap
        anchor = np.maximum.accumulate(np.where(const, np.arange(g.size), -1))
        flips = np.cumsum(~const)
        seen = anchor >= 0
        anchor = np.maximum(anchor, 0)
        base = np.where(seen, (g > gap)[anchor], zero)
        zeros_at = base ^ ((flips - np.where(seen, flips[anchor], 0)) & 1).astype(bool)
        dwell = np.minimum(g - np.concatenate(([zero], zeros_at[:-1])), gap)
        return dwell, gap - dwell, bool(zeros_at[-1])

    def decodes(self, rng, ends, ramp, last, cut, keep):
        """Decodes of the transmit slots of the segments, and the slots after
        a stale one that kept the count if keep (else None).  The last mark
        in ends is the horizon's last slot, not a mark, if cut."""
        period = self.period
        lead = (ends - ramp) // period  # lattice index of the last transmit slot before the stale part
        stale = ends // period - lead
        reset = (ends % period == 0) & (ramp > 0)
        reset[-1] &= not cut
        survivors = stale - reset
        u = rng.random(int(survivors.sum())) * (1.0 - self.c2)
        decodes = (
            int(rng.binomial(int(ends[-1] // period - last // period - stale.sum()), self.p0))
            + int(rng.binomial(int(np.count_nonzero(reset)), self.c1 / self.c2))
            + int(np.count_nonzero(u < self.decoded_cut))
        )
        if not keep:
            return decodes, None
        first = np.repeat(lead + 1 - np.cumsum(survivors) + survivors, survivors)
        after = period * (np.arange(u.size) + first) + 1  # in order, as u
        return decodes, after[(u >= self.decoded_cut) & (u < self.kept_cut)]

    def block(self, rng, ends, last, zero, cut, size, keep):
        """The slots after mark last up to the last mark in ends as a block of
        sim._cycle_slots, and the AoII-0 indicator at its last mark."""
        dwell, ramp, zero = self.segments(rng, ends, last, zero)
        decodes, kept = self.decodes(rng, ends, ramp, last, cut, keep)
        t0, n = last + 1, int(ends[-1] - last)
        segs = Segments(dwell, ramp, self.ramp_cost, n)
        at = np.array([*batch_starts(t0, n, size), n])
        costs = segs.upto(at)[3]
        txs = -(-(t0 + at) // self.period)
        slots = None
        if keep:
            r = np.zeros(n, dtype=np.int32)
            r[kept[kept < t0 + n] - t0] = 1
            slots = segs.ages(n)[1], r, np.arange(t0, t0 + n) % self.period == 0
        return (n, np.diff(costs), np.diff(txs), segs.top, decodes, slots), zero


def periodic_blocks(rng, period, source, channel, penalty, size, horizon, keep):
    """Reset-mark sampler for a period >= 2: yields the horizon in blocks as
    sim._cycle_slots does, a block being the slots up to the last mark of a
    window (a window without a mark yields nothing).  The horizon cuts the
    last segment at slot horizon - 1."""
    marks = ResetMarks(period, source, channel, penalty)
    last, zero = -1, False  # the mark before the next block, and its AoII-0 indicator
    for w0 in range(0, horizon, marks.width):
        w1 = min(w0 + marks.width, horizon)
        ends = marks.window(rng, w0, w1)
        cut = w1 == horizon and (ends.size == 0 or ends[-1] < horizon - 1)
        if cut:
            ends = np.append(ends, horizon - 1)
        if ends.size:
            chunk, zero = marks.block(rng, ends, last, zero, cut, size, keep)
            yield chunk
            last = int(ends[-1])
