"""Seeded slotted Monte Carlo of source + HARQ channel + scheduling policy.

Two exact samplers, both numpy and both yielding the trajectory in chunks
of at most _SLOTS slots, so memory does not grow with the horizon:

- Threshold policies (never-transmit, fixed, per-slot mixed, and periodic
  with period 1) regenerate at (0, 0).  Every renewal cycle is a dwell at
  AoII 0 of Geom(1 - alpha) slots, a wait ramp AoII 1, 2, ... that ends
  when the source wanders back (probability mu per slot) or when the policy
  starts transmitting, and then an HARQ burst that lasts until the AoII
  resets.  Cycles are drawn in blocks, each block's bursts as one array of
  runs of failed transmissions (see _Bursts), and the block's per-slot AoII
  follows from the cycle boundaries (Crane and Iglehart 1975; Asmussen and
  Glynn, Stochastic Simulation, ch. IV).  The last block is cut at the
  horizon.
- Periodic with period >= 2 never transmits in two consecutive slots, so
  every transmission goes out with r = 0 and "AoII = 0" is a two-state chain
  whose per-slot law depends only on whether the slot transmits.  Each slot's
  uniform fixes the map from this slot's indicator to the next one's
  (constant, identity or flip), and the composition is a last-constant index
  (maximum.accumulate) plus a flip parity (cumsum).  The AoII is then the
  distance to the last zero.

simulate adds each chunk into its batch sums by batch index.  The per-slot
cost is the pre-transition penalty f(delta_t), slot 0 included.
One PCG64 stream per trajectory, drawn in a fixed order, so identical inputs
and seed give bit-identical reports.  Replication seeds are derived with
numpy's SeedSequence spawn keys, which are collision-free and independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

_SLOTS = 4096  # most slots per chunk
_BLOCK = 8192  # slots a block of renewal cycles aims to cover
_FAR = 1 << 62  # burst-start AoII of a cycle without a burst


@dataclass(frozen=True)
class NeverTransmit:
    def waits(self, rng, n: int) -> np.ndarray:
        return np.full(n, _FAR)


@dataclass(frozen=True)
class FixedThreshold:
    """Transmit exactly when the AoII reaches n0."""

    n0: int

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError(f"threshold must be >= 1, got {self.n0}")

    def waits(self, rng, n: int) -> np.ndarray:
        return np.full(n, self.n0 - 1)


@dataclass(frozen=True)
class MixedThreshold:
    """Per-slot randomization over the adjacent thresholds n_low and n_low+1:
    draw n_high with probability rho_high, transmit iff the AoII reaches the
    drawn threshold."""

    n_low: int
    rho_high: float

    def __post_init__(self) -> None:
        if self.n_low < 1:
            raise ValueError(f"n_low must be >= 1, got {self.n_low}")
        if not 0.0 <= self.rho_high <= 1.0:
            raise ValueError(f"rho_high must lie in [0, 1], got {self.rho_high}")

    @property
    def n_high(self) -> int:
        return self.n_low + 1

    def waits(self, rng, n: int) -> np.ndarray:
        # the draw matters only at AoII n_low, which a cycle reaches once
        return self.n_low - 1 + (rng.random(n) < self.rho_high)


@dataclass(frozen=True)
class Periodic:
    """Budget-satisfying baseline: transmit every ceil(1/R) slots regardless
    of the state (slot 0 transmits)."""

    rate_budget: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_budget <= 1.0:
            raise ValueError(f"rate budget must lie in (0, 1], got {self.rate_budget}")

    @property
    def period(self) -> int:
        return ceil(1.0 / self.rate_budget)


@dataclass(frozen=True)
class SimReport:
    horizon: int
    seed: int
    avg_aoii: float
    avg_rate: float
    aoii_stderr: float
    rate_stderr: float
    max_delta_seen: int
    decode_successes: int


def split_seed(base_seed: int, index: int) -> int:
    """Deterministic, collision-free child seed for replication index."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _cuts(source, channel, rs) -> np.ndarray:
    """Cumulative outcome cuts of a transmit slot at AoII > 0, one column per
    count in rs: [alpha*p | mu*(1-p) | (1-alpha)*p | alpha*(1-p) | rest], i.e.
    decoded and reset, failed and reset, decoded and stale, failed with the
    count kept (r + 1), failed with the count restarted."""
    alpha, mu = source.alpha, source.mu
    p = np.array([channel.success_probability(r) for r in rs], dtype=float)
    c1 = alpha * p
    c2 = c1 + mu * (1.0 - p)
    c3 = c2 + (1.0 - alpha) * p
    return np.array([c1, c2, c3, c3 + alpha * (1.0 - p)])


class _Bursts:
    """HARQ bursts from an AoII above 0 with count 0, drawn as runs.

    A run starts at count 0 and keeps the count (r -> r + 1: failed with the
    source unchanged, probability gamma1(r)) for K - 1 slots, so
    P(K > k) = prod_{j<k} gamma1(j); its K-th slot takes one of the other
    four outcomes of _cuts at r = K - 1.  A burst is the runs up to and
    including the first one that ends in a reset.  Per-count arrays grow on
    demand, so every count a run can reach is covered.
    """

    def __init__(self, source, channel):
        self._source, self._channel = source, channel
        self._grow(64)

    def _grow(self, n: int) -> None:
        cuts = _cuts(self._source, self._channel, range(n))
        keep = cuts[3] - cuts[2]
        self._cuts = cuts[:3]
        self._ending = 1.0 - keep  # mass of the four run-ending outcomes
        self._survival = np.cumprod(keep)[::-1]  # P(K > k) for k = n, ..., 1

    def draw(self, rng, n: int):
        """(lengths, r, decoded) of n bursts: per burst its slot count, and per
        slot, burst after burst, the count before it and whether it decoded."""
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        runs, resets, decodes = [], [], []
        found = drawn = 0
        m = n + 16
        while found < n:
            u = rng.random(m)
            while u.min() < self._survival[0]:
                self._grow(2 * self._survival.size)
            k = 1 + self._survival.size - np.searchsorted(self._survival, u, "right")
            end = rng.random(m) * self._ending[k - 1]
            c1, c2, c3 = self._cuts[:, k - 1]
            reset = end < c2
            runs.append(k)
            resets.append(reset)
            decodes.append((end < c1) | ((end >= c2) & (end < c3)))
            found += int(np.count_nonzero(reset))
            drawn += m
            m = (n - found) * drawn // max(found, 1) + 16
        last = np.flatnonzero(np.concatenate(resets))[:n]
        k = np.concatenate(runs)[: last[-1] + 1]
        run_end = np.cumsum(k)
        lengths = np.diff(run_end[last], prepend=0)
        r = np.arange(run_end[-1]) - np.repeat(run_end - k, k)
        decoded = np.zeros(run_end[-1], dtype=bool)
        decoded[run_end - 1] = np.concatenate(decodes)[: k.size]
        return lengths, r, decoded


def _cycle_block(rng, n_cycles, waits, source, bursts, limit):
    """n_cycles renewal cycles from (0, 0): the slots they cover and, for the
    first limit of those slots, per slot (delta, r, tx, decoded).  Its
    temporaries, a few arrays per slot, are freed before the next block."""
    dwell = rng.geometric(1.0 - source.alpha, n_cycles)
    need = waits(rng, n_cycles)
    back = rng.geometric(source.mu, n_cycles)  # wait slot at which the source returns
    burst = back > need
    blen, rs, decoded = bursts.draw(rng, int(np.count_nonzero(burst)))
    span = dwell + np.where(burst, need, back)
    span[burst] += blen
    first = np.zeros(n_cycles, dtype=np.int64)
    first[burst] = np.cumsum(blen) - blen
    covered = int(span.sum())
    n = min(covered, limit)
    cyc = np.repeat(np.arange(n_cycles), span)[:n]
    lead = np.cumsum(span) - span + dwell - 1  # last AoII-0 slot of each cycle
    delta = np.maximum(np.arange(n) - lead[cyc], 0)
    at = delta - np.where(burst, need + 1, _FAR)[cyc]
    tx = at >= 0
    pos = first[cyc[tx]] + at[tx]
    r = np.zeros(n, dtype=np.int32)
    r[tx] = rs[pos]
    hits = np.zeros(n, dtype=bool)
    hits[tx] = decoded[pos]
    return covered, delta, r, tx, hits


def _cycle_slots(rng, waits, dwell_tx, source, channel, horizon):
    """Regenerative sampler: yields the horizon's slots as (delta, r, tx,
    decodes) chunks of at most _SLOTS slots.

    waits(rng, n) gives each cycle's wait slots before its burst (_FAR:
    none); dwell_tx makes the AoII-0 slots transmit too (period 1).
    """
    p0 = channel.success_probability(0)
    bursts = _Bursts(source, channel)
    drawn = 0  # slots covered by the drawn cycles
    n_cycles = 16
    while drawn < horizon:
        covered, delta, r, tx, hits = _cycle_block(rng, n_cycles, waits, source, bursts, horizon - drawn)
        for lo in range(0, delta.size, _SLOTS):
            part = slice(lo, lo + _SLOTS)
            d, t = delta[part], tx[part]
            decodes = int(np.count_nonzero(hits[part]))
            if dwell_tx:
                dwelling = d == 0
                t = t | dwelling
                decodes += int(rng.binomial(np.count_nonzero(dwelling), p0))
            yield d, r[part], t, decodes
        # burst arrays grow with the slots a block covers, so aim at _BLOCK
        n_cycles = max(16, min(2 * n_cycles, n_cycles * _BLOCK // covered))
        drawn += covered


def _periodic_slots(rng, period, source, channel, horizon):
    """Reset-indicator scan for a period >= 2: yields the horizon's slots as
    (delta, r, tx, decodes) chunks of _SLOTS slots (the last one shorter).

    One uniform per slot.  At AoII 0 the next AoII is 0 iff u < alpha (and a
    transmission decodes iff u < alpha*p or alpha <= u < alpha + (1-alpha)*p);
    at AoII > 0 it is 0 iff u < mu on a wait slot, u < cut 2 of _cuts on a
    transmit slot.
    """
    alpha, mu = source.alpha, source.mu
    c1, c2, c3, c4 = _cuts(source, channel, [0])[:, 0]
    p0 = channel.success_probability(0)
    zero, last_zero, r_in = True, 0, 0  # state entering the chunk
    for t0 in range(0, horizon, _SLOTS):
        n = min(_SLOTS, horizon - t0)
        t = np.arange(t0, t0 + n)
        u = rng.random(n)
        tx = np.zeros(n, dtype=bool)
        on = slice((-t0) % period, None, period)
        tx[on] = True
        from_zero = u < alpha
        from_stale = u < mu
        from_stale[on] = u[on] < c2
        # slot j maps this slot's indicator to the next one's: constant when
        # both branches agree, otherwise identity (from_zero) or flip
        const = from_zero == from_stale
        last = np.maximum.accumulate(np.where(const, np.arange(n), -1))
        flips = np.cumsum(~const & from_stale)
        seen = last >= 0
        anchor = np.maximum(last, 0)
        base = np.where(seen, from_zero[anchor], zero)
        nxt = base ^ ((flips - np.where(seen, flips[anchor], 0)) & 1).astype(bool)
        z = np.concatenate(([zero], nxt[:-1]))
        delta = t - np.maximum(np.maximum.accumulate(np.where(z, t, -1)), last_zero)
        ut, zt = u[on], z[on]
        decodes = np.where(
            zt,
            (ut < alpha * p0) | ((ut >= alpha) & (ut < alpha + (1.0 - alpha) * p0)),
            (ut < c1) | ((ut >= c2) & (ut < c3)),
        )
        kept = np.zeros(n, dtype=np.int32)
        kept[on] = ~zt & (ut >= c3) & (ut < c4)
        r = np.concatenate(([r_in], kept[:-1])).astype(np.int32)
        yield delta, r, tx, int(np.count_nonzero(decodes))
        zero, last_zero, r_in = bool(nxt[-1]), int(t[-1] - delta[-1]), int(kept[-1])


def _batch_stderr(sums: np.ndarray, size: int) -> float:
    if sums.size < 2:
        return 0.0
    means = sums / size
    return float(means.std(ddof=1) / sqrt(sums.size))


def simulate(
    policy,
    source,
    channel,
    penalty,
    horizon: int,
    seed: int,
    *,
    keep_trajectory: bool = False,
):
    """Run one trajectory from (0, 0) and report time averages.

    Periodic policies with period >= 2 use the reset-indicator scan, all
    others the regenerative cycle sampler.  The per-slot cost is the
    pre-transition penalty f(delta_t), slot 0 included; standard errors use
    batch means over 100 contiguous batches.
    With keep_trajectory=True returns (report, (deltas, rs, actions)) where
    the arrays hold the pre-transition state and the action of every slot.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    n_batches = min(100, horizon)
    size = horizon // n_batches
    if isinstance(policy, Periodic) and policy.period > 1:
        slots = _periodic_slots(rng, policy.period, source, channel, horizon)
    elif isinstance(policy, Periodic):
        # period 1: threshold-1 cycles whose AoII-0 slots transmit too
        slots = _cycle_slots(rng, FixedThreshold(1).waits, True, source, channel, horizon)
    else:
        slots = _cycle_slots(rng, policy.waits, False, source, channel, horizon)

    # per batch; the bins past n_batches hold the slots past the last batch
    n_bins = (horizon - 1) // size + 1
    cost_sums = np.zeros(n_bins)
    tx_sums = np.zeros(n_bins, dtype=np.int64)
    max_delta = 0
    decoded = 0
    if keep_trajectory:
        traj = tuple(np.empty(horizon, dtype) for dtype in (np.int64, np.int32, np.uint8))
    t0 = 0
    for delta, r, tx, decodes in slots:
        t1 = t0 + delta.size
        # chunk offsets at which the batches of slots t0 .. t1 - 1 start
        at = [0, *range(-t0 % size or size, delta.size, size)]
        b0 = t0 // size
        cost_sums[b0 : b0 + len(at)] += np.add.reduceat(penalty.evaluate(delta), at)
        tx_sums[b0 : b0 + len(at)] += np.add.reduceat(tx, at, dtype=np.int64)
        max_delta = max(max_delta, int(delta.max()))
        decoded += decodes
        if keep_trajectory:
            for out, part in zip(traj, (delta, r, tx)):
                out[t0:t1] = part
        t0 = t1

    report = SimReport(
        horizon=horizon,
        seed=seed,
        avg_aoii=float(cost_sums.sum() / horizon),
        avg_rate=int(tx_sums.sum()) / horizon,
        aoii_stderr=_batch_stderr(cost_sums[:n_batches], size),
        rate_stderr=_batch_stderr(tx_sums[:n_batches], size),
        max_delta_seen=max_delta,
        decode_successes=decoded,
    )
    if keep_trajectory:
        return report, traj
    return report


def replicate(
    policy,
    source,
    channel,
    penalty,
    horizon: int,
    base_seed: int,
    n_reps: int,
) -> SimReport:
    """n_reps independent trajectories with seeds split(base_seed, i).

    Aggregation is the unweighted mean of replicate means (order-independent);
    with n_reps >= 2 the standard errors are across replicates, and a single
    replicate is returned verbatim.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    reports = [
        simulate(policy, source, channel, penalty, horizon, split_seed(base_seed, i))
        for i in range(n_reps)
    ]
    if n_reps == 1:
        return reports[0]
    aoii = np.array([rep.avg_aoii for rep in reports])
    rate = np.array([rep.avg_rate for rep in reports])
    return SimReport(
        horizon=horizon,
        seed=base_seed,
        avg_aoii=float(aoii.mean()),
        avg_rate=float(rate.mean()),
        aoii_stderr=float(aoii.std(ddof=1) / sqrt(n_reps)),
        rate_stderr=float(rate.std(ddof=1) / sqrt(n_reps)),
        max_delta_seen=max(rep.max_delta_seen for rep in reports),
        decode_successes=sum(rep.decode_successes for rep in reports),
    )
