"""Seeded slotted Monte Carlo of source + HARQ channel + scheduling policy.

Two exact samplers, both numpy, whose working set does not grow with the
horizon:

- Threshold policies (never-transmit, fixed, per-slot mixed, and periodic
  with period 1) regenerate at (0, 0).  Every renewal cycle is a dwell at
  AoII 0 of Geom(1 - alpha) slots, a wait ramp AoII 1, 2, ... that ends
  when the source wanders back (probability mu per slot) or when the policy
  starts transmitting, and then an HARQ burst that lasts until the AoII
  resets, so its AoII climbs 1, ..., ramp after the dwell and its last blen
  slots transmit.  Cycles are drawn in blocks, each block's bursts as one
  array of runs of failed transmissions (see _Bursts).  The report comes
  from per-cycle sums (renewal reward; Crane and Iglehart 1975; Asmussen and
  Glynn, Stochastic Simulation, ch. IV): a cycle costs dwell f(0) + F[ramp],
  F the prefix sums of f, and a batch boundary or the horizon cuts one cycle
  into a known part (segments).  Per-slot arrays of a block are built only
  for keep_trajectory (_expand).
- Periodic with period >= 2 never transmits in two consecutive slots, so
  every transmission goes out with r = 0, and a stale AoII resets at a
  slot with a probability that depends only on whether the slot transmits.
  The marks module draws these reset marks up front, independent of the
  state, and one Geom(1 - alpha) draw per mark fixes how long the AoII
  stays at 0 before it climbs to the next mark.  It works per mark, not
  per slot.

Both yield their sums over the segments that batch boundaries cut a block
into, and simulate adds them into its batch sums by batch index.  The
per-slot cost is the pre-transition penalty f(delta_t), slot 0 included.
One PCG64 stream per trajectory, drawn in a fixed order, so identical inputs
and seed give bit-identical reports, with or without keep_trajectory.
Replication seeds are derived with numpy's SeedSequence spawn keys, which
are collision-free and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from .marks import periodic_blocks
from .model import transmit_law
from .segments import RampCost, Segments, batch_starts

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


class _Bursts:
    """HARQ bursts from an AoII above 0 with count 0, drawn as runs.

    A run starts at count 0 and keeps the count (r -> r + 1: failed with the
    source unchanged, probability gamma1(r)) for K - 1 slots, so
    P(K > k) = prod_{j<k} gamma1(j); its K-th slot takes one of the other
    four outcomes at r = K - 1, cut cumulatively as [decoded and reset |
    failed and reset | decoded and stale | failed with the count restarted].
    The masses and gamma1 are model.transmit_law's, range-checked there;
    this class forms none of them.  A burst is the runs up to and
    including the first one that ends in a reset.  Per-count arrays grow on
    demand, so every count a run can reach is covered.  Only per-burst and
    per-run data are kept; _expand rebuilds the per-slot counts.
    """

    def __init__(self, source, channel):
        self._source, self._channel = source, channel
        self._grow(64)

    def _grow(self, n: int) -> None:
        _, masses, _ = transmit_law(self._source, self._channel, n)
        # indexed by K = r + 1, so row by row each a 1-d gather
        self._cuts = np.pad(np.cumsum(masses[:3], axis=0), ((0, 0), (1, 0)))
        self._ending = np.pad(1.0 - masses[3], (1, 0))  # mass of the four run-ending outcomes
        self._survival = np.cumprod(masses[3])[::-1]  # P(K > k) for k = n, ..., 1

    def draw(self, rng, n: int):
        """(lengths, run_end, decoded) of n bursts: per burst its slot count,
        and per run, burst after burst, the burst slots up to and including
        its last one, and whether that last slot decoded."""
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
            end = rng.random(m) * self._ending[k]
            c1, c2, c3 = (cut[k] for cut in self._cuts)
            reset = end < c2
            runs.append(k)
            resets.append(reset)
            decodes.append((end < c1) | ((end >= c2) & (end < c3)))
            found += int(np.count_nonzero(reset))
            drawn += m
            m = (n - found) * drawn // max(found, 1) + 16
        last = np.flatnonzero(np.concatenate(resets))[:n]
        run_end = np.cumsum(np.concatenate(runs)[: last[-1] + 1])
        lengths = np.diff(np.concatenate(([0], run_end[last])))
        return lengths, run_end, np.concatenate(decodes)[: run_end.size]


def _cycle_block(rng, n_cycles, waits, source, bursts):
    """n_cycles renewal cycles from (0, 0): per cycle its dwell (AoII-0
    slots), ramp (the AoII then climbs 1, ..., ramp) and blen (the last blen
    ramp slots transmit), and per run of the block's bursts its end and
    decode flag (see _Bursts.draw)."""
    dwell = rng.geometric(1.0 - source.alpha, n_cycles)
    need = waits(rng, n_cycles)
    back = rng.geometric(source.mu, n_cycles)  # wait slot at which the source returns
    burst = back > need
    lengths, run_end, decoded = bursts.draw(rng, int(np.count_nonzero(burst)))
    ramp = np.where(burst, need, back)
    blen = np.zeros(n_cycles, dtype=np.int64)
    blen[burst] = lengths
    ramp += blen
    return dwell, ramp, blen, run_end, decoded


def _expand(cycles, block, n, dwell_tx):
    """Per-slot (delta, r, tx) of the first n slots of a block of cycles: the
    only per-slot view of the regenerative sampler, for keep_trajectory."""
    _, ramp, blen, run_end, _ = block
    cyc, delta = cycles.ages(n)
    at = delta - (ramp - blen + 1)[cyc]  # burst slot within its cycle's burst
    tx = at >= 0
    pos = (np.cumsum(blen) - blen)[cyc[tx]] + at[tx]
    k = np.diff(run_end, prepend=0)
    r = np.zeros(n, dtype=np.int32)
    r[tx] = (np.arange(blen.sum()) - np.repeat(run_end - k, k))[pos]
    return delta, r, (tx | (delta == 0) if dwell_tx else tx)


def _cycle_slots(rng, waits, dwell_tx, source, channel, penalty, size, horizon, keep):
    """Regenerative sampler: yields the horizon block by block as (n, costs,
    txs, top, decodes, slots), costs and txs being the sums over the segments
    that start at batch_starts, top the largest AoII.

    The sums come from per-cycle totals: a cycle's penalty is
    dwell f(0) + F[ramp] and it transmits blen slots, so the totals up to a
    slot are those of the cycles before it plus a part of its own.  The
    transmit slots are the burst slots in order, so the decodes before a cut
    are the decoded runs that end within its transmissions.  waits(rng, n)
    gives each cycle's wait slots before its burst (_FAR: none); dwell_tx
    makes the AoII-0 slots transmit too (period 1), with the decodes of the
    block's dwell slots drawn as one binomial.  slots is _expand's
    (delta, r, tx) of the block if keep, else None.
    """
    p0 = channel.success_probability(0)
    bursts = _Bursts(source, channel)
    ramp_cost = RampCost(penalty)
    t0 = 0  # slots covered by the drawn cycles
    n_cycles = 16
    while t0 < horizon:
        block = _cycle_block(rng, n_cycles, waits, source, bursts)
        dwell, ramp, blen, run_end, decoded = block
        covered = int(dwell.sum() + ramp.sum())
        n = min(covered, horizon - t0)
        cycles = Segments(dwell, ramp, ramp_cost, n)
        sent = np.concatenate(([0], np.cumsum(blen)))  # burst slots of the cycles before each one
        i, into, zeros, costs = cycles.upto(np.array([*batch_starts(t0, n, size), n]))
        txs = sent[i] + np.maximum(into - ramp[i] + blen[i], 0)
        decodes = int(np.count_nonzero(decoded[: np.searchsorted(run_end, txs[-1], "right")]))
        if dwell_tx:
            txs = txs + zeros
            decodes += int(rng.binomial(int(zeros[-1]), p0))
        slots = _expand(cycles, block, n, dwell_tx) if keep else None
        yield n, np.diff(costs), np.diff(txs), cycles.top, decodes, slots
        # burst arrays grow with the slots a block covers, so aim at _BLOCK
        n_cycles = max(16, min(2 * n_cycles, n_cycles * _BLOCK // covered))
        t0 += covered


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

    Periodic policies with period >= 2 use the reset-mark sampler, all
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
        chunks = periodic_blocks(rng, policy.period, source, channel, penalty, size, horizon, keep_trajectory)
    else:
        # period 1: threshold-1 cycles whose AoII-0 slots transmit too
        period_one = isinstance(policy, Periodic)
        waits = FixedThreshold(1).waits if period_one else policy.waits
        chunks = _cycle_slots(rng, waits, period_one, source, channel, penalty, size, horizon, keep_trajectory)

    # per batch; the bins past n_batches hold the slots past the last batch
    n_bins = (horizon - 1) // size + 1
    cost_sums = np.zeros(n_bins)
    tx_sums = np.zeros(n_bins, dtype=np.int64)
    max_delta = 0
    decoded = 0
    if keep_trajectory:
        traj = tuple(np.empty(horizon, dtype) for dtype in (np.int64, np.int32, np.uint8))
    t0 = 0
    for n, costs, txs, top, decodes, slots in chunks:
        b0 = t0 // size
        cost_sums[b0 : b0 + costs.size] += costs
        tx_sums[b0 : b0 + txs.size] += txs
        max_delta = max(max_delta, top)
        decoded += decodes
        if keep_trajectory:
            for out, part in zip(traj, slots):
                out[t0 : t0 + n] = part
        t0 += n

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
