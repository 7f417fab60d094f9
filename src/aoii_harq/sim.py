"""Seeded slotted Monte Carlo of source + HARQ channel + scheduling policy.

Every policy is a per-slot threshold schedule: slot t transmits iff the AoII
is at least the schedule's t-th threshold (0 transmits always, inf never).
One trajectory consumes pre-drawn uniform blocks from a single PCG64 stream
(the kernel's uniforms first, then whatever the policy's schedule draws), so
identical inputs and seed give bit-identical reports.  Replication seeds are
derived with numpy's SeedSequence spawn keys, which are collision-free and
independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice, repeat
from math import ceil, inf, sqrt

import numpy as np


@dataclass(frozen=True)
class NeverTransmit:
    def schedule(self, rng, horizon: int):
        return repeat(inf, horizon)


@dataclass(frozen=True)
class FixedThreshold:
    """Transmit exactly when the AoII reaches n0."""

    n0: int

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError(f"threshold must be >= 1, got {self.n0}")

    def schedule(self, rng, horizon: int):
        return repeat(self.n0, horizon)


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

    def schedule(self, rng, horizon: int):
        return np.where(rng.random(horizon) < self.rho_high, self.n_high, self.n_low).tolist()


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

    def schedule(self, rng, horizon: int):
        return islice(cycle((0,) + (inf,) * (self.period - 1)), horizon)


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


def _batch_stderr(samples: np.ndarray) -> float:
    n_batches = min(100, samples.size)
    if n_batches < 2:
        return 0.0
    size = samples.size // n_batches
    means = samples[: n_batches * size].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / sqrt(n_batches))


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

    policy.schedule(rng, horizon) yields the per-slot thresholds; it is called
    after the kernel's uniforms are drawn from rng.  The per-slot cost is the
    pre-transition penalty f(delta_t), slot 0 included; standard errors use
    batch means over 100 contiguous batches.
    With keep_trajectory=True returns (report, (deltas, rs, actions)) where
    the arrays hold the pre-transition state and the action of every slot.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    u_step = rng.random(horizon)

    alpha, mu = source.alpha, source.mu

    # Per-count transmit cells, grown on demand: cumulative cuts of
    # [alpha*p | (1-alpha)*p | alpha*(1-p) | mu*(1-p) | rest] so one uniform
    # decides the decode outcome and the source move jointly.
    c1 = np.empty(0)
    c2 = np.empty(0)
    c3 = np.empty(0)
    c4 = np.empty(0)

    def grow_cells(n: int) -> None:
        nonlocal c1, c2, c3, c4
        size = max(n, 2 * c1.size, 64)
        p = np.array([channel.success_probability(r) for r in range(size)])
        c1 = alpha * p
        c2 = p
        c3 = p + alpha * (1.0 - p)
        c4 = c3 + mu * (1.0 - p)

    grow_cells(64)

    # holds the age of each slot until the loop ends, then its penalty
    costs = np.empty(horizon)
    tx_flags = np.zeros(horizon, dtype=np.uint8)
    if keep_trajectory:
        traj_r = np.empty(horizon, dtype=np.int32)

    delta = 0
    r = 0
    decoded = 0
    for t, (u, threshold) in enumerate(zip(u_step, policy.schedule(rng, horizon))):
        costs[t] = delta
        if keep_trajectory:
            traj_r[t] = r
        if delta >= threshold:
            tx_flags[t] = 1
            if r >= c1.size:
                grow_cells(r + 1)
            if delta == 0:
                # decode outcome cells at r = 0: success iff u < p(0)
                if u < c2[0]:
                    decoded += 1
                    delta = 0 if u < c1[0] else 1
                else:
                    rest = 1.0 - c2[0]
                    delta = 0 if u < c2[0] + alpha * rest else 1
                r = 0
            elif u < c1[r]:
                decoded += 1
                delta, r = 0, 0
            elif u < c2[r]:
                decoded += 1
                delta, r = delta + 1, 0
            elif u < c3[r]:
                delta, r = delta + 1, r + 1
            elif u < c4[r]:
                delta, r = 0, 0
            else:
                delta, r = delta + 1, 0
        else:
            if delta == 0:
                delta = 0 if u < alpha else 1
            else:
                delta, r = (0, 0) if u < mu else (delta + 1, 0)

    max_delta_seen = int(costs.max())
    if keep_trajectory:
        traj_delta = costs.astype(np.int64)
    costs = penalty.evaluate(costs)
    report = SimReport(
        horizon=horizon,
        seed=seed,
        avg_aoii=float(costs.mean()),
        avg_rate=int(tx_flags.sum()) / horizon,
        aoii_stderr=_batch_stderr(costs),
        rate_stderr=_batch_stderr(tx_flags.astype(float)),
        max_delta_seen=max_delta_seen,
        decode_successes=decoded,
    )
    if keep_trajectory:
        return report, (traj_delta, traj_r, tx_flags)
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
