"""Exact transmission rate and stationary law of threshold policies, and the
per-slot randomized two-threshold policy.

The threshold-n0 chain regenerates at (0, 0).  Its stationary law factorizes
through the burst weights m(h, r) = P^h[0, r] of the lagrangian module's
burst matrix, which trace the state (n0+h, r) back to (n0, 0):

    q_{k,0} = (1-alpha)(1-mu)^(k-1) q00               for 1 <= k <= n0,
    q_{n0+h,r} = (1-alpha)(1-mu)^(n0-1) m(h, r) q00   for h >= 0,

and m(h, r) = m(h-r, 0) prod_{j<r} gamma1(j), since a count of r takes r
consecutive failed transmissions.  The layer sums sum_r m(h, r) are sigma_h,
so q00 = 1/((1-alpha) L) and the rate T/L come from the exact cycle sums of
lagrangian.cycle_sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lagrangian import SeriesConfig, burst_chain, cycle_sums
from .model import PenaltySpec


def m_table(source, channel, h_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Burst weights m(h, r) = m0[h - r] * gamma1_prefix[r] for r <= h <= h_max
    in factored form (m0, gamma1_prefix): m0[h] = m(h, 0) = e0' Q^(h-1)
    gamma2, read off the folded burst chain, and gamma1_prefix[r] =
    prod_{j<r} gamma1(j), the running products of gamma1 over the counts
    (zero once the product underflows)."""
    if h_max < 0:
        raise ValueError(f"h_max must be nonnegative, got {h_max}")
    series = burst_chain(source, channel)
    prefix = np.concatenate(([1.0], np.cumprod(np.resize(series.gamma1, h_max))))
    return series.inflow(h_max), prefix


@dataclass(frozen=True)
class RateAnalysis:
    """Stationary summary of the threshold-n0 chain, from its cycle sums L, T.

    The law stops at ``depth``, the first sigma term below ``cut.epsilon``.
    ``stationary`` maps (delta, r) to probability over the ramp and the burst
    layers h < depth, and ``stationary_arrays`` holds the same law as (delta,
    r, probability) arrays in the same order.  The exact mass of the layers
    from ``depth`` on is ``truncation_mass``, so the law plus it sums to one.
    The depth, the mass and the law are each built on first read.
    """

    n0: int
    length: float
    transmissions: float
    cut: SeriesConfig
    source: object = field(repr=False, compare=False)
    channel: object = field(repr=False, compare=False)

    @property
    def q00(self) -> float:
        return 1.0 / ((1.0 - self.source.alpha) * self.length)

    @property
    def rate(self) -> float:
        return self.transmissions / self.length

    @cached_property
    def depth(self) -> int:
        return burst_chain(self.source, self.channel).cutoff(self.cut)

    @cached_property
    def truncation_mass(self) -> float:
        pref = (1.0 - self.source.mu) ** (self.n0 - 1)
        return pref * burst_chain(self.source, self.channel).tail(self.depth) / self.length

    @cached_property
    def stationary_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        alpha, mu = self.source.alpha, self.source.mu
        ramp = [self.q00 * (1.0 - alpha) * (1.0 - mu) ** (k - 1) for k in range(1, self.n0)]
        m0, gamma1_prefix = m_table(self.source, self.channel, max(self.depth - 1, 0))
        # counts past the underflow of the gamma1 prefix carry no mass
        h, r = np.tril_indices(self.depth, m=int(np.count_nonzero(gamma1_prefix)))
        scale = self.q00 * (1.0 - alpha) * (1.0 - mu) ** (self.n0 - 1)
        mass = scale * m0[h - r] * gamma1_prefix[r]
        keep = mass > 0.0
        deltas = np.concatenate((np.arange(self.n0), self.n0 + h[keep]))
        rs = np.concatenate((np.zeros(self.n0, dtype=r.dtype), r[keep]))
        return deltas, rs, np.concatenate(([self.q00], ramp, mass[keep]))

    @cached_property
    def stationary(self) -> dict[tuple[int, int], float]:
        deltas, rs, probs = self.stationary_arrays
        return dict(zip(zip(deltas.tolist(), rs.tolist()), probs.tolist()))


def achieved_rate(n0: int, source, channel, cfg: SeriesConfig = SeriesConfig()) -> RateAnalysis:
    """Exact transmission rate T/L of the threshold-n0 policy; its stationary
    law stops at the first sigma term below cfg.epsilon."""
    length, transmissions, _ = cycle_sums(n0, source, channel, PenaltySpec.linear())
    return RateAnalysis(n0, length, transmissions, cfg, source, channel)


def mixed_chain_analysis(
    n_low: int,
    rho_high: float,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
) -> tuple[float, float]:
    """Exact long-run (transmission rate, average penalty) of the per-slot
    randomized two-threshold policy.

    Each slot the policy draws threshold n_high = n_low + 1 with probability
    rho_high, n_low otherwise, and transmits iff the AoII reaches the drawn
    value.  The thresholds are adjacent, so the draw matters only at
    AoII = n_low, which a renewal cycle visits at most once: each cycle is a
    threshold-n_high cycle with probability rho_high and a threshold-n_low
    cycle otherwise, and the cycle sums (L, T, C) mix linearly.  cfg cuts the
    weighted series of penalties other than linear.
    """
    if n_low < 1:
        raise ValueError(f"n_low must be >= 1, got {n_low}")
    if not 0.0 <= rho_high <= 1.0:
        raise ValueError(f"rho_high must lie in [0, 1], got {rho_high}")
    low = cycle_sums(n_low, source, channel, penalty, cfg)
    high = cycle_sums(n_low + 1, source, channel, penalty, cfg)
    length, transmissions, cost = (rho_high * h + (1.0 - rho_high) * l for h, l in zip(high, low))
    return transmissions / length, cost / length
