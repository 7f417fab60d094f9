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

_LINEAR = PenaltySpec.linear()  # the rate reads L and T, which no penalty changes


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
    r, probability) arrays in the same order.  ``region_masses`` sums the law
    below n0 and from n0 on from its factors, without building it.  The exact
    mass of the layers from ``depth`` on is ``truncation_mass``, so the law
    plus it sums to one.  The depth, the masses and the law are each built on
    first read.
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

    def _factors(self) -> tuple[list[float], np.ndarray, np.ndarray, int]:
        """The law's factors: the ramp q(k, 0) for k = 0 .. n0, whose last
        entry q(n0, 0) scales the burst layers, m_table over the layers h <
        depth, and the number of counts that carry mass (counts past the
        underflow of the gamma1 prefix carry none)."""
        alpha, mu = self.source.alpha, self.source.mu
        ramp = [self.q00]
        ramp += [self.q00 * (1.0 - alpha) * (1.0 - mu) ** (k - 1) for k in range(1, self.n0 + 1)]
        m0, gamma1_prefix = m_table(self.source, self.channel, max(self.depth - 1, 0))
        return ramp, m0, gamma1_prefix, min(int(np.count_nonzero(gamma1_prefix)), self.depth)

    @cached_property
    def region_masses(self) -> tuple[float, float]:
        """(mass below n0, mass from n0 on) of the law: the sums of
        stationary_arrays over delta < n0 and delta >= n0.  A count r reaches
        the layers r <= h < depth, whose inflows m(h - r, 0) sum to a prefix
        sum of m0, so the mass from n0 on is
        q(n0, 0) sum_r gamma1_prefix[r] sum_{j < depth - r} m0[j]."""
        ramp, m0, gamma1_prefix, counts = self._factors()
        layer_sums = np.cumsum(m0[: self.depth])[::-1][:counts]
        return float(np.sum(ramp[:-1])), ramp[-1] * float(gamma1_prefix[:counts] @ layer_sums)

    @cached_property
    def stationary_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The law as (delta, r, probability) arrays: the ramp, then the
        layers h < depth by h and r; the zero entries are left out.  Its sums
        over delta < n0 and delta >= n0 equal region_masses."""
        ramp, m0, gamma1_prefix, counts = self._factors()
        h, r = np.tril_indices(self.depth, m=counts)
        mass = ramp[-1] * m0[h - r] * gamma1_prefix[r]
        keep = mass > 0.0
        deltas = np.concatenate((np.arange(self.n0), self.n0 + h[keep]))
        rs = np.concatenate((np.zeros(self.n0, dtype=r.dtype), r[keep]))
        return deltas, rs, np.concatenate((ramp[:-1], mass[keep]))

    @cached_property
    def stationary(self) -> dict[tuple[int, int], float]:
        deltas, rs, probs = self.stationary_arrays
        return dict(zip(zip(deltas.tolist(), rs.tolist()), probs.tolist()))


def achieved_rate(n0: int, source, channel, cfg: SeriesConfig = SeriesConfig()) -> RateAnalysis:
    """Exact transmission rate T/L of the threshold-n0 policy; its stationary
    law stops at the first sigma term below cfg.epsilon."""
    length, transmissions, _ = cycle_sums(n0, source, channel, _LINEAR)
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
    series = burst_chain(source, channel)
    table = series.table(penalty, cfg)
    low, high = series.cycle_sums(table, n_low), series.cycle_sums(table, n_low + 1)
    length, transmissions, cost = (rho_high * h + (1.0 - rho_high) * l for h, l in zip(high, low))
    return transmissions / length, cost / length
