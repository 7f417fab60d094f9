"""Exact transmission rate and stationary law of threshold policies, and the
per-slot randomized two-threshold policy.

The threshold-n0 chain regenerates at (0, 0).  Its stationary law factorizes
through the burst weights m(h, r) = P^h[0, r] of the lagrangian module's
burst matrix, which trace the state (n0+h, r) back to (n0, 0):

    q_{k,0} = (1-alpha)(1-mu)^(k-1) q00               for 1 <= k <= n0,
    q_{n0+h,r} = (1-alpha)(1-mu)^(n0-1) m(h, r) q00   for h >= 0,

and m(h, r) = m(h-r, 0) prod_{j<r} gamma1(j), since a count of r takes r
consecutive failed transmissions.  The layer sums sum_r m(h, r) are sigma_h,
so q00 = 1/((1-alpha) L) and the rate T/L come from the cycle sums of
lagrangian.cycle_sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lagrangian import SeriesConfig, SigmaSeries, cycle_sums


@dataclass(frozen=True)
class MTable:
    """Burst weights m(h, r) in factored form: m0[h] = m(h, 0) and
    gamma1_prefix[r] = prod_{j<r} gamma1(j) (zero once the product
    underflows)."""

    h_max: int
    m0: np.ndarray
    gamma1_prefix: np.ndarray

    def entry(self, h: int, r: int) -> float:
        if h < 0 or r < 0 or h > self.h_max:
            raise ValueError(f"(h, r) out of range: {(h, r)}")
        if r > h:
            return 0.0
        return float(self.m0[h - r] * self.gamma1_prefix[r])

    def layer_sums(self) -> np.ndarray:
        """sum_r m(h, r) for each h; a convolution of m0 with the prefix products."""
        return np.convolve(self.m0, self.gamma1_prefix)[: self.h_max + 1]


def m_table(source, channel, h_max: int) -> MTable:
    """m(h, 0) and m(h, h) read off the sigma series' mass vector, which is
    row 0 of P^h."""
    if h_max < 0:
        raise ValueError(f"h_max must be nonnegative, got {h_max}")
    series = SigmaSeries(source, channel, SeriesConfig(l_cap=max(h_max, 1)))
    m0 = np.ones(h_max + 1)
    prefix = np.ones(h_max + 1)
    for h in range(1, h_max + 1):
        series.step()
        mass = series.mass
        m0[h] = mass[0]
        prefix[h] = mass[h] if mass.size > h else 0.0
    return MTable(h_max, m0, prefix)


@dataclass(frozen=True)
class RateAnalysis:
    """Stationary summary of the threshold-n0 chain.

    The sigma series is cut at ``depth``, its first term below the tail
    tolerance.  ``stationary`` maps (delta, r) to probability over the ramp
    and the burst layers h < depth; it is built on first read.  The cut
    layer's mass is ``truncation_mass``, so the map plus it sums to one.
    """

    n0: int
    q00: float
    rate: float
    truncation_mass: float
    depth: int
    source: object = field(repr=False, compare=False)
    channel: object = field(repr=False, compare=False)

    @cached_property
    def stationary(self) -> dict[tuple[int, int], float]:
        alpha, mu = self.source.alpha, self.source.mu
        law = {(0, 0): self.q00}
        for k in range(1, self.n0):
            law[(k, 0)] = self.q00 * (1.0 - alpha) * (1.0 - mu) ** (k - 1)
        table = m_table(self.source, self.channel, max(self.depth - 1, 0))
        h, r = np.tril_indices(self.depth)
        scale = self.q00 * (1.0 - alpha) * (1.0 - mu) ** (self.n0 - 1)
        mass = scale * table.m0[h - r] * table.gamma1_prefix[r]
        keep = mass > 0.0
        law.update(zip(zip((self.n0 + h[keep]).tolist(), r[keep].tolist()), mass[keep].tolist()))
        return law


def achieved_rate(n0: int, source, channel, tail_tol: float = 1e-12) -> RateAnalysis:
    """Exact transmission rate T/L of the threshold-n0 policy, with the sigma
    series cut at its first term below tail_tol."""
    if n0 < 1:
        raise ValueError(f"threshold must be >= 1, got {n0}")
    series = SigmaSeries(source, channel, SeriesConfig(epsilon=tail_tol))
    depth = series.raw_depth()
    sigma = series.values()
    alpha, mu = source.alpha, source.mu
    pref = (1.0 - mu) ** (n0 - 1)
    transmissions = pref * float(sigma[: depth + 1].sum())
    length = 1.0 / (1.0 - alpha) + (1.0 - pref) / mu + transmissions
    q00 = 1.0 / ((1.0 - alpha) * length)
    return RateAnalysis(
        n0, q00, transmissions / length, pref * float(sigma[depth]) / length, depth, source, channel
    )


def mixed_chain_analysis(
    n_low: int,
    n_high: int | None,
    rho_high: float,
    source,
    channel,
    penalty,
    tail_tol: float = 1e-12,
) -> tuple[float, float]:
    """Exact long-run (transmission rate, average penalty) of the per-slot
    randomized two-threshold policy.

    Each slot the policy draws threshold n_high with probability rho_high,
    n_low otherwise, and transmits iff the AoII reaches the drawn value.  The
    thresholds must be adjacent, so the draw matters only at AoII = n_low,
    which a renewal cycle visits at most once: each cycle is a threshold-n_high
    cycle with probability rho_high and a threshold-n_low cycle otherwise, and
    the cycle sums (L, T, C) mix linearly.  The sigma series is cut at its
    first term below tail_tol.
    """
    if n_low < 1:
        raise ValueError(f"n_low must be >= 1, got {n_low}")
    if n_high is None:
        n_high = n_low + 1
    if n_high != n_low + 1:
        raise ValueError(f"thresholds must be adjacent, got {(n_low, n_high)}")
    if not 0.0 <= rho_high <= 1.0:
        raise ValueError(f"rho_high must lie in [0, 1], got {rho_high}")
    series = SigmaSeries(source, channel, SeriesConfig(epsilon=tail_tol))
    low = cycle_sums(n_low, source, channel, penalty, series=series)
    high = cycle_sums(n_high, source, channel, penalty, series=series)
    length, transmissions, cost = (rho_high * h + (1.0 - rho_high) * l for h, l in zip(high, low))
    return transmissions / length, cost / length
