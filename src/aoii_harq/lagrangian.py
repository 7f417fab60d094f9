"""Closed-form evaluation of threshold policies for the transmission-priced MDP.

A threshold policy waits while the AoII is below n0 and transmits from n0 on.
Its long-run cost and value function admit series expressions driven by

    sigma_l = sum_i P^l[0, i],

where P is the substochastic transmission-burst matrix P[r, 0] = gamma2(r),
P[r, r+1] = gamma1(r): row r describes the outcome of one transmit slot when
the receiver already holds r packets, with the row deficit 1 - gamma1 - gamma2
being the age reset that ends the burst.  Row 0 of P^l has at most l + 2
nonzero columns, so the series is propagated exactly by a growing mass vector
instead of explicit matrix powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdSearchError, TruncationError
from .model import gamma_arrays, settled_sum

# Strict-inequality tie break for the threshold condition: margins this close
# to zero count as "not yet optimal" so floating-point noise cannot flip the
# returned integer.
_TIE_TOL = 1e-12

_SUPPORT_FLOOR = 1e-300  # drop underflowed burst-length mass

N0_CEILING = 100_000  # largest threshold a search may return


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation controls for the sigma series and its penalty-weighted sums.

    epsilon cuts the raw series (stop once sigma_l < epsilon); the weighted
    cutoff additionally requires f(delta + l) * sigma_l < weighted_epsilon so
    slowly growing penalties cannot starve the weighted sums; l_cap is a hard
    iteration ceiling beyond which TruncationError is raised.
    """

    epsilon: float = 1e-12
    weighted_epsilon: float = 1e-10
    l_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0 or not self.weighted_epsilon > 0.0:
            raise ValueError("epsilon and weighted_epsilon must be positive")
        if self.l_cap < 1:
            raise ValueError("l_cap must be at least 1")


class SigmaSeries:
    """Lazily extended sigma_l sequence with its propagating mass vector."""

    def __init__(self, source, channel, cfg: SeriesConfig):
        self._source = source
        self._channel = channel
        self._cfg = cfg
        self._g1 = np.empty(0)
        self._g2 = np.empty(0)
        self._v = np.array([1.0])
        self._sigma = [1.0]

    def _ensure_gammas(self, n: int) -> None:
        if self._g1.size >= n:
            return
        self._g1, self._g2 = gamma_arrays(
            self._source, self._channel, max(n, 2 * self._g1.size, 64)
        )

    @property
    def depth(self) -> int:
        return len(self._sigma) - 1

    @property
    def mass(self) -> np.ndarray:
        """Row 0 of P^depth: entry r is the burst weight m(depth, r), trailing
        underflowed entries dropped."""
        return self._v

    def step(self) -> float:
        if self.depth >= self._cfg.l_cap:
            raise TruncationError(
                f"sigma series not below cutoff after l_cap={self._cfg.l_cap} terms"
            )
        v = self._v
        k = v.size
        self._ensure_gammas(k)
        new = np.empty(k + 1)
        new[0] = float(v @ self._g2[:k])
        new[1:] = v * self._g1[:k]
        nz = np.nonzero(new >= _SUPPORT_FLOOR)[0]
        self._v = new[: nz[-1] + 1] if nz.size else new[:1]
        s = float(new.sum())
        self._sigma.append(s)
        return s

    def values(self) -> np.ndarray:
        return np.array(self._sigma)

    def _first_depth(self, delta0: int = 0, penalty=None) -> int:
        """First l with sigma_l < epsilon and, given a penalty, also
        f(delta0 + l) * sigma_l < weighted_epsilon.

        The terms already computed are tested as one array; past them the
        series steps one term at a time, only as far as the cut.
        """
        cfg = self._cfg

        def cut(start: int) -> int | None:
            sig = np.array(self._sigma[start:])
            ok = sig < cfg.epsilon
            if penalty is not None:
                ls = np.arange(start, start + sig.size, dtype=float)
                ok &= penalty.evaluate(delta0 + ls) * sig < cfg.weighted_epsilon
            hits = np.flatnonzero(ok)
            return start + int(hits[0]) if hits.size else None

        depth = cut(0)
        while depth is None:
            self.step()
            if self._sigma[-1] < cfg.epsilon:
                depth = cut(self.depth)
        return depth

    def raw_depth(self) -> int:
        """First l with sigma_l < epsilon."""
        return self._first_depth()

    def sums_for(self, delta0: int, penalty) -> tuple[float, float, int]:
        """(S, W, depth): S = sum_l sigma_l and W = sum_l f(delta0+l) sigma_l.

        Truncated at the first l with sigma_l < epsilon and
        f(delta0 + l) * sigma_l < weighted_epsilon; the depth is a function of
        (delta0, penalty, cfg) only, so repeated calls are consistent.
        """
        depth = self._first_depth(delta0, penalty)
        sig = np.array(self._sigma[: depth + 1])
        weights = penalty.evaluate(delta0 + np.arange(depth + 1, dtype=float))
        return float(sig.sum()), float(weights @ sig), depth


def sigma_series(source, channel, cfg: SeriesConfig = SeriesConfig()) -> tuple[np.ndarray, int]:
    """sigma_0 .. sigma_L with L the first index below the epsilon cutoff."""
    series = SigmaSeries(source, channel, cfg)
    depth = series.raw_depth()
    return series.values()[: depth + 1], depth


def cycle_sums(
    n0: int,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    series: SigmaSeries | None = None,
) -> tuple[float, float, float]:
    """Expected slots L, transmissions T and penalty C per renewal cycle of the
    threshold-n0 policy (a cycle starts in (0, 0)).  With P = (1-m)^(n0-1):

        L = 1/(1-a) + sum_{i<n0-1} (1-m)^i + P sum_l sigma_l
        T = P sum_l sigma_l
        C = f(0)/(1-a) + sum_{i<n0-1} (1-m)^i f(i+1) + P sum_l f(n0+l) sigma_l

    By renewal reward the rate is T/L and the average priced cost (C+lam T)/L.
    """
    if n0 < 1:
        raise ValueError(f"threshold must be >= 1, got {n0}")
    if series is None:
        series = SigmaSeries(source, channel, cfg)
    sig_sum, weighted, _ = series.sums_for(n0, penalty)
    alpha, mu = source.alpha, source.mu
    omm = 1.0 - mu
    if n0 > 1:
        i = np.arange(n0 - 1, dtype=float)
        head_f = float(omm**i @ penalty.evaluate(i + 1.0))
    else:
        head_f = 0.0
    pref = omm ** (n0 - 1)
    transmissions = pref * sig_sum
    length = 1.0 / (1.0 - alpha) + (1.0 - pref) / mu + transmissions
    cost = penalty(0) / (1.0 - alpha) + head_f + pref * weighted
    return length, transmissions, cost


def g_for_threshold(
    n0: int,
    lam: float,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    series: SigmaSeries | None = None,
) -> float:
    """Average priced cost (C + lam T)/L of the threshold-n0 policy, from its
    cycle sums.

    Valid for any n0 >= 1 (policy evaluation, not only the optimizer); lam is
    charged once per transmit slot.
    """
    if lam < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    length, transmissions, cost = cycle_sums(n0, source, channel, penalty, cfg, series=series)
    return (cost + lam * transmissions) / length


def value_at(
    delta: int,
    n0: int,
    lam: float,
    g: float,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    series: SigmaSeries | None = None,
) -> float:
    """Relative value V(delta, 0) of the threshold-n0 policy, anchored at V(0,0)=0.

    For delta >= n0 the transmit-burst series applies:
        V(delta,0) = sum_l (f(delta+l) + lam - g) sigma_l;
    below the threshold, waiting unrolls geometrically into V(n0, 0).
    """
    if delta < 1:
        raise ValueError("V is anchored at V(0,0) = 0; query delta >= 1")
    if series is None:
        series = SigmaSeries(source, channel, cfg)
    if delta >= n0:
        sig_sum, weighted, _ = series.sums_for(delta, penalty)
        return weighted + (lam - g) * sig_sum
    mu = source.mu
    omm = 1.0 - mu
    k = n0 - delta
    i = np.arange(k, dtype=float)
    geo = omm**i
    head = float(geo @ (penalty.evaluate(delta + i) - g))
    v_n0 = value_at(n0, n0, lam, g, source, channel, penalty, cfg, series=series)
    return head + omm**k * v_n0


def _threshold_margin(n0, lam, source, channel, penalty, cfg, series) -> float:
    """LHS of the optimality condition: positive once n0 is large enough."""
    g = g_for_threshold(n0, lam, source, channel, penalty, cfg, series=series)
    v_lo = value_at(n0, n0, lam, g, source, channel, penalty, cfg, series=series)
    v_hi = value_at(n0 + 1, n0, lam, g, source, channel, penalty, cfg, series=series)
    return (1.0 - source.mu) * v_hi - v_lo + penalty(n0) - g


def least_true(fires, start: int) -> int:
    """Least integer n > start with fires(n), for a predicate that is false up
    to some point and true from it on.

    Probes start + 1, start + 2, start + 4, ... (the last probe capped at
    N0_CEILING) until one fires, then bisects the integers between the last
    two probes.
    """
    lo, hi = start, start + 1
    while not fires(hi):
        if hi >= N0_CEILING:
            raise ThresholdSearchError(
                f"no threshold up to n0={N0_CEILING} satisfies the search condition; "
                "the multiplier, penalty or budget is likely degenerate"
            )
        lo, hi = hi, min(2 * hi - start, N0_CEILING)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return hi


def optimal_threshold(
    lam: float,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
) -> int | None:
    """Least n0 >= 1 whose margin is strictly positive, or None (never transmit).

    For mu >= alpha transmission cannot beat waiting and None is returned.
    Otherwise the margin is nondecreasing in n0, so the least positive point
    is located by least_true.
    """
    if source.mu >= source.alpha:
        return None
    series = SigmaSeries(source, channel, cfg)

    def fires(n0: int) -> bool:
        return _threshold_margin(n0, lam, source, channel, penalty, cfg, series) > _TIE_TOL

    return least_true(fires, 0)


def g_wait(source, penalty, cfg: SeriesConfig = SeriesConfig()) -> float:
    """Long-run average penalty of the never-transmit policy.

    From the waiting chain's anchored Bellman identities
    g = f(0) + (1-a) V(1,0) and V(d,0) = f(d) - g + (1-m) V(d+1,0):

        g = m * (f(0) + (1-a) * sum_{i>=0} (1-m)^i f(i+1)) / (m + 1 - a)

    For the linear penalty the series is 1/m^2, giving
    g = (1-a) / (m * (m + 1 - a)).  Other penalties are summed numerically to
    weighted_epsilon stabilization.
    """
    alpha, mu = source.alpha, source.mu
    if getattr(penalty, "kind", None) == "linear":
        return (1.0 - alpha) / (mu * (mu + 1.0 - alpha))
    total = settled_sum(penalty, 1.0 - mu, 0, cfg.weighted_epsilon, cfg.l_cap)
    return mu * (penalty(0) + (1.0 - alpha) * total) / (mu + 1.0 - alpha)
