"""Closed-form evaluation of threshold policies for the transmission-priced MDP.

A threshold policy waits while the AoII is below n0 and transmits from n0 on.
Its long-run cost and value function admit series expressions driven by

    sigma_l = sum_i P^l[0, i],

where P is the substochastic transmission-burst matrix P[r, 0] = gamma2(r),
P[r, r+1] = gamma1(r): row r describes the outcome of one transmit slot when
the receiver already holds r packets, with the row deficit 1 - gamma1 - gamma2
being the age reset that ends the burst.  The coefficients depend on r only
through k states, so sigma_l = e0' Q^l 1 for a k x k Q, whose sums come
exactly from (I - Q)^-1 (Kemeny & Snell, 1960, ch. III).  burst_chain keeps
one such SigmaSeries, and one walk of its terms, per (source, channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ThresholdSearchError, TruncationError
from .model import gamma_arrays, settled_sum

# Strict-inequality tie break for the threshold condition: margins this close
# to zero count as "not yet optimal" so floating-point noise cannot flip the
# returned integer.
_TIE_TOL = 1e-12

N0_CEILING = 100_000  # largest threshold a search may return
_FOLD_CEILING = 1 << 20  # most burst counts a fold may examine


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation controls for the sigma series and its penalty-weighted sums.

    epsilon cuts the raw series (stop once sigma_l < epsilon); the weighted
    cutoff additionally requires f(delta + l) * sigma_l < weighted_epsilon so
    slowly growing penalties cannot starve the weighted sums; l_cap is a hard
    iteration ceiling beyond which TruncationError is raised.  The linear
    penalty's sums are exact and use none of them.
    """

    epsilon: float = 1e-12
    weighted_epsilon: float = 1e-10
    l_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0 or not self.weighted_epsilon > 0.0:
            raise ValueError(
                "epsilon must lie in (0, 1) (sigma_0 = 1) and weighted_epsilon be positive, "
                f"got {self.epsilon} and {self.weighted_epsilon}"
            )
        if self.l_cap < 1:
            raise ValueError("l_cap must be at least 1")


class SigmaSeries:
    """sigma_l = e0' Q^l 1 on the folded burst chain, its exact sums, and a
    walk of its terms: step h records sigma_h, the inflow m(h, 0) = v_{h-1} .
    gamma2 to count 0 and the tail v_h . x, for v_h = e0' Q^h.

    gamma1, gamma2 (read-only, as is x = (I-Q)^-1 1) hold the k states Q folds
    the burst counts into.  A finite round folds to its round_length counts
    and wraps; an unbounded round with constant coefficients (c = 1, or no
    combining) to one count.  The chain ends early, without a wrap, at the
    first count the burst cannot pass in double precision: where the running
    product of gamma1 is 0.0.
    """

    def __init__(self, source, channel):
        period = channel.round_length
        n = 64
        while n <= _FOLD_CEILING:
            g1, g2 = gamma_arrays(source, channel, n if period is None else min(n, period))
            if period is None and g1[1] == g1[0] and g2[1] == g2[0]:
                g1, g2 = g1[:1], g2[:1]
                break
            dead = np.flatnonzero(np.cumprod(g1) == 0.0)
            if dead.size:
                g1, g2 = np.append(g1[: dead[0]], 0.0), g2[: dead[0] + 1]
                break
            if g1.size == period:
                break
            n *= 2
        else:
            raise TruncationError(f"the burst chain does not fold within {_FOLD_CEILING} states")
        # sum_l sigma_l = x_0 and sum_l l sigma_l = y_0 - x_0 for x = (I-Q)^-1 1
        # and y = (I-Q)^-1 x.  With P_j = prod_{i<j} gamma1(i) and resets e,
        # (I-Q) z = b unrolls to P_j (z_j - z_0) = sum_{i>=j} P_i (b_i - e_i z_0),
        # 0 at j = 0; suffix sums run from the far end, where terms are small.
        prefix = np.concatenate(([1.0], np.cumprod(g1[:-1])))
        ends = prefix * (1.0 - g1 - g2)
        self.total = float(prefix.sum() / ends.sum())
        x = self.total + np.cumsum((prefix - ends * self.total)[::-1])[::-1] / prefix
        self.moment = float(prefix @ x / ends.sum()) - self.total
        g1.flags.writeable = g2.flags.writeable = x.flags.writeable = False
        self.gamma1, self.gamma2, self.x = g1, g2, x
        self._v = np.zeros(g1.size)
        self._v[0] = 1.0
        self._sigma, self._m0, self._tail = [1.0], [1.0], [float(self._v @ x)]

    @property
    def depth(self) -> int:
        """Index of the last term walked."""
        return len(self._sigma) - 1

    def step(self) -> None:
        v = self._v
        inflow = v @ self.gamma2
        moved = v * self.gamma1  # count j -> j + 1, wrapping k - 1 -> 0
        self._v = np.empty_like(v)
        self._v[1:] = moved[:-1]
        self._v[0] = moved[-1] + inflow
        self._sigma.append(float(self._v.sum()))
        self._m0.append(float(inflow))
        self._tail.append(float(self._v @ self.x))

    def _walk(self, depth: int) -> None:
        while self.depth < depth:
            self.step()

    def inflow(self, depth: int) -> np.ndarray:
        """m(h, 0) for h = 0 .. depth: 1 at h = 0, then e0' Q^(h-1) gamma2."""
        self._walk(depth)
        return np.array(self._m0[: depth + 1])

    def tail(self, depth: int) -> float:
        """sum_{l >= depth} sigma_l."""
        self._walk(depth)
        return self._tail[depth]

    def cutoff(self, cfg: SeriesConfig, delta0: int = 0, penalty=None) -> int:
        """First l with sigma_l < epsilon and, given a penalty, also
        f(delta0 + l) * sigma_l < weighted_epsilon.

        The terms already walked are tested as one array; past them the walk
        goes on one term at a time, only as far as the cut.  TruncationError
        is raised when the cut lies past cfg.l_cap.
        """

        def cut(start: int) -> int | None:
            sig = np.array(self._sigma[start:])
            ok = sig < cfg.epsilon
            if penalty is not None:
                ls = np.arange(start, start + sig.size, dtype=float)
                ok &= penalty.evaluate(delta0 + ls) * sig < cfg.weighted_epsilon
            hits = np.flatnonzero(ok)
            return start + int(hits[0]) if hits.size else None

        depth = cut(0)
        while depth is None and self.depth < cfg.l_cap:
            self.step()
            if self._sigma[-1] < cfg.epsilon:
                depth = cut(self.depth)
        if depth is None or depth > cfg.l_cap:
            raise TruncationError(f"sigma series not below cutoff after l_cap={cfg.l_cap} terms")
        return depth

    def sums_for(self, delta0: int, penalty, cfg: SeriesConfig) -> tuple[float, float]:
        """(S, W): S = sum_l sigma_l and W = sum_l f(delta0+l) sigma_l.

        S is exact, and so is W for the linear penalty, which walks nothing.
        Otherwise W is cut at cutoff(cfg, delta0, penalty).
        """
        if getattr(penalty, "kind", None) == "linear":
            return self.total, delta0 * self.total + self.moment
        depth = self.cutoff(cfg, delta0, penalty)
        weights = penalty.evaluate(delta0 + np.arange(depth + 1, dtype=float))
        return self.total, float(weights @ np.array(self._sigma[: depth + 1]))


@lru_cache(maxsize=1)
def burst_chain(source, channel) -> SigmaSeries:
    """The one SigmaSeries of (source, channel), shared by every caller."""
    return SigmaSeries(source, channel)


def sigma_series(source, channel, cfg: SeriesConfig = SeriesConfig()) -> tuple[np.ndarray, int]:
    """sigma_0 .. sigma_L with L the first index below the epsilon cutoff."""
    series = burst_chain(source, channel)
    depth = series.cutoff(cfg)
    return np.array(series._sigma[: depth + 1]), depth


def cycle_sums(
    n0: int,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
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
    sig_sum, weighted = burst_chain(source, channel).sums_for(n0, penalty, cfg)
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
) -> float:
    """Average priced cost (C + lam T)/L of the threshold-n0 policy, from its
    cycle sums.

    Valid for any n0 >= 1 (policy evaluation, not only the optimizer); lam is
    charged once per transmit slot.
    """
    if lam < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    length, transmissions, cost = cycle_sums(n0, source, channel, penalty, cfg)
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
) -> float:
    """Relative value V(delta, 0) of the threshold-n0 policy, anchored at V(0,0)=0.

    For delta >= n0 the transmit-burst series applies:
        V(delta,0) = sum_l (f(delta+l) + lam - g) sigma_l;
    below the threshold, waiting unrolls geometrically into V(n0, 0).
    """
    if delta < 1:
        raise ValueError("V is anchored at V(0,0) = 0; query delta >= 1")
    if delta >= n0:
        sig_sum, weighted = burst_chain(source, channel).sums_for(delta, penalty, cfg)
        return weighted + (lam - g) * sig_sum
    mu = source.mu
    omm = 1.0 - mu
    k = n0 - delta
    i = np.arange(k, dtype=float)
    geo = omm**i
    head = float(geo @ (penalty.evaluate(delta + i) - g))
    v_n0 = value_at(n0, n0, lam, g, source, channel, penalty, cfg)
    return head + omm**k * v_n0


def _threshold_margin(n0, lam, source, channel, penalty, cfg) -> float:
    """LHS of the optimality condition: positive once n0 is large enough."""
    g = g_for_threshold(n0, lam, source, channel, penalty, cfg)
    v_lo = value_at(n0, n0, lam, g, source, channel, penalty, cfg)
    v_hi = value_at(n0 + 1, n0, lam, g, source, channel, penalty, cfg)
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
    def fires(n0: int) -> bool:
        return _threshold_margin(n0, lam, source, channel, penalty, cfg) > _TIE_TOL

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
