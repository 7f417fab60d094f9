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
one such SigmaSeries per (source, channel), for the CHAIN_CACHE_SIZE pairs
read last: one walk of its terms, and one ChainTable per (penalty, cut) of
the W(delta0), cycle sums and step costs computed, at most MEMO_SIZE entries
in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, ThresholdSearchError, TruncationError
from .model import gamma_arrays, settling_term

# Strict-inequality tie break for the threshold condition: margins this close
# to zero count as "not yet optimal" so floating-point noise cannot flip the
# returned integer.
_TIE_TOL = 1e-12

N0_CEILING = 100_000  # largest threshold a search may return
CHAIN_CACHE_SIZE = 8  # burst chains kept: a CLI command reads one, interleaved figure curves six
MEMO_SIZE = 4096  # entries a chain's tables hold together before they start over, 100-200 B each
_FOLD_CEILING = 1 << 20  # most burst counts a fold may examine
_WALK_BLOCK = 64  # fewest terms a weighted cut walks between two tests
_SERIES_BLOCK = 8192  # terms the waiting cost sums at a time


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation controls for the sigma series and its penalty-weighted sums.

    epsilon cuts the raw series (SigmaSeries.cutoff stops once sigma_l <
    epsilon); the weighted cut (SigmaSeries.weighted_sum) additionally requires
    f(delta + l) * sigma_l < weighted_epsilon so slowly growing penalties
    cannot starve the weighted sums; l_cap is a hard iteration ceiling beyond
    which TruncationError is raised.  The linear penalty's sums are exact and
    use none of them.
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


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


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

    cutoff makes the epsilon cut of the series, and weighted_sum the
    penalty-weighted cut of W(delta0) = sum_l f(delta0 + l) sigma_l, which it
    sums.  The walked terms live in float64 buffers that double in size as
    the walk grows; queries read views of them, never copies.  table gives
    the memo of one (penalty, cut), read and filled by weighted, cycle_sums
    and step_cost; tie_price, the one comparison of adjacent thresholds,
    reads n0's cycle sums and step cost from it.  mu_s is mu S, for
    S = sum_l sigma_l.
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
        # sigma, m0 and tail of the terms walked: the first _size entries
        self._sigma, self._m0, self._tail = np.empty(64), np.empty(64), np.empty(64)
        self._sigma[0], self._m0[0], self._tail[0] = 1.0, 1.0, self._v @ x
        self._size = 1
        self.source, self.mu_s = source, source.mu * self.total
        self.tables: dict[tuple, ChainTable] = {}
        self._entries = 0

    def table(self, penalty, cfg: SeriesConfig) -> "ChainTable":
        """The memo of (penalty, cut); a linear penalty's sums read no cut, so
        its key has none."""
        key = (penalty, None if getattr(penalty, "kind", None) == "linear" else cfg)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = ChainTable(key, penalty, cfg)
        return table

    def _read(self, table: "ChainTable", quantity: str, compute, n0: int):
        """table's (quantity, n0) entry, compute(n0, self, table) once.  At
        MEMO_SIZE entries all tables are emptied and forgotten, table kept:
        they hold pure values, so only the time differs."""
        value = table.get((quantity, n0))
        if value is None:
            value = compute(n0, self, table)
            if self._entries >= MEMO_SIZE:
                for held in self.tables.values():
                    held.clear()
                table.clear()
                self.tables = {table.key: table}
                self._entries = 0
            self._entries += 1
            table[quantity, n0] = value
        return value

    def weighted(self, table: "ChainTable", delta0: int) -> float:
        """weighted_sum(delta0) of table's penalty and cut."""
        return self._read(table, "W", _weighted, delta0)

    def cycle_sums(self, table: "ChainTable", n0: int) -> tuple[float, float, float]:
        """The module's ``cycle_sums`` of n0, on table."""
        return self._read(table, "sums", _cycle_sums, n0)

    def step_cost(self, table: "ChainTable", n0: int) -> float:
        """D = f(n0) + (1-mu) W(n0+1) - W(n0), with W(d) = sum_l f(d+l) sigma_l,
        on table.

        Moving the threshold from n0 to n0 + 1 changes the cycle sums (L, T, C)
        by exactly P (1 - mu S, -mu S, D), with P = (1-mu)^(n0-1) and
        S = sum_l sigma_l: one more waiting slot, at penalty f(n0), before the
        burst starts one age later.
        """
        return self._read(table, "step", _step_cost, n0)

    def tie_price(self, table: "ChainTable", n0: int) -> float:
        """Price at which thresholds n0 and n0 + 1 cost the same, from n0's
        cycle sums (L, T, C) and step cost D on table:

            (D L - (1 - mu S) C) / (mu S L + (1 - mu S) T)

        The denominator is positive since L > T.  Nothing subtracts two
        thresholds' sums, so the price keeps its precision where (1-mu)^n0 is
        small.  This is the one comparison of n0 with n0 + 1: the threshold
        search and the solve's certificate both read it.
        """
        length, transmissions, cost = self.cycle_sums(table, n0)
        mu_s = self.mu_s
        step = self.step_cost(table, n0)
        return (step * length - (1.0 - mu_s) * cost) / (mu_s * length + (1.0 - mu_s) * transmissions)

    @property
    def depth(self) -> int:
        """Index of the last term walked."""
        return self._size - 1

    def step(self) -> None:
        v = self._v
        inflow = v @ self.gamma2
        moved = v * self.gamma1  # count j -> j + 1, wrapping k - 1 -> 0
        self._v = np.empty_like(v)
        self._v[1:] = moved[:-1]
        self._v[0] = moved[-1] + inflow
        h = self._size
        if h == self._sigma.size:
            self._sigma, self._m0, self._tail = (
                np.concatenate((buf, np.empty(h))) for buf in (self._sigma, self._m0, self._tail)
            )
        self._sigma[h] = self._v.sum()
        self._m0[h] = inflow
        self._tail[h] = self._v @ self.x
        self._size = h + 1

    def _walk(self, depth: int) -> None:
        while self.depth < depth:
            self.step()

    def inflow(self, depth: int) -> np.ndarray:
        """m(h, 0) for h = 0 .. depth: 1 at h = 0, then e0' Q^(h-1) gamma2,
        a read-only view."""
        self._walk(depth)
        return _read_only(self._m0[: depth + 1])

    def tail(self, depth: int) -> float:
        """sum_{l >= depth} sigma_l."""
        self._walk(depth)
        return float(self._tail[depth])

    def cutoff(self, cfg: SeriesConfig) -> int:
        """The epsilon cut: the first l with sigma_l < epsilon.

        The terms already walked are tested as one array.  Past them the walk
        goes on one term at a time.  It stops at cfg.l_cap, and
        TruncationError is raised when the cut lies past it.
        """
        below = np.flatnonzero(self._sigma[: self._size] < cfg.epsilon)
        depth = int(below[0]) if below.size else None
        while depth is None and self.depth < cfg.l_cap:
            self.step()
            if self._sigma[self.depth] < cfg.epsilon:
                depth = self.depth
        if depth is None or depth > cfg.l_cap:
            raise TruncationError(f"sigma series not below cutoff after l_cap={cfg.l_cap} terms")
        return depth

    def weighted_sum(self, delta0: int, penalty, cfg: SeriesConfig) -> float:
        """W = sum_l f(delta0 + l) sigma_l, cut at the weighted cut.

        W is exact for the linear penalty, which walks nothing.  Otherwise the
        weighted cut is the first l from cutoff(cfg) on with sigma_l < epsilon
        and f(delta0 + l) * sigma_l < weighted_epsilon.  Past the terms
        already walked, the walk goes on in blocks of at least _WALK_BLOCK
        terms (an eighth of the walk).  f is evaluated once per age in one
        array, on the terms each block adds, and only those terms are tested.
        The walk stops at cfg.l_cap, and TruncationError is raised when the
        cut lies past it.  f is evaluated with numpy's overflow warnings off:
        an f(delta0 + l) that is not finite does not meet the cut.
        """
        if getattr(penalty, "kind", None) == "linear":
            return delta0 * self.total + self.moment
        start = self.cutoff(cfg)
        f = np.empty(0)
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                f = np.concatenate((f, penalty.evaluate(delta0 + np.arange(f.size, self._size, dtype=float))))
                sig = self._sigma[start : self._size]
                hits = np.flatnonzero((sig < cfg.epsilon) & (f[start:] * sig < cfg.weighted_epsilon))
                if hits.size or self.depth >= cfg.l_cap:
                    break
                start = self._size
                self._walk(min(self.depth + max(_WALK_BLOCK, self._size >> 3), cfg.l_cap))
        if not hits.size or start + hits[0] > cfg.l_cap:
            raise TruncationError(f"sigma series not below cutoff after l_cap={cfg.l_cap} terms")
        depth = start + int(hits[0])
        return float(f[: depth + 1] @ self._sigma[: depth + 1])


class ChainTable(dict):
    """The memo of one (penalty, cut) on a chain: W(delta0), the cycle sums
    and the step cost, keyed by (quantity, n0).  It holds no reference to
    its chain, so an evicted chain is freed at once."""

    __slots__ = ("key", "penalty", "cfg")

    def __init__(self, key: tuple, penalty, cfg: SeriesConfig):
        super().__init__()
        self.key, self.penalty, self.cfg = key, penalty, cfg


def _weighted(delta0, series, table) -> float:
    return series.weighted_sum(delta0, table.penalty, table.cfg)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def burst_chain(source, channel) -> SigmaSeries:
    """The one SigmaSeries of (source, channel), shared by every caller; the
    CHAIN_CACHE_SIZE pairs read last keep theirs, each its k-state arrays, 3
    float64 per walked term and at most MEMO_SIZE table entries.  No answer
    depends on what is cached: a cut is the first term that passes its test."""
    return SigmaSeries(source, channel)


def sigma_series(source, channel, cfg: SeriesConfig = SeriesConfig()) -> tuple[np.ndarray, int]:
    """sigma_0 .. sigma_L with L the first index below the epsilon cutoff."""
    series = burst_chain(source, channel)
    depth = series.cutoff(cfg)
    return _read_only(series._sigma[: depth + 1]), depth


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
    Memoized on the chain's table.
    """
    if n0 < 1:
        raise ValueError(f"threshold must be >= 1, got {n0}")
    series = burst_chain(source, channel)
    return series.cycle_sums(series.table(penalty, cfg), n0)


def _cycle_sums(n0, series, table) -> tuple[float, float, float]:
    penalty = table.penalty
    weighted = series.weighted(table, n0)
    alpha, mu = series.source.alpha, series.source.mu
    omm = 1.0 - mu
    if n0 > 1:
        i = np.arange(n0 - 1, dtype=float)
        head_f = float(omm**i @ penalty.evaluate(i + 1.0))
    else:
        head_f = 0.0
    pref = omm ** (n0 - 1)
    transmissions = pref * series.total
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
        V(delta,0) = sum_l (f(delta+l) + lam - g) sigma_l,
    with W(delta) = sum_l f(delta+l) sigma_l read from the chain's table;
    below the threshold, waiting unrolls geometrically into V(n0, 0).
    """
    if delta < 1:
        raise ValueError("V is anchored at V(0,0) = 0; query delta >= 1")
    if delta >= n0:
        series = burst_chain(source, channel)
        return series.weighted(series.table(penalty, cfg), delta) + (lam - g) * series.total
    mu = source.mu
    omm = 1.0 - mu
    k = n0 - delta
    i = np.arange(k, dtype=float)
    geo = omm**i
    head = float(geo @ (penalty.evaluate(delta + i) - g))
    v_n0 = value_at(n0, n0, lam, g, source, channel, penalty, cfg)
    return head + omm**k * v_n0


def _step_cost(n0, series, table) -> float:
    w_lo = series.weighted(table, n0)
    w_hi = series.weighted(table, n0 + 1)
    return table.penalty(n0) + (1.0 - series.source.mu) * w_hi - w_lo


def least_true(fires, start: int) -> int:
    """Least integer n > start with fires(n), for a predicate that is false up
    to some point and true from it on.

    Probes start + 1, start + 2, start + 4, ... (the last probe capped at
    N0_CEILING) until one fires, then bisects the integers between the last
    two probes.  Nothing past N0_CEILING is probed or returned:
    ThresholdSearchError is raised when no n up to it fires, or start has
    reached it.
    """
    lo, hi = start, start + 1
    while hi > N0_CEILING or not fires(hi):
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
    Otherwise the search reads its chain's table once, and compares lam with
    each probed n0's tie price: the margin of the optimality condition,
    (1-mu) V(n0+1) - V(n0) + f(n0) - g, is (tie - lam) (mu S + (1 - mu S) T/L)
    from n0's cycle sums (L, T, C).  The margin is nondecreasing in n0, so
    the least positive point is located by least_true.
    """
    if source.mu >= source.alpha:
        return None
    if lam < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    series = burst_chain(source, channel)
    table = series.table(penalty, cfg)
    mu_s = series.mu_s

    def fires(n0: int) -> bool:
        length, transmissions, _ = series.cycle_sums(table, n0)
        return (series.tie_price(table, n0) - lam) * (mu_s + (1.0 - mu_s) * transmissions / length) > _TIE_TOL

    return least_true(fires, 0)


def g_wait(source, penalty, cfg: SeriesConfig = SeriesConfig()) -> float:
    """Long-run average penalty of the never-transmit policy.

    From the waiting chain's anchored Bellman identities
    g = f(0) + (1-a) V(1,0) and V(d,0) = f(d) - g + (1-m) V(d+1,0):

        g = m * (f(0) + (1-a) * sum_{i>=0} (1-m)^i f(i+1)) / (m + 1 - a)

    For the linear penalty the series is 1/m^2, giving
    g = (1-a) / (m * (m + 1 - a)).  A table penalty's series is exact too:
    its head f(1) .. f(k-1), for k = len(table) - 1, then the linear tail
    f(k + j) = a + b j, a = table[-1] and b the last difference, which sums
    to (1-m)^(k-1) (a/m + b (1-m)/m^2).  Power penalties sum the series up to
    the term ``settling_term`` finds with weighted_epsilon and l_cap, in
    blocks of _SERIES_BLOCK terms; DivergenceError is raised when no term
    settles, or when the sum is not finite.
    """
    alpha, mu = source.alpha, source.mu
    kind = getattr(penalty, "kind", None)
    if kind == "linear":
        return (1.0 - alpha) / (mu * (mu + 1.0 - alpha))
    q = 1.0 - mu
    if kind == "table":
        vals = np.asarray(penalty.table, dtype=float)
        k = vals.size - 1
        with np.errstate(over="ignore", invalid="ignore"):
            head = float(vals[1:k] @ np.power(q, np.arange(k - 1, dtype=float)))
            total = head + q ** (k - 1) * (vals[k] / mu + (vals[k] - vals[k - 1]) * q / mu**2)
    else:
        last = settling_term(penalty, q, 0, cfg.weighted_epsilon, cfg.l_cap)
        if last is None:
            raise DivergenceError(f"the waiting series, q = {q!r}, does not settle by l_cap={cfg.l_cap}")
        total = 0.0
        with np.errstate(over="ignore"):
            for i in range(0, last + 1, _SERIES_BLOCK):
                idx = np.arange(i, min(i + _SERIES_BLOCK, last + 1), dtype=float)
                total += float((penalty.evaluate(idx + 1.0) * np.power(q, idx)).sum())
    if not np.isfinite(total):
        raise DivergenceError(f"the waiting series, q = {q!r}, has a sum that is not finite")
    return mu * (penalty(0) + (1.0 - alpha) * total) / (mu + 1.0 - alpha)
