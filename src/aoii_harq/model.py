"""Markov source, HARQ channel, AoII penalty, and the transmit kernel.

The controlled process lives on states (delta, r): delta is the age of
incorrect information (consecutive slots the monitor's estimate has disagreed
with the source) and r is the number of packets already sent for the value
currently being communicated.  Per slot the scheduler either waits or
transmits; a transmission is decoded with probability p(r) that grows with r
when the decoder soft-combines retransmissions.

Waiting from a stale state resets the AoII with probability mu, and at
delta = 0 either action keeps it at 0 with probability alpha.  A transmission
from a stale state advances the count with gamma1(r), restarts it with
gamma2(r) and resets the rest.  ``transmit_law`` alone forms and range-checks
a transmit slot's outcome masses; ``gamma_arrays`` reads gamma1 and gamma2
from it, and both simulator samplers their cuts.  The per-state view of the
kernel is a test oracle.

The problem is well posed when always transmitting has a finite average
AoII, sum_l f(l+1) q^l < inf with q = gamma1(0) + gamma2(0).
``validate_boundedness`` certifies this from where the terms settle, at a
few dozen ages, without summing them; ``settling_term`` finds that term,
for the certificate and for the waiting cost's series alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateKernelError

_EQ_TOL = 1e-12
BOUNDEDNESS_TOL = 1e-10  # a certified series' settling term lies below this
BOUNDEDNESS_L_CAP = 1_000_000  # a series not settled by this term is refused
# term indices at which settling_term tests the settle rule past a table's
# head: geometric from 1 to BOUNDEDNESS_L_CAP, 39 distinct
_PROBES = np.array(sorted({round(BOUNDEDNESS_L_CAP ** (k / 39)) for k in range(40)}), dtype=float)
SETTLE_CACHE_SIZE = 32  # settle rules kept: a few penalties on each cached chain
GAMMA_CACHE_SIZE = 32  # gamma pairs kept: the certificate reads r = 0 of each pair it solves


@dataclass(frozen=True)
class SourceModel:
    """N-ary symmetric Markov source.

    alpha is the per-slot probability of staying in the current state, mu the
    probability of moving to each particular other state, so normalization
    requires (N-1)*mu + alpha = 1.  ``n_states`` is optional metadata checked
    against that identity when present; the (alpha, mu) parametrization keeps
    the infinite-N limits expressible directly.

    alpha + mu <= 1 is required (it is implied by N >= 2) so the transmit
    kernel coefficients stay nonnegative for every channel.  mu = 0 is
    rejected: the waiting chain would not be positive recurrent and the
    waiting-policy cost diverges.
    """

    alpha: float
    mu: float
    n_states: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if self.alpha + self.mu > 1.0 + _EQ_TOL:
            raise ValueError(
                f"alpha + mu = {self.alpha + self.mu!r} exceeds 1; a symmetric "
                "source needs at least two states"
            )
        if self.n_states is not None:
            if not isinstance(self.n_states, int) or self.n_states < 2:
                raise ValueError(f"n_states must be an integer >= 2, got {self.n_states!r}")
            residual = (self.n_states - 1) * self.mu + self.alpha - 1.0
            if abs(residual) > _EQ_TOL:
                raise ValueError(
                    f"(n_states-1)*mu + alpha deviates from 1 by {residual:.3e}; "
                    "inconsistent symmetric-source parameters"
                )

    @classmethod
    def from_states(cls, alpha: float, n_states: int) -> "SourceModel":
        """Build a source from (alpha, N) with mu = (1-alpha)/(N-1)."""
        if not isinstance(n_states, int) or n_states < 2:
            raise ValueError(f"n_states must be an integer >= 2, got {n_states!r}")
        return cls(alpha=alpha, mu=(1.0 - alpha) / (n_states - 1), n_states=n_states)


@dataclass(frozen=True)
class ChannelModel:
    """HARQ decoding law p(r) = 1 - p_e * c**r.

    r counts the packets the receiver already holds for the current value.
    With a finite retransmission budget the round restarts after r_max + 1
    failures, so the exponent wraps: p(r) = 1 - p_e * c**(r mod (r_max+1)).
    combining="none" (plain ARQ, no soft combining) keeps the first-packet
    error rate on every attempt, i.e. behaves as c = 1.
    """

    p_e: float
    c: float
    r_max: int | None = None
    combining: str = "soft"

    def __post_init__(self) -> None:
        if not 0.0 < self.p_e < 1.0:
            raise ValueError(f"p_e must lie in (0, 1), got {self.p_e}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"c must lie in (0, 1], got {self.c}")
        if self.r_max is not None and (not isinstance(self.r_max, int) or self.r_max < 0):
            raise ValueError(f"r_max must be a nonnegative integer or None, got {self.r_max!r}")
        if self.combining not in ("soft", "none"):
            raise ValueError(f"combining must be 'soft' or 'none', got {self.combining!r}")

    @property
    def round_length(self) -> int | None:
        """Number of attempts per HARQ round, or None when unbounded."""
        return None if self.r_max is None else self.r_max + 1

    def error_probability(self, r):
        """q(r) = p_e * c**(r mod (r_max+1)) for a count or an array of counts,
        formed directly (1 - p(r) would cancel to 0 below 1.1e-16) and from
        Python float powers."""
        c = 1.0 if self.combining == "none" else self.c
        if self.r_max is not None:
            r = r % (self.r_max + 1)
        return np.array([self.p_e * c**i for i in range(int(np.max(r, initial=0)) + 1)])[r]

    def success_probability(self, r):
        return 1.0 - self.error_probability(r)


@dataclass(frozen=True)
class PenaltySpec:
    """Strictly increasing, unbounded AoII penalty f: N -> R>=0.

    Kinds: "linear" f(d)=d, "power" f(d)=d**exponent with exponent >= 1, and
    "table", which holds explicit values for d < len(table) and extrapolates
    linearly beyond with the last finite difference.
    """

    kind: str
    exponent: float = 1.0
    table: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "linear":
            pass
        elif self.kind == "power":
            if not self.exponent >= 1.0:
                raise ValueError(f"power penalty needs exponent >= 1, got {self.exponent}")
        elif self.kind == "table":
            vals = np.asarray(self.table, dtype=float)
            if vals.size < 2:
                raise ValueError("table penalty needs at least two values")
            if vals[0] < 0.0:
                raise ValueError("penalty values must be nonnegative")
            if not np.all(np.diff(vals) > 0.0):
                raise ValueError("table penalty must be strictly increasing")
        else:
            raise ValueError(f"unknown penalty kind {self.kind!r}")

    @classmethod
    def linear(cls) -> "PenaltySpec":
        return cls(kind="linear")

    @classmethod
    def power(cls, exponent: float) -> "PenaltySpec":
        return cls(kind="power", exponent=float(exponent))

    @classmethod
    def from_table(cls, values) -> "PenaltySpec":
        return cls(kind="table", table=tuple(float(v) for v in values))

    def evaluate(self, delta) -> np.ndarray:
        """Vectorized evaluation over an array of ages."""
        d = np.asarray(delta, dtype=float)
        if self.kind == "linear":
            return d + 0.0
        if self.kind == "power":
            return d**self.exponent
        vals = np.asarray(self.table, dtype=float)
        last = vals.size - 1
        idx = np.minimum(d.astype(np.int64), last)
        step = vals[last] - vals[last - 1]
        over = np.maximum(d - last, 0.0)
        return vals[idx] + step * over

    def __call__(self, delta) -> float:
        return float(self.evaluate(delta))


@dataclass(frozen=True)
class GammaPair:
    """Transmit-branch coefficients gamma1(r) = alpha*(1-p(r)) and
    gamma2(r) = 1 - alpha - mu*(1-p(r))."""

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if self.gamma1 < 0.0 or self.gamma2 < 0.0:
            raise ValueError(f"gamma coefficients must be nonnegative, got {self}")
        if self.gamma1 + self.gamma2 >= 1.0:
            raise ValueError(f"gamma1 + gamma2 must stay below 1, got {self}")

    @property
    def reset_probability(self) -> float:
        """Probability the AoII drops to zero after a transmit slot."""
        return 1.0 - self.gamma1 - self.gamma2


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def gamma(source: SourceModel, channel, r: int) -> GammaPair:
    """Transmit-branch coefficients for transmission count r: entry r of
    ``gamma_arrays``.  Pure in its arguments and frozen, so the
    GAMMA_CACHE_SIZE latest are memoized; a kernel out of range raises on
    every call, since an exception is not cached."""
    g1, g2 = gamma_arrays(source, channel, r + 1)
    return GammaPair(float(g1[r]), float(g2[r]))


def transmit_law(source: SourceModel, channel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of a transmit slot for counts r < n, as (p, masses, gamma2).

    p(r) = 1 - q(r) decodes, q(r) from ``channel.error_probability``.  The
    rows of masses are the outcomes from a stale AoII: decoded and reset
    alpha*p, failed and reset mu*q, decoded and stale (1-alpha)*p, and kept
    alpha*q = gamma1(r), failed with the source unchanged (r -> r + 1); the
    rest, (1-alpha-mu)*q, restarts the count.  gamma2(r) = 1 - alpha - mu*q.
    Checked as GammaPair checks each pair: raises DegenerateKernelError (a
    SolverError and a ValueError) at the first r out of range.
    """
    q = channel.error_probability(np.arange(n))
    p = 1.0 - q
    alpha, mu = source.alpha, source.mu
    masses = np.array([alpha * p, mu * q, (1.0 - alpha) * p, alpha * q])
    g1, g2 = masses[3], 1.0 - alpha - masses[1]
    bad = np.nonzero((g1 < 0.0) | (g2 < 0.0) | (g1 + g2 >= 1.0))[0]
    if bad.size:
        r = int(bad[0])
        raise DegenerateKernelError(
            f"gamma coefficients at r={r} must be nonnegative and sum below 1, "
            f"got gamma1={float(g1[r])!r}, gamma2={float(g2[r])!r}"
        )
    return p, masses, g2


def gamma_arrays(source: SourceModel, channel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma1(r) and gamma2(r) for r < n as arrays, from ``transmit_law``."""
    _, masses, g2 = transmit_law(source, channel, n)
    return masses[3], g2


@lru_cache(maxsize=SETTLE_CACHE_SIZE)
def settling_term(penalty, q: float, start: int, tol: float, l_cap: int) -> int | None:
    """Index l <= ``l_cap`` of a term of t_l = f(l+1) q^l, l >= ``start``, that
    settles: is 0, or is below ``tol`` and below t_{l-1} (t_{start-1}
    counting as infinite).  None when no term settles by ``l_cap``.

    Nothing is summed.  Past a table penalty's head of len(table) terms,
    every penalty the package accepts (linear, power, a table's linear tail)
    has log-concave terms, so once a term settles every later one does.  The
    rule therefore evaluates, in one ``penalty.evaluate`` call, the head, the
    geometric _PROBES below ``l_cap`` and ``l_cap`` itself, each term with its
    predecessor.  It returns the first probe that settles, from which on
    every term is settled and falling, or, when no probe does, the first head
    term that settles, which promises nothing of the terms after it (a table
    may jump).  A term that is not finite (an f that overflows) never
    settles, and a finite term, however large, is no refusal.  When none
    settles and some term is not finite, the finite terms end between two
    tested ones: the last finite term is found by bisecting the integers
    between them and tested with its predecessor, so a steep power whose
    terms settle shortly before f overflows settles, and one whose terms
    overflow before they settle does not.  f is evaluated with numpy's
    overflow warnings off.  The rule is pure in its arguments, so the
    SETTLE_CACHE_SIZE latest are memoized.
    """

    def terms(ls):  # ls: float ages
        return penalty.evaluate(ls + 1.0) * np.power(q, ls)

    def settles(t, before):
        return (t == 0.0) | ((t < tol) & (t < before))

    head_end = min(max(start + 1, len(getattr(penalty, "table", ())) + 1), l_cap)
    probes = _PROBES[np.searchsorted(_PROBES, head_end) : np.searchsorted(_PROBES, l_cap)]
    tested = np.concatenate((np.arange(start, head_end, dtype=float), probes, [l_cap]))
    with np.errstate(over="ignore", invalid="ignore"):
        both = terms(np.concatenate((tested, tested - 1.0)))
        t, before = both[: tested.size], both[tested.size :]
        before[0] = np.inf  # tested[0] is l = start
        hits = np.flatnonzero(settles(t, before))
        if hits.size:
            past = hits[hits >= head_end - start]
            return int(tested[past[0] if past.size else hits[0]])
        # f only grows, so the terms are finite up to some l and not after it:
        # k is the first tested term that is not finite, or 0 when all are
        k = int(np.argmin(np.isfinite(t)))
        if k == 0:
            return None
        lo, hi = int(tested[k - 1]), int(tested[k])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if np.isfinite(terms(float(mid))):
                lo = mid
            else:
                hi = mid
        last, prev = terms(np.array([lo, lo - 1.0]))
    return lo if settles(last, prev) else None


def validate_boundedness(source, channel, penalty) -> bool:
    """Numerically certify sum_{l>=1} f(l+1) * (gamma1(0)+gamma2(0))**l < inf.

    The series is certified when one of its terms settles by
    l = BOUNDEDNESS_L_CAP, as ``settling_term`` finds from l = 1 with
    BOUNDEDNESS_TOL.  Returns False, which callers must treat as "refuse to
    solve", when no term settles.  Raises DegenerateKernelError when
    gamma1(0) or gamma2(0) is out of range, so the ratio q below is always
    under 1.  The solver's series controls play no part.  Both gamma and the
    settle rule are memoized, so a repeat certificate forms no transmit law
    and tests no terms; it is itself not memoized, and reads gamma each call.
    """
    pair = gamma(source, channel, 0)
    q = pair.gamma1 + pair.gamma2
    return settling_term(penalty, q, 1, BOUNDEDNESS_TOL, BOUNDEDNESS_L_CAP) is not None
