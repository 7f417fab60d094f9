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
gamma2(r) and resets the rest.  ``gamma_arrays`` alone forms and range-checks
these coefficients; the per-state view of the kernel is a test oracle.

The problem is well posed when always transmitting has a finite average
AoII, sum_l f(l+1) q^l < inf with q = gamma1(0) + gamma2(0).
``validate_boundedness`` certifies this from where the terms settle, at a
few dozen ages, without summing them; ``settled_sum``, which the waiting
cost still uses, sums a series up to its settling term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, DivergenceError

_EQ_TOL = 1e-12
_SERIES_BLOCK = 8192
BOUNDEDNESS_TOL = 1e-10  # a certified series' settling term lies below this
BOUNDEDNESS_L_CAP = 1_000_000  # a series not settled by this term is refused
# term indices at which validate_boundedness tests the settle rule past a
# table's head: geometric from 1 to BOUNDEDNESS_L_CAP, 39 distinct
_PROBES = np.array(sorted({round(BOUNDEDNESS_L_CAP ** (k / 39)) for k in range(40)}), dtype=float)


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
        Python float powers, so an array holds the scalar call's bits."""
        c = 1.0 if self.combining == "none" else self.c
        if self.r_max is not None:
            r = r % (self.r_max + 1)
        if np.ndim(r) == 0:
            return self.p_e * c ** int(r)
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


def gamma(source: SourceModel, channel, r: int) -> GammaPair:
    """Transmit-branch coefficients for transmission count r: entry r of
    ``gamma_arrays``."""
    g1, g2 = gamma_arrays(source, channel, r + 1)
    return GammaPair(float(g1[r]), float(g2[r]))


def gamma_arrays(source: SourceModel, channel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma1(r) and gamma2(r) for r < n as arrays, checked as GammaPair checks
    each pair: raises DegenerateKernelError (a SolverError and a ValueError)
    at the first r out of range."""
    q = channel.error_probability(np.arange(n))
    g1 = source.alpha * q
    g2 = 1.0 - source.alpha - source.mu * q
    bad = np.nonzero((g1 < 0.0) | (g2 < 0.0) | (g1 + g2 >= 1.0))[0]
    if bad.size:
        r = int(bad[0])
        raise DegenerateKernelError(
            f"gamma coefficients at r={r} must be nonnegative and sum below 1, "
            f"got gamma1={g1[r]!r}, gamma2={g2[r]!r}"
        )
    return g1, g2


def settled_sum(penalty, q: float, start: int, tol: float, l_cap: int) -> float:
    """sum_{i >= start} f(i+1) q^i, up to and including the first term that is
    0, or below ``tol`` and below the term before it.

    Terms are summed in blocks of 8192, evaluated with numpy's overflow
    warnings off.  Raises DivergenceError when a term up to the settling one
    or the partial sum is not finite (an f that overflows), or when no term
    settles by i = ``l_cap``.  A finite term, however large, is summed.
    """
    total = 0.0
    prev = np.inf
    for i in range(start, l_cap + 1, _SERIES_BLOCK):
        idx = np.arange(i, min(i + _SERIES_BLOCK, l_cap + 1), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = penalty.evaluate(idx + 1.0) * np.power(q, idx)
            before = np.concatenate(([prev], terms[:-1]))
            settled = np.flatnonzero((terms == 0.0) | ((terms < tol) & (terms < before)))
            used = terms[: settled[0] + 1] if settled.size else terms
            total += float(used.sum())
        if not (np.all(np.isfinite(used)) and np.isfinite(total)):
            raise DivergenceError(f"the series of f(i+1) q^i, q = {q!r}, has a term or sum that is not finite")
        if settled.size:
            return total
        prev = terms[-1]
    raise DivergenceError(
        f"the series of f(i+1) q^i, q = {q!r}, did not settle within l_cap={l_cap} terms"
    )


def validate_boundedness(source, channel, penalty) -> bool:
    """Numerically certify sum_{l>=1} f(l+1) * (gamma1(0)+gamma2(0))**l < inf.

    The series is certified when its terms t_l = f(l+1) q**l settle by
    l = BOUNDEDNESS_L_CAP: some t_l is 0, or is below BOUNDEDNESS_TOL and
    below t_{l-1} (t_0 counting as infinite).  Nothing is summed.  Past a
    table penalty's head of len(table) terms, every penalty the package
    accepts (linear, power, a table's linear tail) has log-concave terms, so
    once a term settles every later one does.  The rule therefore evaluates,
    in one ``penalty.evaluate`` call, the head and a fixed geometric set of
    probes ending at BOUNDEDNESS_L_CAP, each term with its predecessor, and
    accepts when any of these terms settles.  A term that is not finite (an
    f that overflows) never settles, and a finite term, however large, is no
    refusal.  So a steep power whose terms overflow before they settle is
    refused, and so is one whose finite settled stretch falls between two
    probes.

    Returns False, which callers must treat as "refuse to solve", when no
    term settles.  Raises DegenerateKernelError when gamma1(0) or gamma2(0)
    is out of range, so the ratio q below is always under 1.  The solver's
    series controls play no part.
    """
    pair = gamma(source, channel, 0)
    q = pair.gamma1 + pair.gamma2
    tested = np.concatenate((np.arange(1.0, len(getattr(penalty, "table", ())) + 1.0), _PROBES))
    idx = np.concatenate((tested, tested - 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        terms, before = np.split(penalty.evaluate(idx + 1.0) * np.power(q, idx), 2)
        before[0] = np.inf  # tested[0] is l = 1, whose predecessor counts as infinite
        return bool(np.any((terms == 0.0) | ((terms < BOUNDEDNESS_TOL) & (terms < before))))
