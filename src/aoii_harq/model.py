"""Markov source, HARQ channel, AoII penalty, and the exact one-step kernel.

The controlled process lives on states (delta, r): delta is the age of
incorrect information (consecutive slots the monitor's estimate has disagreed
with the source) and r is the number of packets already sent for the value
currently being communicated.  Per slot the scheduler either waits or
transmits; a transmission is decoded with probability p(r) that grows with r
when the decoder soft-combines retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WAIT = "wait"
TRANSMIT = "transmit"

_EQ_TOL = 1e-12


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

    def success_probability(self, r: int) -> float:
        if self.combining == "none":
            return 1.0 - self.p_e
        if self.r_max is not None:
            r = r % (self.r_max + 1)
        return 1.0 - self.p_e * self.c**r


def p_success(channel, r: int) -> float:
    """Decoding probability for the packet sent when the receiver holds r."""
    if r < 0:
        raise ValueError(f"transmission count must be nonnegative, got {r}")
    return channel.success_probability(r)


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


@dataclass(frozen=True, order=True)
class State:
    """CMDP state: current AoII and transmission count for the current value.

    r is only meaningful while the monitor is stale, hence delta = 0 forces
    r = 0, and r < delta on every reachable trajectory (each sent packet also
    ages the estimate by one slot); r <= delta is enforced.
    """

    delta: int
    r: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0 or self.r < 0:
            raise ValueError(f"state components must be nonnegative, got {(self.delta, self.r)}")
        if self.delta == 0 and self.r != 0:
            raise ValueError("transmission count must be 0 when the AoII is 0")
        if self.r > self.delta:
            raise ValueError(f"transmission count {self.r} cannot exceed the AoII {self.delta}")


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
    """Transmit-branch coefficients for transmission count r."""
    q = 1.0 - channel.success_probability(r)
    return GammaPair(source.alpha * q, 1.0 - source.alpha - source.mu * q)


def gamma_arrays(source: SourceModel, channel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma1(r) and gamma2(r) for r < n as arrays, checked as GammaPair checks
    each pair."""
    q = 1.0 - np.array([channel.success_probability(r) for r in range(n)], dtype=float)
    g1 = source.alpha * q
    g2 = 1.0 - source.alpha - source.mu * q
    bad = np.nonzero((g1 < 0.0) | (g2 < 0.0) | (g1 + g2 >= 1.0))[0]
    if bad.size:
        r = int(bad[0])
        raise ValueError(
            f"gamma coefficients at r={r} must be nonnegative and sum below 1, "
            f"got gamma1={g1[r]!r}, gamma2={g2[r]!r}"
        )
    return g1, g2


def transition_dist(state: State, action: str, source: SourceModel, channel) -> list[tuple[State, float]]:
    """Exact support and probabilities of the next state.

    Wait: the stale estimate is corrected only by the source wandering back
    (probability mu); a fresh estimate goes stale with probability 1 - alpha.
    Transmit from a stale state: the count advances only when the packet fails
    but the source kept the transmitted value (gamma1); a decoded-but-stale or
    failed-and-changed outcome restarts the count (gamma2); the rest resets
    the age.  At delta = 0 both actions induce the same next-state law.
    """
    if action not in (WAIT, TRANSMIT):
        raise ValueError(f"action must be {WAIT!r} or {TRANSMIT!r}, got {action!r}")
    alpha, mu = source.alpha, source.mu
    if state.delta == 0:
        return [(State(0, 0), alpha), (State(1, 0), 1.0 - alpha)]
    if action == WAIT:
        return [(State(state.delta + 1, 0), 1.0 - mu), (State(0, 0), mu)]
    pair = gamma(source, channel, state.r)
    successors = [
        (State(state.delta + 1, state.r + 1), pair.gamma1),
        (State(state.delta + 1, 0), pair.gamma2),
        (State(0, 0), pair.reset_probability),
    ]
    return [(s, p) for s, p in successors if p > 0.0]


def validate_boundedness(source, channel, penalty, tol: float = 1e-10, l_cap: int = 1_000_000) -> bool:
    """Numerically certify sum_{l>=1} f(l+1) * (gamma1(0)+gamma2(0))**l < inf.

    Certification is by ratio test plus stabilization: the partial sums are
    accepted once a term falls below ``tol`` while the terms are decreasing.
    Returns False (never raises) when the terms fail to stabilize within
    ``l_cap``, which callers must treat as "refuse to solve".
    """
    pair = gamma(source, channel, 0)
    q = pair.gamma1 + pair.gamma2
    if q >= 1.0:
        return False
    block = 8192
    prev = np.inf
    l = 1
    while l <= l_cap:
        ls = np.arange(l, min(l + block, l_cap + 1), dtype=float)
        terms = penalty.evaluate(ls + 1.0) * np.power(q, ls)
        if not np.all(np.isfinite(terms)) or terms.max() > 1e50:
            return False
        for t in terms:
            if t == 0.0 or (t < tol and t < prev):
                return True
            prev = t
        l += block
    return False
