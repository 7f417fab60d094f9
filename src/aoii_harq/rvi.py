"""Relative value iteration on a truncated (delta, r) grid.

This is the independent numerical oracle for the closed-form machinery: it
knows nothing about thresholds or series, only the one-step kernel.  The grid
caps delta at delta_max and r at r_cap with hold-at-the-cap semantics (the
successor delta+1 maps to delta_max, r+1 to r_cap), which preserves the
single-recurrent-class structure; truncation bias is measured by re-solving
with a doubled grid rather than assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import gamma_arrays


@dataclass(frozen=True)
class RviConfig:
    delta_max: int = 400
    r_cap: int = 64
    max_iters: int = 100_000
    span_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.delta_max < 2 or self.r_cap < 1:
            raise ValueError("delta_max must be >= 2 and r_cap >= 1")
        if self.max_iters < 1 or not self.span_tol > 0.0:
            raise ValueError("max_iters must be >= 1 and span_tol positive")


@dataclass(frozen=True)
class RviSolution:
    """Anchored average-cost solution on the truncated grid.

    values[delta, r] is the relative value function with values[0, 0] = 0
    exactly; row 0 is only meaningful at r = 0.  greedy_transmit holds the
    greedy action (True = transmit) extracted from the final table.  g is the
    anchor increment at the last sweep, the standard anchored-RVI estimate of
    the optimal average cost.
    """

    g: float
    values: np.ndarray
    greedy_transmit: np.ndarray
    iterations: int
    converged: bool
    lam: float


def rvi_solve(lam: float, source, channel, penalty, cfg: RviConfig = RviConfig()) -> RviSolution:
    """Iterate V <- TV - TV(0,0) from V_0(delta, r) = f(delta) until the span
    of the Bellman residual TV - V drops below span_tol."""
    if lam < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    round_length = getattr(channel, "round_length", None)
    if round_length is not None and cfg.r_cap < round_length:
        raise ValueError(
            f"r_cap={cfg.r_cap} is shorter than one HARQ round ({round_length}); "
            "the wrapped decoding law would be misrepresented"
        )
    D, K = cfg.delta_max, cfg.r_cap
    alpha, mu = source.alpha, source.mu
    g1, g2 = gamma_arrays(source, channel, K + 1)
    f = penalty.evaluate(np.arange(D + 1, dtype=float))

    # Initial table f(delta), anchored at the reference state.  RVI is
    # invariant to constant shifts of the initial table, so zeroing (0, 0) up
    # front lets every sweep drop the V(0,0) terms from the operator.
    V = np.repeat(f[:, None], K + 1, axis=1)
    V[0, :] = 0.0
    shifted = np.empty_like(V)       # V(delta+1, r) with hold at the caps
    shifted_r = np.empty_like(V)     # V(delta+1, r+1)
    transmit = np.empty_like(V)      # the transmit branch of TV

    def backup(V):
        """The wait branch of TV per delta and the transmit branch per
        (delta, r), the latter in the reused buffer."""
        np.copyto(shifted[:D], V[1:])
        shifted[D] = V[D]
        next0 = shifted[:, 0]
        np.copyto(shifted_r[:, :K], shifted[:, 1:])
        shifted_r[:, K] = shifted[:, K]
        trans = np.multiply(shifted_r, g1[None, :], out=transmit)
        trans += g2[None, :] * next0[:, None]
        trans += (f + lam)[:, None]
        return f + (1.0 - mu) * next0, trans

    converged = False
    iterations = cfg.max_iters
    tv00 = f[0] + (1.0 - alpha) * V[1, 0]
    for it in range(cfg.max_iters):
        wait, trans = backup(V)
        TV = np.minimum(wait[:, None], trans)
        tv00 = f[0] + (1.0 - alpha) * V[1, 0]
        TV[0, :] = 0.0
        TV[0, 0] = tv00

        resid = TV[1:] - V[1:]
        r00 = tv00 - V[0, 0]
        span = max(resid.max(), r00) - min(resid.min(), r00)
        V = TV - tv00
        V[0, 1:] = 0.0
        if span <= cfg.span_tol:
            converged = True
            iterations = it + 1
            break

    # Greedy actions from the final table.  Ties break toward "wait" with a
    # relative slack so roundoff cannot flip exactly-indifferent states (at
    # mu = alpha the two branches are analytically equal wherever the value
    # function is flat in r).
    wait, trans = backup(V)
    tie = 1e-12 * np.maximum(1.0, np.abs(wait))
    greedy = trans < (wait - tie)[:, None]
    greedy[0, :] = False
    return RviSolution(float(tv00), V, greedy, iterations, converged, lam)


def monotone_segments(channel, r_cap: int) -> list[range]:
    """r-ranges over which the decoding probability is non-decreasing.

    The value function and per-r thresholds are monotone in r only where p(r)
    is non-decreasing; a wrapped channel (finite r_max) restarts its round
    every r_max + 1 attempts, so the monotone structure holds within rounds
    and genuinely breaks across round boundaries.
    """
    length = getattr(channel, "round_length", None)
    if length is None:
        return [range(0, r_cap + 1)]
    return [range(lo, min(lo + length, r_cap + 1)) for lo in range(0, r_cap + 1, length)]


def extract_thresholds(sol: RviSolution) -> dict[int, int]:
    """Per-r least delta with greedy action transmit; r absent when the
    column never transmits (the mu >= alpha regime yields an empty map)."""
    if not sol.converged:
        raise ValueError("threshold extraction requires a converged solution")
    out: dict[int, int] = {}
    for r in range(sol.greedy_transmit.shape[1]):
        col = sol.greedy_transmit[1:, r]
        idx = int(np.argmax(col))
        if col[idx]:
            out[r] = idx + 1
    return out
