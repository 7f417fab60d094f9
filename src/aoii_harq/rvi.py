"""Relative value iteration on a truncated (delta, r) grid.

This is the independent numerical oracle for the closed-form machinery: it
knows nothing about thresholds or series, only the one-step kernel.  The grid
caps delta at delta_max and r at r_cap with hold-at-the-cap semantics (the
successor delta+1 maps to delta_max, r+1 to r_cap), which preserves the
single-recurrent-class structure; truncation bias is measured by re-solving
with a doubled grid rather than assumed away.

The table is held r-major: W[r, delta], C-contiguous, shape (r_cap + 1,
delta_max + 1).  The transmit successor V(delta+1, r+1) of a cell with
r < r_cap and delta < delta_max then lies delta_max + 2 places further along
the flat array, so the g1 term of a sweep is one contiguous multiply against
g1 repeated along each row.  The cells whose shifted read runs off the grid
are patched after it with their held successors: column delta = delta_max
reads (delta_max, r+1), row r = r_cap reads (delta+1, r_cap), and the corner
reads itself.  The rest of a sweep is a few contiguous passes into buffers
allocated once per solve.  Each transmit cell is evaluated as
((g1 V') + (g2 V(delta+1, 0))) + (f + lam), in that order, so the layout
changes neither the sweep count nor any bit of the result.  values and
greedy_transmit are returned as transposed views, indexed [delta, r].
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
    shape = (K + 1, D + 1)
    g1_rows = np.repeat(g1, D + 1).reshape(shape)
    g2_rows = np.repeat(g2, D + 1).reshape(shape)
    flam_rows = np.tile(f + lam, (K + 1, 1))

    # Initial table f(delta), anchored at the reference state.  RVI is
    # invariant to constant shifts of the initial table, so zeroing (0, 0) up
    # front lets every sweep drop the V(0,0) terms from the operator.
    W = np.tile(f, (K + 1, 1))
    W[:, 0] = 0.0
    flat, step = W.reshape(-1), D + 2
    next0 = np.empty(D + 1)          # W[0, delta+1] with hold at the cap
    wait = np.empty(D + 1)           # the wait branch of TV per delta
    trans = np.empty(shape)          # the transmit branch, then TV
    g2_term = np.empty(shape)        # g2[r] * next0[delta]
    trans_flat, g1_flat = trans.reshape(-1), g1_rows.reshape(-1)

    def backup():
        """The wait branch of TV per delta into wait and the transmit branch
        per (r, delta) into trans."""
        next0[:D] = W[0, 1:]
        next0[D] = W[0, D]
        np.add(f, np.multiply(next0, 1.0 - mu, out=wait), out=wait)
        np.multiply(flat[step:], g1_flat[:-step], out=trans_flat[:-step])
        np.multiply(W[1:, D], g1[:K], out=trans[:K, D])
        np.multiply(W[K, 1:], g1[K], out=trans[K, :D])
        trans[K, D] = W[K, D] * g1[K]
        np.copyto(g2_term, next0)
        np.add(trans, np.multiply(g2_rows, g2_term, out=g2_term), out=trans)
        np.add(trans, flam_rows, out=trans)

    converged = False
    iterations = cfg.max_iters
    tv00 = f[0] + (1.0 - alpha) * W[0, 1]
    for it in range(cfg.max_iters):
        backup()
        TV = np.minimum(wait, trans, out=trans)
        tv00 = f[0] + (1.0 - alpha) * W[0, 1]
        TV[0, 0] = tv00

        # The residual TV - W goes into W, which is rebuilt from TV below.
        # W[0, 0] is exactly 0, so resid[0, 0] is TV(0,0) - V(0,0); it stands
        # in for the other r at delta = 0, which are not states of the chain.
        resid = np.subtract(TV, W, out=W)
        resid[1:, 0] = resid[0, 0]
        span = resid.max() - resid.min()
        np.subtract(TV, tv00, out=W)
        W[1:, 0] = 0.0
        if span <= cfg.span_tol:
            converged = True
            iterations = it + 1
            break

    # Greedy actions from the final table.  Ties break toward "wait" with a
    # relative slack so roundoff cannot flip exactly-indifferent states (at
    # mu = alpha the two branches are analytically equal wherever the value
    # function is flat in r).
    backup()
    tie = 1e-12 * np.maximum(1.0, np.abs(wait))
    greedy = trans < wait - tie
    greedy[:, 0] = False
    return RviSolution(float(tv00), W.T, greedy.T, iterations, converged, lam)


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
    transmit = sol.greedy_transmit[1:]
    first = transmit.argmax(axis=0)
    return {int(r): int(first[r]) + 1 for r in np.flatnonzero(transmit.any(axis=0))}
