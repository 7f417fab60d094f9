"""Relative value iteration on a truncated (delta, r) grid.

This is the independent numerical oracle for the closed-form machinery: it
knows nothing about thresholds or series, only the one-step kernel
(``gamma_arrays``) and the penalty f.  The grid caps delta at delta_max and r
at r_cap with hold-at-the-cap semantics (the successor delta+1 maps to
delta_max, r+1 to r_cap), which preserves the single-recurrent-class
structure; truncation bias is measured by re-solving with a doubled grid
rather than assumed away.

A table is held r-major: W[r, delta], C-contiguous, shape (r_cap + 1,
delta_max + 1), with column delta = 0 zero (V(0, 0) = 0 is the anchor, and
the other r at delta = 0 are not states).  The transmit successor
V(delta+1, r+1) of a cell with r < r_cap and delta < delta_max lies
delta_max + 2 places further along the flat array, so the g1 term of a sweep
is one contiguous multiply against g1 repeated along each row; the cells
whose shifted read runs off the grid are patched after it with their held
successors (column delta_max reads (delta_max, r+1), row r_cap reads
(delta+1, r_cap), and the corner reads itself).

A sweep is V <- TV - TV(0, 0).  TV(0, 0) = f(0) + (1 - alpha) V(1, 0)
depends only on the old table, so it is taken first and folded into the
per-delta constant row c = f + lam - TV(0, 0) and into the wait branch
(f - TV(0, 0)) + (1 - mu) V(delta+1, 0); the minimum of the two branches is
then the anchored new table, written straight into the second of two
tables that swap each sweep.  The rest of the transmit branch,
g2[r] V(delta+1, 0) + c[delta], is one rank-2 product [g2, 1] @ [next0; c]:
with a unit second column and nothing accumulated into the output, it
rounds as the elementwise form round(round(g2 x) + c) does, which the tests
check bit for bit on the BLAS in use.  Each transmit cell is
(g1 V') + (g2 V(delta+1, 0) + c).  A sweep thus reads or writes the whole
table four times: the g1 multiply, the rank-2 product, their sum and the
minimum.

The stopping test takes the span of the Bellman residual TV - V, which is
the span of new - old, column 0 being zero in both: the difference from the
old table, then its max and min, three more passes.  The average-cost
Bellman operator is non-expansive in the span seminorm (Puterman, Markov
Decision Processes, 1994, section 8.5), and subtracting the anchor does not
change a span, so the span never grows from one sweep to the next.  The
test therefore runs only on every fourth sweep and on the last sweep
allowed: it stops at most three sweeps after the first sweep that meets the
tolerance, never before it, and the table after each sweep is the one an
every-sweep test would hold.

A solve starts from f(delta), or from the values of an earlier solution on
the same grid (a warm start, as from the previous multiplier); relative
value iteration converges from any finite table, so the start moves the
sweep count and, within the stopping tolerance, the last digits of g and
the values.  values and greedy_transmit are returned as
transposed views, indexed [delta, r].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import gamma_arrays

# the stopping test runs on every _CHECK_EVERY-th sweep and on the last one
# allowed (see the module docstring)
_CHECK_EVERY = 4


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
    the optimal average cost.  iterations is the number of sweeps run: the
    first tested sweep (a multiple of 4, or max_iters) whose residual span
    met span_tol, or max_iters when none did.
    """

    g: float
    values: np.ndarray
    greedy_transmit: np.ndarray
    iterations: int
    converged: bool
    lam: float


def rvi_solve(
    lam: float,
    source,
    channel,
    penalty,
    cfg: RviConfig = RviConfig(),
    start: RviSolution | None = None,
) -> RviSolution:
    """Iterate V <- TV - TV(0,0) until the span of the Bellman residual
    TV - V is at most cfg.span_tol.

    The span is tested on every fourth sweep and on sweep cfg.max_iters, so
    the solve stops at the first tested sweep that meets the tolerance; a
    cap of max_iters = j always tests sweep j.

    The first table is f(delta), or a copy of start.values when an earlier
    solution on the same grid is given (any multiplier; start is not written
    to).  Raises ValueError for a negative multiplier, an r_cap shorter than
    one HARQ round, or a start table of another shape.
    """
    if lam < 0.0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    round_length = getattr(channel, "round_length", None)
    if round_length is not None and cfg.r_cap < round_length:
        raise ValueError(
            f"r_cap={cfg.r_cap} is shorter than one HARQ round ({round_length}); "
            "the wrapped decoding law would be misrepresented"
        )
    D, K = cfg.delta_max, cfg.r_cap
    if start is not None and start.values.shape != (D + 1, K + 1):
        raise ValueError(
            f"start table has shape {start.values.shape}, the grid needs {(D + 1, K + 1)}"
        )
    alpha, mu = source.alpha, source.mu
    g1, g2 = gamma_arrays(source, channel, K + 1)
    f = penalty.evaluate(np.arange(D + 1, dtype=float))
    flam = f + lam
    g1_flat = np.repeat(g1, D + 1)
    step = D + 2

    # rank-2 factors of g2[r] * next0[delta] + c[delta]: G = [g2, 1] and the
    # rows of N, next0 = W[0, delta+1] with hold at the cap and c
    G = np.column_stack((g2, np.ones(K + 1)))
    N = np.empty((2, D + 1))
    next0, const = N
    wait = np.empty(D + 1)
    rank2 = np.empty((K + 1, D + 1))

    W = np.tile(f, (K + 1, 1)) if start is None else np.array(start.values.T, dtype=float, order="C")
    W[:, 0] = 0.0
    spare = np.empty_like(W)

    def backup(W, out, shift):
        """TV - shift: the wait branch per delta into wait and the transmit
        branch per (r, delta) into out."""
        next0[:D] = W[0, 1:]
        next0[D] = W[0, D]
        np.subtract(flam, shift, out=const)
        np.add(np.multiply(next0, 1.0 - mu, out=wait), f - shift, out=wait)
        out_flat = out.reshape(-1)
        np.multiply(W.reshape(-1)[step:], g1_flat[:-step], out=out_flat[:-step])
        np.multiply(W[1:, D], g1[:K], out=out[:K, D])
        np.multiply(W[K, 1:], g1[K], out=out[K, :D])
        out[K, D] = W[K, D] * g1[K]
        np.add(out, np.matmul(G, N, out=rank2), out=out)

    converged = False
    iterations = cfg.max_iters
    for it in range(1, cfg.max_iters + 1):
        tv00 = f[0] + (1.0 - alpha) * W[0, 1]
        backup(W, spare, tv00)
        new = np.minimum(wait, spare, out=spare)
        new[:, 0] = 0.0
        tested = it % _CHECK_EVERY == 0 or it == cfg.max_iters
        if tested:
            # the old table is not read again: it takes the residual, then
            # the next sweep's backup
            resid = np.subtract(new, W, out=W)
            span = resid.max() - resid.min()
        W, spare = new, W
        if tested and span <= cfg.span_tol:
            converged = True
            iterations = it
            break

    # Greedy actions from the final table, backed up unshifted so the tie
    # slack keeps its scale.  Ties break toward "wait" with a relative slack
    # so roundoff cannot flip exactly-indifferent states (at mu = alpha the
    # two branches are analytically equal wherever the value function is
    # flat in r).
    backup(W, spare, 0.0)
    tie = 1e-12 * np.maximum(1.0, np.abs(wait))
    greedy = spare < wait - tie
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
