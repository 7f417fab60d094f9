"""End-to-end solver for the rate-constrained AoII minimization problem.

A threshold policy's cycle sums (L, T, C) give its rate T/L and its cost
(C + lam T)/L at any transmission price lam; all of them come from one sigma
series, exactly for the linear penalty.  The rate falls strictly as the
threshold grows, so n_high, the least threshold at or above the
unconstrained optimum that meets the budget, is found by bracketing and
binary search.  When n_high alone undershoots the budget, the policy
randomizes per slot between n_low = n_high - 1 and n_high (Beutler & Ross,
J. Math. Anal. Appl. 1985): each renewal cycle is then a pure cycle of one
of the two, so the cycle sums mix linearly and the weight that meets the
budget solves one linear equation.  lambda*, the price at which the two
tie, is certified from the same sums: neither neighbour is cheaper there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import scipy  # noqa: F401  (benchmark workers report the loaded scipy version)

from .errors import BoundednessError, SolverError
from .lagrangian import SeriesConfig, burst_chain, g_for_threshold, g_wait, least_true, optimal_threshold
from .model import validate_boundedness
from .rate import achieved_rate, mixed_chain_analysis
from .sim import FixedThreshold, MixedThreshold, NeverTransmit

REGIME_NEVER_TRANSMIT = "never-transmit"
REGIME_PURE_THRESHOLD = "pure-threshold"
REGIME_MIXED = "mixed"

_MONOTONE_SLACK = 1e-12
_BUDGET_TOL = 1e-9  # largest |predicted rate - R| a mixed solution may carry


@dataclass(frozen=True)
class CmdpSolution:
    """Solved policy and its predicted long-run performance.

    regime "never-transmit": waiting is optimal (mu >= alpha); thresholds and
    rates are None and predicted_aoii equals the waiting-policy cost.
    regime "pure-threshold": the lambda* threshold meets the budget by itself.
    regime "mixed": per-slot randomization between n_low = n_high - 1 and
    n_high with probability rho_high on the larger threshold; the predicted
    rate equals the budget by construction.
    """

    regime: str
    lambda_star: float
    n_high: Optional[int]
    n_low: Optional[int]
    rho_high: Optional[float]
    rate_high: Optional[float]
    rate_low: Optional[float]
    predicted_rate: float
    predicted_aoii: float
    diagnostics: dict


def solution_policy(sol: CmdpSolution):
    """Simulation policy realizing a solved CMDP solution."""
    if sol.regime == REGIME_NEVER_TRANSMIT:
        return NeverTransmit()
    if sol.regime == REGIME_PURE_THRESHOLD:
        return FixedThreshold(sol.n_high)
    return MixedThreshold(sol.n_low, sol.rho_high)


def _check_trace(trace) -> None:
    by_lam = sorted(trace)
    for (l0, n0, c0), (l1, n1, c1) in zip(by_lam, by_lam[1:]):
        if n1 < n0 or c1 > c0 + _MONOTONE_SLACK:
            raise SolverError(
                "monotonicity violated along the threshold search: "
                f"lambda {l0}->{l1} gave n0 {n0}->{n1}, rate {c0}->{c1}"
            )


def solve_cmdp(
    R: float,
    source,
    channel,
    penalty,
    cfg: SeriesConfig = SeriesConfig(),
    lambda_tol: float = 1e-6,
    tail_tol: float = 1e-12,
) -> CmdpSolution:
    """Minimize the average AoII penalty subject to a long-run transmission
    rate of at most R.

    Any budget R > 0 is feasible since waiting never transmits.  Under the
    linear penalty every value is exact; otherwise cfg cuts every weighted
    series of the solve, the search's and the mixed regime's AoII alike.
    lambda_tol and tail_tol are range-checked but unused, kept for callers
    that pass them positionally: no multiplier is searched for, and
    cfg.epsilon is the one sigma cutoff.

    The solution is certified: in the mixed regime lambda* must lie strictly
    between the tie prices of (n_low - 1, n_low), -inf when n_low = 1, and
    (n_high, n_high + 1), so both thresholds are Lagrange optimal at lambda*;
    and the mixture's rate must meet R to within 1e-9.
    diagnostics["certificate"] of a mixed solve holds what was checked: the
    tie prices "tie_below" and "tie_above", "lambda_star", and "budget_gap",
    the predicted rate minus R.
    diagnostics["lambda_trace"] holds one (lambda, n0, rate) entry per
    threshold evaluated, lambda being the price at which n0 ties with n0 + 1
    (0 for the unconstrained threshold), from ``SigmaSeries.tie_price``.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"rate budget must lie in (0, 1], got {R}")
    if not lambda_tol > 0.0:
        raise ValueError(f"lambda_tol must be positive, got {lambda_tol}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if not validate_boundedness(source, channel, penalty):
        raise BoundednessError(
            "the boundedness certificate failed: the average AoII of the "
            "always-transmit policy is not demonstrably finite"
        )

    if source.mu >= source.alpha:
        return CmdpSolution(
            regime=REGIME_NEVER_TRANSMIT,
            lambda_star=0.0,
            n_high=None,
            n_low=None,
            rho_high=None,
            rate_high=None,
            rate_low=None,
            predicted_rate=0.0,
            predicted_aoii=g_wait(source, penalty, cfg),
            diagnostics={"lambda_trace": (), "lambda_iterations": 0},
        )

    # the one chain read of the solve: every sum, tie price and excess below
    # comes from its table; a pure solve's g_for_threshold reads the same entry
    series = burst_chain(source, channel)
    table = series.table(penalty, cfg)

    def sums(n0: int) -> tuple[float, float, float]:
        return series.cycle_sums(table, n0)

    def tie(n0: int) -> float:
        return series.tie_price(table, n0)

    def rate(n0: int) -> float:
        length, transmissions, _ = sums(n0)
        return transmissions / length

    def diagnostics(**extra) -> dict:
        return {"lambda_trace": tuple(trace), "lambda_iterations": len(trace), **extra}

    n_zero = optimal_threshold(0.0, source, channel, penalty, cfg)
    trace = [(0.0, n_zero, rate(n_zero))]
    if trace[0][2] <= R:
        rate_zero = achieved_rate(n_zero, source, channel, cfg).rate
        return CmdpSolution(
            regime=REGIME_PURE_THRESHOLD,
            lambda_star=0.0,
            n_high=n_zero,
            n_low=None,
            rho_high=None,
            rate_high=rate_zero,
            rate_low=None,
            predicted_rate=rate_zero,
            predicted_aoii=g_for_threshold(n_zero, 0.0, source, channel, penalty, cfg),
            diagnostics=diagnostics(),
        )

    def feasible(n0: int) -> bool:
        trace.append((tie(n0), n0, rate(n0)))
        return trace[-1][2] <= R

    # the rate falls strictly in n0, so feasibility is monotone
    n_high = least_true(feasible, n_zero)
    n_low = n_high - 1
    lambda_star = tie(n_low)
    below = tie(n_low - 1) if n_low > 1 else -float("inf")
    above = tie(n_high)
    if not below < lambda_star < above:
        raise SolverError(
            f"certificate failed: lambda*={lambda_star!r} of {n_low} and {n_high} is not strictly between "
            f"the tie prices {below!r} of {n_low - 1} and {n_low} and {above!r} of {n_high} and {n_high + 1}"
        )
    _check_trace(trace)
    # budget excess e = T - R L of each threshold; the mixture's is linear in rho
    length_low, transmissions_low, _ = sums(n_low)
    length_high, transmissions_high, _ = sums(n_high)
    excess_low = transmissions_low - R * length_low
    excess_high = transmissions_high - R * length_high
    rho_high = excess_low / (excess_low - excess_high)
    predicted_rate, predicted_aoii = mixed_chain_analysis(n_low, rho_high, source, channel, penalty, cfg)
    if not abs(predicted_rate - R) <= _BUDGET_TOL:
        raise SolverError(f"certificate failed: the mixed policy's rate {predicted_rate!r} misses R={R!r}")
    return CmdpSolution(
        regime=REGIME_MIXED,
        lambda_star=lambda_star,
        n_high=n_high,
        n_low=n_low,
        rho_high=rho_high,
        rate_high=achieved_rate(n_high, source, channel, cfg).rate,
        rate_low=achieved_rate(n_low, source, channel, cfg).rate,
        predicted_rate=predicted_rate,
        predicted_aoii=predicted_aoii,
        diagnostics=diagnostics(certificate={
            "tie_below": below, "lambda_star": lambda_star, "tie_above": above,
            "budget_gap": predicted_rate - R,
        }),
    )
