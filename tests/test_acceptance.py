"""Acceptance gate: cross-oracle equality and simulation-consistency criteria.

Each criterion prints one PASS/FAIL line (plus sub-lines where a criterion
bundles several claims); run with `pytest tests/test_acceptance.py -v -s` to
watch them stream.  Expected runtime: a few minutes.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

import oracles
from aoii_harq import (
    ChannelModel,
    FixedThreshold,
    NeverTransmit,
    Periodic,
    PenaltySpec,
    REGIME_MIXED,
    RviConfig,
    SourceModel,
    achieved_rate,
    extract_thresholds,
    g_for_threshold,
    g_wait,
    optimal_threshold,
    replicate,
    rvi_solve,
    simulate,
    solution_policy,
    solve_cmdp,
)
from aoii_harq.rvi import monotone_segments

PEN = PenaltySpec.linear()

ALPHAS = (0.2, 0.5, 0.8)
N_STATES = (2, 16, 128)
P_ES = (0.1, 0.5, 0.9)
CS = (0.5, 1.0)
R_MAXES = (0, 2, 64)
LAMBDAS = (0.0, 1.0, 5.0, 20.0)
DELTA_MAX = 400
SPAN_TOL = 1e-10
MONO_SLACK = 1e-9

# Six spread-out configurations from the criterion-1 grid used by the rate
# and cost consistency criteria (alpha, N, p_e, c, r_max).
SIX_CONFIGS = (
    (0.5, 16, 0.5, 0.5, 2),
    (0.5, 128, 0.5, 0.5, 2),
    (0.2, 128, 0.1, 1.0, 0),
    (0.8, 2, 0.9, 0.5, 64),
    (0.8, 128, 0.5, 1.0, 2),
    (0.5, 16, 0.9, 0.5, 64),
)
THRESHOLDS = (1, 2, 5, 10)
SIM_HORIZON = 1_000_000

# Figure-style parameterizations (alpha, N, p_e, c, r_max).  The captions pin
# alpha, N and one channel knob per figure family; the legend values for the
# remaining knobs are fixed to representative mid-range settings.
FIGURE_CONFIGS = {
    "fig3": (0.5, 16, 0.5, 0.5, 2),
    "fig4": (0.5, 128, 0.5, 0.5, 2),
    "fig5": (0.5, 16, 0.5, 0.5, None),
    "fig6": (0.5, 128, 0.5, 0.5, None),
    "fig7": (0.2, 128, 0.5, 0.5, 2),
    "fig8": (0.8, 128, 0.5, 0.5, 2),
}


def _channel(p_e, c, r_max):
    return ChannelModel(p_e=p_e, c=c, r_max=r_max)


def _r_cap(channel):
    return max(64, (channel.round_length or 0) + 1)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@dataclass
class GridRecord:
    key: tuple
    lam: float
    converged: bool
    n_closed: int
    n_rvi: int | None
    g_closed: float
    g_rvi: float
    rate: float
    v_delta_ok: bool
    v_r_ok: bool
    thresholds_r_ok: bool


@pytest.fixture(scope="module")
def grid_records():
    """One RVI solve per (source, channel, lambda) on the criterion-1 grid,
    each multiplier warm-started from the one before, reduced to the
    summaries the criteria need."""
    records = []
    for alpha, n_states in product(ALPHAS, N_STATES):
        mu = (1.0 - alpha) / (n_states - 1)
        if mu >= alpha:
            continue
        source = SourceModel.from_states(alpha, n_states)
        for p_e, c, r_max in product(P_ES, CS, R_MAXES):
            channel = _channel(p_e, c, r_max)
            cfg = RviConfig(DELTA_MAX, _r_cap(channel), span_tol=SPAN_TOL)
            segments = monotone_segments(channel, cfg.r_cap)
            sol = None
            for lam in LAMBDAS:
                key = (alpha, n_states, p_e, c, r_max)
                sol = rvi_solve(lam, source, channel, PEN, cfg, start=sol)
                n_closed = optimal_threshold(lam, source, channel, PEN)
                g_closed = g_for_threshold(n_closed, lam, source, channel, PEN)
                rate = achieved_rate(n_closed, source, channel).rate
                half = DELTA_MAX // 2
                values = sol.values
                v_delta_ok = bool(np.all(np.diff(values[1:half], axis=0) > -MONO_SLACK))
                v_r_ok = True
                thresholds_r_ok = True
                if sol.converged:
                    thresholds = extract_thresholds(sol)
                    for segment in segments:
                        cols = [r for r in segment]
                        block = values[1:half][:, cols]
                        v_r_ok &= bool(np.all(np.diff(block, axis=1) <= MONO_SLACK))
                        per_r = [thresholds[r] for r in cols if r in thresholds]
                        thresholds_r_ok &= all(b <= a for a, b in zip(per_r, per_r[1:]))
                    n_rvi = thresholds.get(0)
                else:
                    n_rvi = None
                records.append(GridRecord(
                    key, lam, sol.converged, n_closed, n_rvi,
                    g_closed, float(sol.g), rate, v_delta_ok, v_r_ok, thresholds_r_ok,
                ))
    return records


@dataclass
class ConsistencyRecord:
    key: tuple
    n0: int
    rate_analytic: float
    mass: float
    g_analytic: float
    rate_sim: float
    aoii_sim: float
    aoii_stderr: float
    rate_stderr: float


@pytest.fixture(scope="module")
def consistency_records():
    records = []
    for i, (alpha, n_states, p_e, c, r_max) in enumerate(SIX_CONFIGS):
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(p_e, c, r_max)
        for j, n0 in enumerate(THRESHOLDS):
            analysis = achieved_rate(n0, source, channel)
            mass = sum(p for (d, _), p in analysis.stationary.items() if d >= n0)
            g_analytic = g_for_threshold(n0, 0.0, source, channel, PEN)
            report = simulate(
                FixedThreshold(n0), source, channel, PEN, SIM_HORIZON, seed=9_000 + 17 * i + j
            )
            records.append(ConsistencyRecord(
                (alpha, n_states, p_e, c, r_max), n0, analysis.rate, mass,
                g_analytic, report.avg_rate, report.avg_aoii, report.aoii_stderr,
                report.rate_stderr,
            ))
    return records


@pytest.fixture(scope="module")
def mixture_records():
    """Criterion-5 solves on 20-point budget grids for the fig3/fig6 setups."""
    out = []
    grid = np.linspace(0.05, 0.99, 20)
    for name in ("fig3", "fig6"):
        alpha, n_states, p_e, c, r_max = FIGURE_CONFIGS[name]
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(p_e, c, r_max)
        for k, budget in enumerate(grid):
            sol = solve_cmdp(float(budget), source, channel, PEN)
            entry = {"name": name, "R": float(budget), "solution": sol}
            if sol.regime == REGIME_MIXED:
                report = simulate(
                    solution_policy(sol), source, channel, PEN, SIM_HORIZON, seed=31_000 + k
                )
                entry["report"] = report
                entry["g_low"] = g_for_threshold(sol.n_low, 0.0, source, channel, PEN)
                entry["g_high"] = g_for_threshold(sol.n_high, 0.0, source, channel, PEN)
            out.append(entry)
    return out


@pytest.fixture(scope="module")
def figure_curves():
    """Criterion-7 sweeps: optimal-policy and periodic-baseline simulations."""
    curves = {}
    budgets = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95)
    horizon = 400_000
    for name, (alpha, n_states, p_e, c, r_max) in FIGURE_CONFIGS.items():
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(p_e, c, r_max)
        rows = []
        for k, budget in enumerate(budgets):
            sol = solve_cmdp(budget, source, channel, PEN)
            opt = simulate(
                solution_policy(sol), source, channel, PEN, horizon, seed=57_000 + 31 * k
            )
            per = simulate(
                Periodic(budget), source, channel, PEN, horizon, seed=58_000 + 31 * k
            )
            rows.append({"R": budget, "solution": sol, "opt": opt, "periodic": per})
        curves[name] = rows
    return curves


def test_criterion_1_threshold_cross_oracle(grid_records):
    failures = [
        (r.key, r.lam, r.n_closed, r.n_rvi)
        for r in grid_records
        if not r.converged or r.n_closed != r.n_rvi
    ]
    ok = _report(
        "1 threshold-cross-oracle",
        not failures,
        f"{len(grid_records)} grid solves, {len(failures)} mismatches"
        + (f"; first: {failures[0]}" if failures else ""),
    )
    assert ok, failures[:10]


def test_criterion_2_rate_consistency(consistency_records):
    mass_bad = [r for r in consistency_records if abs(r.rate_analytic - r.mass) > 1e-9]
    sim_bad = []
    for r in consistency_records:
        # binomial SE floor, widened by the batch-means estimate because the
        # per-slot transmit indicators are serially correlated
        se = max(
            math.sqrt(r.rate_analytic * (1.0 - r.rate_analytic) / SIM_HORIZON),
            r.rate_stderr,
        )
        if abs(r.rate_sim - r.rate_analytic) > 3.0 * se:
            sim_bad.append((r.key, r.n0, r.rate_sim, r.rate_analytic, se))
    worst_gap = max(abs(r.rate_analytic - r.mass) for r in consistency_records)
    ok = _report(
        "2 rate-consistency",
        not mass_bad and not sim_bad,
        f"{len(consistency_records)} cells; worst stationary-mass gap {worst_gap:.2e}; "
        f"{len(sim_bad)} simulation outliers beyond 3 binomial SE",
    )
    assert ok, (mass_bad, sim_bad)


def test_criterion_3_cost_consistency(grid_records, consistency_records):
    sim_bad = []
    for r in consistency_records:
        tol = max(0.01 * r.g_analytic, 3.0 * r.aoii_stderr)
        if abs(r.aoii_sim - r.g_analytic) > tol:
            sim_bad.append((r.key, r.n0, r.aoii_sim, r.g_analytic, tol))
    rvi_bad = [
        (r.key, r.lam, r.g_closed, r.g_rvi)
        for r in grid_records
        if abs(r.g_closed - r.g_rvi) / max(abs(r.g_rvi), 1e-30) > 1e-4
    ]
    worst_rel = max(
        abs(r.g_closed - r.g_rvi) / max(abs(r.g_rvi), 1e-30) for r in grid_records
    )
    ok = _report(
        "3 cost-consistency",
        not sim_bad and not rvi_bad,
        f"{len(sim_bad)} simulation outliers; worst closed-vs-RVI relative gap {worst_rel:.2e}",
    )
    assert ok, (sim_bad, rvi_bad[:5])


def _waiting_oracle(source):
    """Average AoII of never-transmit by power iteration of the one-step
    dynamics (tests/oracles.py), truncated at delta = 1500; the channel plays
    no part when nothing is sent."""
    law = oracles.stationary_power_iteration(
        source.alpha, source.mu, oracles.make_p(0.5, 0.5), lambda d: 0.0, dcap=1500, rcap=0
    )
    return float(np.arange(law.shape[0]) @ law[:, 0])


def test_criterion_4_waiting_regime():
    fast = SourceModel(0.5, 0.5)
    slow = SourceModel.from_states(0.01, 32)
    g_fast = g_wait(fast, PEN)
    g_slow = g_wait(slow, PEN)

    # 4a: the waiting chain steps 0 -> 1 w.p. 1-a and d -> d+1 w.p. 1-m, so
    # g_wait = (1-a) / (m (m + 1 - a)) for the linear penalty.  Two references
    # that do not come from g_wait:
    #  - exact rationals.  fast: (1/2) / ((1/2) * 1) = 1; by direct count, the
    #    N=2, a=1/2 source is i.i.d. fair and the estimate never changes, so
    #    P(delta = k) = 2^-(k+1) with mean 1.  slow: m = 0.99/31, so
    #    m + 1 - a = 0.99 * 32/31 and g = 31^2 / (0.99 * 32) = 24025/792.
    #  - power iteration of the one-step dynamics with no transmissions.
    # The constants asserted here before, 2/3 and 30.303, are those of
    # (1-a)(1-m) / (m (m + (1-a)(1-m))): the step 0 -> 1 weighted by an extra
    # (1-m), i.e. the geometric series indexed one slot late.  That contradicts
    # the kernel (oracles.transition_dist, oracles.brute_sim).
    exact_fast, exact_slow = 1.0, 24025 / 792
    oracle_fast, oracle_slow = _waiting_oracle(fast), _waiting_oracle(slow)
    exact_ok = (
        abs(g_fast - exact_fast) <= 1e-12
        and abs(g_fast - oracle_fast) <= 1e-12
        and abs(g_slow - exact_slow) <= 1e-12 * exact_slow
        and abs(g_slow - oracle_slow) <= 1e-10 * oracle_slow
    )
    _report(
        "4a waiting-closed-form-kernel-exact",
        exact_ok,
        f"g_wait(0.5,0.5)={g_fast:.15g} vs exact 1, oracle {oracle_fast:.15g}; "
        f"g_wait(0.01,N=32)={g_slow:.15g} vs exact 24025/792={exact_slow:.15g}, "
        f"oracle {oracle_slow:.15g}",
    )

    # 4b: simulation agrees with the shipped closed form within 1% (four
    # replicates at the stated horizon; one trajectory of the slowly mixing
    # alpha=0.01 source has sampling noise comparable to the 1% budget)
    sim_ok = True
    details = []
    for tag, source in (("fast", fast), ("slow", slow)):
        channel = _channel(0.5, 0.5, None)
        report = replicate(NeverTransmit(), source, channel, PEN, SIM_HORIZON, 4_100, 4)
        expected = g_wait(source, PEN)
        rel = abs(report.avg_aoii - expected) / expected
        sim_ok &= rel <= 0.01 and report.avg_rate == 0.0
        details.append(f"{tag}: sim {report.avg_aoii:.4f} vs closed {expected:.4f} ({rel:.2%})")
    _report("4b waiting-simulation-match", sim_ok, "; ".join(details))

    # 4c: with mu >= alpha every transmitting policy does at least as badly
    dominance_ok = True
    worst = 0.0
    for k, budget in enumerate((0.1, 0.5, 1.0)):
        channel = _channel(0.5, 0.5, None)
        report = simulate(Periodic(budget), slow, channel, PEN, SIM_HORIZON, seed=4_200 + k)
        slack = g_slow - 3.0 * report.aoii_stderr
        dominance_ok &= report.avg_aoii >= slack
        worst = max(worst, (slack - report.avg_aoii) / g_slow)
    _report(
        "4c waiting-dominates-transmitting",
        dominance_ok,
        f"periodic budgets (0.1, 0.5, 1.0); worst shortfall {worst:.2e}",
    )

    assert exact_ok and sim_ok and dominance_ok


def test_criterion_5_mixture_exactness(mixture_records):
    mixed = [e for e in mixture_records if e["solution"].regime == REGIME_MIXED]
    rate_bad, sim_bad, sandwich_bad = [], [], []
    for entry in mixed:
        sol, budget = entry["solution"], entry["R"]
        if abs(sol.predicted_rate - budget) > 1e-6:
            rate_bad.append((entry["name"], budget, sol.predicted_rate))
        report = entry["report"]
        # sigma of the simulated rate: batch-means stderr with a binomial floor
        se = max(math.sqrt(budget * (1.0 - budget) / SIM_HORIZON), report.rate_stderr)
        if abs(report.avg_rate - budget) > 3.0 * se:
            sim_bad.append((entry["name"], budget, report.avg_rate))
        lo = min(entry["g_low"], entry["g_high"]) - 3.0 * report.aoii_stderr
        hi = max(entry["g_low"], entry["g_high"]) + 3.0 * report.aoii_stderr
        if not lo <= report.avg_aoii <= hi:
            sandwich_bad.append((entry["name"], budget, report.avg_aoii, lo, hi))
    ok = _report(
        "5 mixture-exactness",
        bool(mixed) and not rate_bad and not sim_bad and not sandwich_bad,
        f"{len(mixed)} mixed-regime points on 2x20 budget grids; "
        f"rate/sim/sandwich violations: {len(rate_bad)}/{len(sim_bad)}/{len(sandwich_bad)}",
    )
    assert ok, (rate_bad, sim_bad, sandwich_bad)


def test_criterion_6_structural_monotonicity(grid_records, mixture_records):
    v_delta_bad = [r.key + (r.lam,) for r in grid_records if not r.v_delta_ok]
    v_r_bad = [r.key + (r.lam,) for r in grid_records if not r.v_r_ok]
    thr_bad = [r.key + (r.lam,) for r in grid_records if not r.thresholds_r_ok]

    # mu >= alpha half of the value-monotonicity claim
    slow_ok = True
    for alpha, n_states in ((0.2, 2), (0.5, 2)):
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(0.5, 0.5, 2)
        cfg = RviConfig(DELTA_MAX, _r_cap(channel), span_tol=SPAN_TOL)
        sol = rvi_solve(0.0, source, channel, PEN, cfg)
        half = DELTA_MAX // 2
        for segment in monotone_segments(channel, cfg.r_cap):
            block = sol.values[1:half][:, list(segment)]
            slow_ok &= bool(np.all(np.diff(block, axis=1) >= -MONO_SLACK))
        slow_ok &= not sol.greedy_transmit.any()

    # lambda-search traces from every constrained solve: n0 non-decreasing
    # and the achieved rate non-increasing along increasing multipliers
    trace_ok = True
    for entry in mixture_records:
        trace = sorted(entry["solution"].diagnostics["lambda_trace"])
        for (l0, n0, c0), (l1, n1, c1) in zip(trace, trace[1:]):
            trace_ok &= n1 >= n0 and c1 <= c0 + 1e-12

    # lambda-grid monotonicity of the closed-form threshold and its rate
    lam_ok = True
    by_key = {}
    for r in grid_records:
        by_key.setdefault(r.key, []).append((r.lam, r.n_closed, r.rate))
    for rows in by_key.values():
        rows.sort()
        for (l0, n0, c0), (l1, n1, c1) in zip(rows, rows[1:]):
            lam_ok &= n1 >= n0 and c1 <= c0 + 1e-12

    ok = _report(
        "6 structural-monotonicity",
        not v_delta_bad and not v_r_bad and not thr_bad and slow_ok and trace_ok and lam_ok,
        "value-in-age / value-in-count / per-count-threshold violations: "
        f"{len(v_delta_bad)}/{len(v_r_bad)}/{len(thr_bad)} "
        "(count monotonicity scoped to HARQ rounds, where the decoding law is "
        "non-decreasing); waiting-regime and multiplier-trace checks "
        f"{'pass' if slow_ok and trace_ok and lam_ok else 'fail'}",
    )
    assert ok, (v_delta_bad[:5], v_r_bad[:5], thr_bad[:5], slow_ok, trace_ok, lam_ok)


def test_criterion_7_figure_dominance(figure_curves):
    dominance_bad, monotone_bad = [], []
    for name, rows in figure_curves.items():
        for row in rows:
            opt, per = row["opt"], row["periodic"]
            sigma = math.hypot(opt.aoii_stderr, per.aoii_stderr)
            if opt.avg_aoii > per.avg_aoii + 3.0 * sigma:
                dominance_bad.append((name, row["R"], opt.avg_aoii, per.avg_aoii))
        for a, b in zip(rows, rows[1:]):
            sigma = math.hypot(a["opt"].aoii_stderr, b["opt"].aoii_stderr)
            if b["opt"].avg_aoii > a["opt"].avg_aoii + 3.0 * sigma:
                monotone_bad.append((name, a["R"], b["R"]))
    ok = _report(
        "7 figure-dominance",
        not dominance_bad and not monotone_bad,
        f"{len(figure_curves)} figure setups x 8 budgets; "
        f"dominance/monotonicity violations: {len(dominance_bad)}/{len(monotone_bad)}",
    )
    assert ok, (dominance_bad, monotone_bad)


def test_periodic_baseline_dominated_exactly():
    # criterion 7 without sampling noise: the periodic baseline at
    # P = ceil(1/R) meets the budget (its rate 1/P is at most R), so the
    # optimal average AoII is at most its exact value (oracles.periodic_law).
    # The smallest margin over this grid is 1.48 (fig8, R = 0.51)
    for name, (alpha, n_states, p_e, c, r_max) in FIGURE_CONFIGS.items():
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(p_e, c, r_max)
        for budget in np.linspace(0.02, 0.98, 50).tolist():
            sol = solve_cmdp(budget, source, channel, PEN)
            _, periodic = oracles.periodic_law(
                source.alpha, source.mu, channel.success_probability(0), math.ceil(1.0 / budget)
            )
            assert sol.predicted_aoii <= periodic, (name, budget, sol.predicted_aoii, periodic)


def test_threshold_search_brackets_the_mixed_pair():
    # the value-function search agrees with the cycle sums' tie prices:
    # just below lambda* the price-optimal threshold is n_low, just above
    # it n_high
    checked = 0
    for name, (alpha, n_states, p_e, c, r_max) in FIGURE_CONFIGS.items():
        source = SourceModel.from_states(alpha, n_states)
        channel = _channel(p_e, c, r_max)
        for budget in (0.05, 0.2, 0.5):
            sol = solve_cmdp(budget, source, channel, PEN)
            if sol.regime != REGIME_MIXED:
                continue
            lam = sol.lambda_star
            assert optimal_threshold(lam * (1.0 - 1e-7), source, channel, PEN) == sol.n_low, (name, budget)
            assert optimal_threshold(lam * (1.0 + 1e-7), source, channel, PEN) == sol.n_high, (name, budget)
            checked += 1
    assert checked == 17  # fig8 at R = 0.5 is pure
