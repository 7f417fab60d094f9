import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles

from aoii_harq import lagrangian, optimizer
from aoii_harq import (
    BoundednessError,
    ChannelModel,
    FixedThreshold,
    MixedThreshold,
    NeverTransmit,
    PenaltySpec,
    REGIME_MIXED,
    REGIME_NEVER_TRANSMIT,
    REGIME_PURE_THRESHOLD,
    SeriesConfig,
    SolverError,
    SourceModel,
    g_for_threshold,
    g_wait,
    mixed_chain_analysis,
    optimal_threshold,
    solution_policy,
    solve_cmdp,
)


class TestSolveCmdp:
    def test_waiting_regime(self, linear_penalty):
        source = SourceModel.from_states(0.01, 32)
        channel = ChannelModel(p_e=0.5, c=0.5)
        sol = solve_cmdp(0.4, source, channel, linear_penalty)
        assert sol.regime == REGIME_NEVER_TRANSMIT
        assert sol.predicted_rate == 0.0
        assert sol.predicted_aoii == pytest.approx(g_wait(source, linear_penalty), abs=1e-12)
        assert sol.n_high is None and sol.n_low is None

    def test_unconstrained_budget_is_pure(self, paper_source, paper_channel, linear_penalty):
        sol = solve_cmdp(1.0, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_PURE_THRESHOLD
        assert sol.lambda_star == 0.0
        assert sol.n_high == optimal_threshold(0.0, paper_source, paper_channel, linear_penalty)
        assert sol.predicted_rate <= 1.0

    def test_mixed_regime_meets_budget_exactly(self, paper_source, paper_channel, linear_penalty):
        budget = 0.2
        sol = solve_cmdp(budget, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_MIXED
        assert sol.n_low == sol.n_high - 1
        assert sol.rate_high <= budget < sol.rate_low
        assert sol.predicted_rate == pytest.approx(budget, abs=1e-9)
        assert 0.0 <= sol.rho_high <= 1.0
        g_low = g_for_threshold(sol.n_low, 0.0, paper_source, paper_channel, linear_penalty)
        g_high = g_for_threshold(sol.n_high, 0.0, paper_source, paper_channel, linear_penalty)
        assert min(g_low, g_high) - 1e-9 <= sol.predicted_aoii <= max(g_low, g_high) + 1e-9

    def test_linear_weight_would_miss_the_budget(self, paper_source, paper_channel, linear_penalty):
        # the per-slot randomized chain's rate is not linear in the weight (the
        # cycle sums are), so the linear mixing identity of the pure rates
        # cannot replace the solve's weight
        budget = 0.2
        sol = solve_cmdp(budget, paper_source, paper_channel, linear_penalty)
        seed_rho = (sol.rate_low - budget) / (sol.rate_low - sol.rate_high)
        rate_at_seed, _ = mixed_chain_analysis(
            sol.n_low, seed_rho, paper_source, paper_channel, linear_penalty
        )
        assert abs(rate_at_seed - budget) > 1e-6
        assert abs(sol.predicted_rate - budget) <= 1e-9
        assert seed_rho * sol.rate_high + (1.0 - seed_rho) * sol.rate_low == pytest.approx(budget, abs=1e-12)

    def test_search_trace_is_monotone(self, paper_source, paper_channel, linear_penalty):
        sol = solve_cmdp(0.15, paper_source, paper_channel, linear_penalty)
        trace = sorted(sol.diagnostics["lambda_trace"])
        assert len(trace) >= 3
        for (l0, n0, c0), (l1, n1, c1) in zip(trace, trace[1:]):
            assert l1 >= l0
            assert n1 >= n0
            assert c1 <= c0 + 1e-12

    def test_stable_under_tolerance_halving(self, paper_source, paper_channel, linear_penalty):
        a = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty, lambda_tol=1e-6)
        b = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty, lambda_tol=5e-7)
        assert a.regime == b.regime
        assert a.n_high == b.n_high and a.n_low == b.n_low
        assert a.rho_high == pytest.approx(b.rho_high, abs=1e-6)

    def test_aoii_improves_with_budget(self, paper_source, paper_channel, linear_penalty):
        aoiis = [
            solve_cmdp(r, paper_source, paper_channel, linear_penalty).predicted_aoii
            for r in (0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(aoiis, aoiis[1:]))

    @pytest.mark.parametrize("budget", [0.05, 0.1, 0.2])
    def test_matches_exact_rational_solve(self, paper_source, paper_channel, linear_penalty, budget):
        sol = solve_cmdp(budget, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_MIXED
        p = oracles.make_p(0.5, 0.5, 2)
        rho, aoii = oracles.fraction_mixed_solution(
            paper_source.alpha, paper_source.mu, p, 3, budget, sol.n_low
        )
        assert abs(sol.rho_high - float(rho)) <= 1e-13
        assert abs(sol.predicted_aoii - float(aoii)) <= 1e-13 * float(aoii)

    def test_linear_solve_ignores_the_series_controls(self, paper_source, paper_channel, linear_penalty):
        default = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)
        loose = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty, SeriesConfig(1e-2, 1e-2, l_cap=1))
        assert loose == default

    def test_mixed_aoii_from_the_solve_cut(self, paper_source, paper_channel):
        # the mixed regime's AoII is the rho_high mixture of the very cycle
        # sums the search read, under the caller's weighted cut
        penalty, cfg = PenaltySpec.power(1.5), SeriesConfig(weighted_epsilon=1e-3)
        sol = solve_cmdp(0.2, paper_source, paper_channel, penalty, cfg)
        assert sol.regime == REGIME_MIXED
        low = lagrangian.cycle_sums(sol.n_low, paper_source, paper_channel, penalty, cfg)
        high = lagrangian.cycle_sums(sol.n_high, paper_source, paper_channel, penalty, cfg)
        length, _, cost = (sol.rho_high * h + (1.0 - sol.rho_high) * l for h, l in zip(high, low))
        assert sol.predicted_aoii == pytest.approx(cost / length, rel=1e-14)

    def test_broken_certificate_raises(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        # a threshold oracle that disagrees with the cycle sums at lambda* > 0
        real = optimizer.optimal_threshold

        def shifted(lam, *args, **kwargs):
            return real(lam, *args, **kwargs) + (1 if lam > 0.0 else 0)

        monkeypatch.setattr(optimizer, "optimal_threshold", shifted)
        with pytest.raises(SolverError, match="certificate"):
            solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)

    @pytest.mark.parametrize("budget, regime", [(0.2, REGIME_MIXED), (1.0, REGIME_PURE_THRESHOLD)])
    def test_one_fold_serves_the_search(self, paper_source, paper_channel, linear_penalty, budget, regime):
        # the search, its certificate and every rate analysis share one chain
        lagrangian.burst_chain.cache_clear()
        assert solve_cmdp(budget, paper_source, paper_channel, linear_penalty).regime == regime
        assert lagrangian.burst_chain.cache_info().misses == 1

    @pytest.mark.parametrize("alpha, budget, regime", [
        (0.01, 0.2, REGIME_NEVER_TRANSMIT), (0.5, 1.0, REGIME_PURE_THRESHOLD), (0.5, 0.2, REGIME_MIXED),
    ])
    def test_linear_solve_walks_no_series(self, paper_channel, linear_penalty, sigma_steps, alpha, budget, regime):
        # every linear-penalty sum is exact, and rate analyses walk only when read
        source = SourceModel.from_states(alpha, 16)
        assert solve_cmdp(budget, source, paper_channel, linear_penalty).regime == regime
        assert sigma_steps[0] == 0

    def test_budget_certificate(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        # a mixture whose rate misses the budget by more than 1e-9 is refused
        real = optimizer.mixed_chain_analysis

        def off_budget(*args, **kwargs):
            rate, aoii = real(*args, **kwargs)
            return rate + 2e-9, aoii

        sol = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_MIXED and abs(sol.predicted_rate - 0.2) <= 1e-9
        monkeypatch.setattr(optimizer, "mixed_chain_analysis", off_budget)
        with pytest.raises(SolverError, match="misses R"):
            solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)

    def test_boundedness_gate(self, linear_penalty):
        source = SourceModel(alpha=0.5, mu=1e-9)
        channel = ChannelModel(p_e=1.0 - 1e-12, c=1.0)
        with pytest.raises(BoundednessError):
            solve_cmdp(0.5, source, channel, linear_penalty)

    def test_validates_budget(self, paper_source, paper_channel, linear_penalty):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                solve_cmdp(bad, paper_source, paper_channel, linear_penalty)


class TestEdgeSolves:
    """Near the limits mu -> alpha and p_e -> 1 a solve ends, in bounded
    time, in a solution or a typed SolverError."""

    def test_mu_just_below_alpha_solves(self, paper_channel, linear_penalty):
        start = time.perf_counter()
        sol = solve_cmdp(0.2, SourceModel(alpha=0.5, mu=0.5 * (1.0 - 1e-3)), paper_channel, linear_penalty)
        assert time.perf_counter() - start < 2.0
        assert sol.regime == REGIME_MIXED and abs(sol.predicted_rate - 0.2) <= 1e-9

    @pytest.mark.parametrize("budget", [0.2, 0.5])
    @pytest.mark.parametrize("source, channel", [
        (SourceModel(alpha=0.5, mu=0.5 - 1e-6), ChannelModel(p_e=0.5, c=0.5, r_max=2)),
        (SourceModel.from_states(0.5, 16), ChannelModel(p_e=1.0 - 1e-9, c=1.0)),
    ], ids=["mu=alpha-1e-6", "p_e=1-1e-9"])
    def test_solves_or_raises(self, linear_penalty, source, channel, budget):
        start = time.perf_counter()
        try:
            sol = solve_cmdp(budget, source, channel, linear_penalty)
        except SolverError:
            pass
        else:
            assert sol.predicted_rate <= budget + 1e-9
        assert time.perf_counter() - start < 2.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.01, 0.99),
    n_states=st.integers(2, 64),
    p_e=st.floats(0.01, 0.99),
    c=st.floats(0.01, 1.0),
    r_max=st.none() | st.integers(0, 4),
    combining=st.sampled_from(["soft", "none"]),
)
def test_predicted_aoii_does_not_increase_with_budget(alpha, n_states, p_e, c, r_max, combining):
    source = SourceModel.from_states(alpha, n_states)
    assume(source.mu < source.alpha)
    channel = ChannelModel(p_e=p_e, c=c, r_max=r_max, combining=combining)
    aoiis = [solve_cmdp(budget, source, channel, PenaltySpec.linear()).predicted_aoii
             for budget in np.linspace(0.05, 1.0, 20)]
    assert all(b <= a for a, b in zip(aoiis, aoiis[1:]))


class TestSolutionPolicy:
    def test_maps_regimes_to_policies(self, paper_source, paper_channel, linear_penalty):
        wait = solve_cmdp(0.4, SourceModel.from_states(0.01, 32), ChannelModel(p_e=0.5, c=0.5), linear_penalty)
        assert isinstance(solution_policy(wait), NeverTransmit)
        pure = solve_cmdp(1.0, paper_source, paper_channel, linear_penalty)
        assert isinstance(solution_policy(pure), FixedThreshold)
        mixed = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)
        policy = solution_policy(mixed)
        assert isinstance(policy, MixedThreshold)
        assert policy.n_low == mixed.n_low
        assert policy.rho_high == mixed.rho_high
