import pytest

from aoii_harq import optimizer
from aoii_harq import (
    BoundednessError,
    ChannelModel,
    FixedThreshold,
    MixedThreshold,
    NeverTransmit,
    REGIME_MIXED,
    REGIME_NEVER_TRANSMIT,
    REGIME_PURE_THRESHOLD,
    SolverError,
    SourceModel,
    g_for_threshold,
    g_wait,
    mixed_chain_analysis,
    mixture_rate,
    optimal_threshold,
    solution_policy,
    solve_cmdp,
)


class TestMixtureRate:
    def test_degenerate_weights(self):
        assert mixture_rate(1.0, 0.2, 0.8) == pytest.approx(0.2)
        assert mixture_rate(0.0, 0.2, 0.8) == pytest.approx(0.8)

    def test_interior_weight(self):
        assert mixture_rate(2.0 / 3.0, 0.2, 0.8) == pytest.approx(0.4)

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            mixture_rate(1.5, 0.2, 0.8)
        with pytest.raises(ValueError):
            mixture_rate(0.5, -0.1, 0.8)


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
            sol.n_low, sol.n_high, seed_rho, paper_source, paper_channel, linear_penalty
        )
        assert abs(rate_at_seed - budget) > 1e-6
        assert abs(sol.predicted_rate - budget) <= 1e-9
        assert mixture_rate(seed_rho, sol.rate_high, sol.rate_low) == pytest.approx(budget, abs=1e-12)

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

    def test_broken_certificate_raises(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        # a threshold oracle that disagrees with the cycle sums at lambda* > 0
        real = optimizer.optimal_threshold

        def shifted(lam, *args, **kwargs):
            return real(lam, *args, **kwargs) + (1 if lam > 0.0 else 0)

        monkeypatch.setattr(optimizer, "optimal_threshold", shifted)
        with pytest.raises(SolverError, match="certificate"):
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
