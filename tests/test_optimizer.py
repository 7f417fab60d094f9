import gc
import math
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from test_acceptance import FIGURE_CONFIGS

from aoii_harq import lagrangian, model, optimizer
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
    TruncationError,
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

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_broken_certificate_raises(self, monkeypatch, paper_source, paper_channel, linear_penalty, side):
        # below: halving the cycle cost of n_low - 1 makes it cheaper than
        # n_low at lambda*, so their tie price rises past lambda*; above:
        # shrinking D of n_high makes n_high + 1 cheaper than n_high at
        # lambda*, so their tie price falls below it.  lambda* itself reads
        # neither.  The solve reads both from its chain's table, so the
        # computations behind the table are broken and the table starts cold
        sol = solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_MIXED and sol.n_low > 1
        if side == "below":
            real = lagrangian._cycle_sums

            def cheaper(n0, *args, **kwargs):
                length, transmissions, cost = real(n0, *args, **kwargs)
                return length, transmissions, cost * (0.5 if n0 == sol.n_low - 1 else 1.0)

            monkeypatch.setattr(lagrangian, "_cycle_sums", cheaper)
        else:
            real = lagrangian._step_cost

            def cheaper(n0, *args, **kwargs):
                return real(n0, *args, **kwargs) * (0.5 if n0 == sol.n_high else 1.0)

            monkeypatch.setattr(lagrangian, "_step_cost", cheaper)
        clear_caches()
        with pytest.raises(SolverError, match="certificate"):
            solve_cmdp(0.2, paper_source, paper_channel, linear_penalty)

    def test_searches_thresholds_once(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        # the mixed solve searches once, at lambda = 0; its certificate reads
        # the tie prices of the cycle sums it already has
        real, prices = optimizer.optimal_threshold, []

        def counted(lam, *args, **kwargs):
            prices.append(lam)
            return real(lam, *args, **kwargs)

        monkeypatch.setattr(optimizer, "optimal_threshold", counted)
        assert solve_cmdp(0.2, paper_source, paper_channel, linear_penalty).regime == REGIME_MIXED
        assert prices == [0.0]

    @pytest.mark.parametrize("budget, regime", [(0.2, REGIME_MIXED), (1.0, REGIME_PURE_THRESHOLD)])
    def test_one_fold_serves_the_search(self, paper_source, paper_channel, linear_penalty, budget, regime):
        # the search, its certificate and every rate analysis share one chain
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


PENALTIES = {"linear": PenaltySpec.linear(), "power1.5": PenaltySpec.power(1.5),
             "table": PenaltySpec.from_table([0, 1, 3, 4, 6])}
FIGURE_BUDGETS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 0.95)


def figure_model(name):
    alpha, n_states, p_e, c, r_max = FIGURE_CONFIGS[name]
    return SourceModel.from_states(alpha, n_states), ChannelModel(p_e=p_e, c=c, r_max=r_max)


def clear_caches():
    lagrangian.burst_chain.cache_clear()
    model.settling_term.cache_clear()
    model.gamma.cache_clear()


class TestChainCache:
    """Burst chains, their memo of cycle sums and step costs, and the settle
    rule persist across solves; no answer depends on them."""

    def test_warm_solves_equal_cold_ones(self):
        # the figure families interleaved budget by budget, as a sweep of
        # several curves reads them
        cases = [(name, penalty, budget) for budget in FIGURE_BUDGETS
                 for name in FIGURE_CONFIGS for penalty in PENALTIES]
        warm = [solve_cmdp(budget, *figure_model(name), PENALTIES[penalty]) for name, penalty, budget in cases]
        assert lagrangian.burst_chain.cache_info().misses == len(FIGURE_CONFIGS)
        for (name, penalty, budget), sol in zip(cases, warm):
            clear_caches()
            assert sol == solve_cmdp(budget, *figure_model(name), PENALTIES[penalty]), (name, penalty, budget)
        assert {sol.regime for sol in warm} == {REGIME_MIXED, REGIME_PURE_THRESHOLD}

    def test_alternating_pairs_build_two_chains(self, linear_penalty):
        pairs = [figure_model("fig3"), figure_model("fig4")]
        for budget in FIGURE_BUDGETS:
            for source, channel in pairs:
                solve_cmdp(budget, source, channel, linear_penalty)
        assert lagrangian.burst_chain.cache_info().misses == 2

    def test_cache_keeps_its_bound(self, paper_channel, linear_penalty):
        size = lagrangian.CHAIN_CACHE_SIZE
        for alpha in np.linspace(0.3, 0.9, size + 3):
            solve_cmdp(0.2, SourceModel.from_states(float(alpha), 16), paper_channel, linear_penalty)
        info = lagrangian.burst_chain.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (size + 3, size, size)

    def test_an_evicted_chain_is_freed(self, paper_source, paper_channel, linear_penalty):
        # the tables hold no reference back to their chain, so eviction frees
        # a chain, its walk and its tables without the cycle collector
        assert solve_cmdp(0.2, paper_source, paper_channel, PenaltySpec.power(1.5)).regime == REGIME_MIXED
        chain = weakref.ref(lagrangian.burst_chain(paper_source, paper_channel))
        gc.disable()
        try:
            for alpha in np.linspace(0.3, 0.9, lagrangian.CHAIN_CACHE_SIZE):
                solve_cmdp(0.2, SourceModel.from_states(float(alpha), 16), paper_channel, linear_penalty)
            assert chain() is None
        finally:
            gc.enable()

    def test_memo_keeps_its_bound(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        # one bound over all the tables of a chain, W entries included
        monkeypatch.setattr(lagrangian, "MEMO_SIZE", 16)
        chain = lagrangian.burst_chain(paper_source, paper_channel)
        penalties = (linear_penalty, PenaltySpec.power(1.5))

        def read():
            return [(lagrangian.cycle_sums(n0, paper_source, paper_channel, penalty),
                     chain.step_cost(chain.table(penalty, SeriesConfig()), n0))
                    for n0 in range(1, 41) for penalty in penalties]

        def held():
            return [quantity for table in chain.tables.values() for quantity, _ in table]

        first = read()
        assert 0 < len(held()) <= 16 and "W" in held()
        assert read() == first
        assert len(held()) <= 16

    @pytest.mark.parametrize("penalty", [PenaltySpec.power(1.5), PenaltySpec.power(2.0), PENALTIES["table"]],
                             ids=["power1.5", "power2", "table"])
    def test_cold_solve_sums_each_w_once(self, monkeypatch, paper_source, paper_channel, penalty):
        # the cycle sums of n0 and the step costs of n0 - 1 and n0 share W(n0);
        # the rate analyses read the linear penalty's
        real, deltas = lagrangian.SigmaSeries.weighted_sum, []

        def counted(self, delta0, weights, *args):
            if weights == penalty:
                deltas.append(delta0)
            return real(self, delta0, weights, *args)

        monkeypatch.setattr(lagrangian.SigmaSeries, "weighted_sum", counted)
        assert solve_cmdp(0.2, paper_source, paper_channel, penalty).regime == REGIME_MIXED
        assert deltas and len(deltas) == len(set(deltas))

    @pytest.mark.parametrize("alpha, budget, regime", [
        (0.01, 0.2, REGIME_NEVER_TRANSMIT), (0.5, 1.0, REGIME_PURE_THRESHOLD), (0.5, 0.2, REGIME_MIXED),
    ])
    def test_warm_certificate_forms_no_transmit_law(
        self, monkeypatch, paper_channel, linear_penalty, alpha, budget, regime
    ):
        # the certificate still reads gamma by name once per solve, from its memo
        source = SourceModel.from_states(alpha, 16)
        assert solve_cmdp(budget, source, paper_channel, linear_penalty).regime == regime
        laws, pairs = [], []
        real_law, real_gamma = model.transmit_law, model.gamma
        monkeypatch.setattr(model, "transmit_law", lambda *args: laws.append(args) or real_law(*args))
        monkeypatch.setattr(model, "gamma", lambda *args: pairs.append(args) or real_gamma(*args))
        assert solve_cmdp(budget, source, paper_channel, linear_penalty).regime == regime
        assert laws == [] and len(pairs) == 1

    def test_warm_mixed_solve_reads_few_chains(self, paper_source, paper_channel, linear_penalty):
        # the solve and the search read their chain once each; the rate
        # analyses and the mixture read it by name; 51 reads before the
        # tables, 6 while each margin of the search looked it up twice
        assert solve_cmdp(0.2, paper_source, paper_channel, linear_penalty).regime == REGIME_MIXED
        before = lagrangian.burst_chain.cache_info()
        assert solve_cmdp(0.2, paper_source, paper_channel, linear_penalty).regime == REGIME_MIXED
        after = lagrangian.burst_chain.cache_info()
        assert after.misses == before.misses and after.hits - before.hits == 5

    @pytest.mark.parametrize("penalty", PENALTIES.values(), ids=PENALTIES.keys())
    @pytest.mark.parametrize("alpha, budget, regime", [
        (0.01, 0.2, REGIME_NEVER_TRANSMIT), (0.5, 1.0, REGIME_PURE_THRESHOLD), (0.5, 0.2, REGIME_MIXED),
    ])
    def test_repeat_solve_computes_nothing_again(self, monkeypatch, paper_channel, penalty, alpha, budget, regime):
        source = SourceModel.from_states(alpha, 16)
        first = solve_cmdp(budget, source, paper_channel, penalty)
        assert first.regime == regime
        computed = []

        def counted(name, compute):
            def wrapper(*args, **kwargs):
                computed.append(name)
                return compute(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lagrangian, "_cycle_sums", counted("cycle sums", lagrangian._cycle_sums))
        monkeypatch.setattr(lagrangian, "_step_cost", counted("step cost", lagrangian._step_cost))
        monkeypatch.setattr(lagrangian.SigmaSeries, "weighted_sum",
                            counted("W", lagrangian.SigmaSeries.weighted_sum))
        settled = model.settling_term.cache_info().misses
        assert solve_cmdp(budget, source, paper_channel, penalty) == first
        assert computed == []
        assert model.settling_term.cache_info().misses == settled

    def test_linear_sums_read_no_cut(self, paper_source, paper_channel, linear_penalty):
        exact = lagrangian.cycle_sums(5, paper_source, paper_channel, linear_penalty)
        loose = lagrangian.cycle_sums(5, paper_source, paper_channel, linear_penalty, SeriesConfig(l_cap=1))
        assert loose is exact

    def test_a_cached_cut_serves_no_other_cut(self, paper_source, paper_channel):
        # a weighted cut past the cap is refused even when a looser cap has
        # already cut, walked and memoized the same threshold
        penalty = PenaltySpec.power(1.5)
        assert solve_cmdp(0.2, paper_source, paper_channel, penalty).regime == REGIME_MIXED
        with pytest.raises(TruncationError):
            solve_cmdp(0.2, paper_source, paper_channel, penalty, SeriesConfig(l_cap=5))


class TestSolveCertificate:
    @pytest.mark.parametrize("penalty", PENALTIES.values(), ids=PENALTIES.keys())
    @pytest.mark.parametrize("name", FIGURE_CONFIGS)
    def test_mixed_solve_reports_its_certificate(self, name, penalty):
        mixed = 0
        for budget in FIGURE_BUDGETS:
            sol = solve_cmdp(budget, *figure_model(name), penalty)
            if sol.regime != REGIME_MIXED:
                assert "certificate" not in sol.diagnostics
                continue
            mixed += 1
            cert = sol.diagnostics["certificate"]
            assert cert["tie_below"] < cert["lambda_star"] < cert["tie_above"]
            assert cert["lambda_star"] == sol.lambda_star
            assert cert["budget_gap"] == sol.predicted_rate - budget
            assert abs(cert["budget_gap"]) <= 1e-9
        assert mixed

    def test_first_threshold_has_no_lower_tie(self, paper_source, paper_channel, linear_penalty):
        sol = solve_cmdp(0.6, paper_source, paper_channel, linear_penalty)
        assert sol.regime == REGIME_MIXED and sol.n_low == 1
        assert sol.diagnostics["certificate"]["tie_below"] == -math.inf


def exact_mixed_solve(source, channel, k, budget, n_low):
    """Exact (below, lambda*, above, rho_high, AoII) of the linear-penalty mix
    of n_low and n_low + 1, on Fractions: the tie prices of (n_low - 1,
    n_low), -inf when n_low = 1, (n_low, n_low + 1) and (n_low + 1, n_low + 2),
    from the oracle's cross-multiplied form."""
    alpha, mu = source.alpha, source.mu
    p = oracles.make_p(channel.p_e, channel.c, channel.r_max)
    sums = oracles.fraction_burst_sums(alpha, mu, p, k)
    cycle = {n: oracles.fraction_cycle_sums(alpha, mu, sums, n) for n in range(max(n_low - 1, 1), n_low + 3)}

    def tie(n0):
        return oracles.tie_price(cycle[n0], cycle[n0 + 1]) if n0 >= 1 else -math.inf

    rho, aoii = oracles.fraction_mix(cycle[n_low], cycle[n_low + 1], budget)
    return tie(n_low - 1), tie(n_low), tie(n_low + 1), rho, aoii


def test_waiting_head_closed_form():
    # the oracle's closed-form waiting head equals the term-by-term sum
    sums = oracles.fraction_burst_sums(0.5, 1 / 30, oracles.make_p(0.5, 0.5, 2), 3)
    m = Fraction(1 / 30)
    for n0 in range(1, 51):
        head = sum((1 - m) ** i * (i + 1) for i in range(n0 - 1))
        cost = head + (1 - m) ** (n0 - 1) * (n0 * sums[0] + sums[1])
        assert oracles.fraction_cycle_sums(0.5, 1 / 30, sums, n0)[2] == cost


class TestEdgeSolves:
    """Near the limits mu -> alpha and p_e -> 1 a solve ends, in bounded
    time, in a solution or a typed SolverError."""

    def test_mu_just_below_alpha_solves(self, paper_channel, linear_penalty):
        start = time.perf_counter()
        sol = solve_cmdp(0.2, SourceModel(alpha=0.5, mu=0.5 * (1.0 - 1e-3)), paper_channel, linear_penalty)
        assert time.perf_counter() - start < 2.0
        assert sol.regime == REGIME_MIXED and abs(sol.predicted_rate - 0.2) <= 1e-9

    @pytest.mark.parametrize("budget", [0.2, 0.5])
    @pytest.mark.parametrize("source, channel, k", [
        (SourceModel(alpha=0.5, mu=0.5 - 1e-6), ChannelModel(p_e=0.5, c=0.5, r_max=2), 3),
        (SourceModel.from_states(0.5, 16), ChannelModel(p_e=1.0 - 1e-9, c=1.0), 1),
    ], ids=["mu=alpha-1e-6", "p_e=1-1e-9"])
    def test_solves_to_the_exact_answer(self, linear_penalty, source, channel, k, budget):
        # lambda* is tiny here (2.9e-7 to 3.5e-6) and the float one is off from
        # the exact one by up to 6.9e-7 relative; the exact tie prices still
        # bracket it, and rho and the AoII match the rational solve
        start = time.perf_counter()
        sol = solve_cmdp(budget, source, channel, linear_penalty)
        assert time.perf_counter() - start < 2.0
        assert sol.regime == REGIME_MIXED
        below, exact_star, above, rho, aoii = exact_mixed_solve(source, channel, k, budget, sol.n_low)
        assert below < exact_star < above
        assert abs(sol.rho_high - float(rho)) <= 1e-12
        assert abs(sol.predicted_aoii - float(aoii)) <= 1e-12 * float(aoii)
        assert abs(sol.lambda_star - float(exact_star)) <= 1e-6 * float(exact_star)

    @pytest.mark.parametrize("source, channel, k, budget, n_low", [
        (SourceModel.from_states(0.2, 16), ChannelModel(p_e=0.99, c=0.5, r_max=0), 1, 1e-13, 545),
        (SourceModel.from_states(0.99, 2), ChannelModel(p_e=0.5, c=0.5, r_max=2), 3, 1e-13, 2502),
        (SourceModel.from_states(0.2, 16), ChannelModel(p_e=0.99, c=0.5, r_max=0), 1, 1e-11, 461),
    ], ids=["alpha=0.2,p_e=0.99", "alpha=0.99,N=2", "alpha=0.2,p_e=0.99,R=1e-11"])
    def test_large_threshold_solves_to_the_exact_answer(self, linear_penalty, source, channel, k, budget, n_low):
        # the mixed thresholds are in the hundreds or thousands, where
        # (1-mu)^n0 is small; tie prices read from differences of two
        # thresholds' cycle sums would cancel there
        sol = solve_cmdp(budget, source, channel, linear_penalty)
        assert sol.regime == REGIME_MIXED and sol.n_low == n_low
        assert abs(sol.predicted_rate - budget) <= 1e-9 * budget
        below, exact_star, above, rho, aoii = exact_mixed_solve(source, channel, k, budget, sol.n_low)
        assert below < exact_star < above
        assert float(below) < sol.lambda_star < float(above)
        assert abs(sol.rho_high - float(rho)) <= 1e-12
        assert abs(sol.predicted_aoii - float(aoii)) <= 1e-12 * float(aoii)
        assert abs(sol.lambda_star - float(exact_star)) <= 1e-9 * float(exact_star)

    def test_solves_with_a_threshold_near_thirty_thousand(self, linear_penalty):
        # (1-mu)^n0 is 6.9e-11 at the mixed pair; the search trace stays
        # monotone and the certificate holds
        source, channel = SourceModel.from_states(0.9, 128), ChannelModel(p_e=0.5, c=0.5)
        sol = solve_cmdp(1e-13, source, channel, linear_penalty)
        assert sol.regime == REGIME_MIXED and sol.n_low == 29_701
        assert abs(sol.predicted_rate - 1e-13) <= 1e-9 * 1e-13

    @pytest.mark.parametrize("exponent", [*range(25, 41), 80])
    def test_power_penalty_near_the_boundedness_edge(self, paper_source, paper_channel, exponent):
        # f(d) = d**exponent: the certificate's terms f(l+1) q**l, with
        # q = gamma1(0) + gamma2(0) = 0.733, peak near l = 100 at 1e48.7 for
        # exponent 31 and 1e50.7 for 32, and near l = 260 at 1e158 for 80.
        # They are finite and settle, so each solve is certified
        start = time.perf_counter()
        sol = solve_cmdp(0.2, paper_source, paper_channel, PenaltySpec.power(exponent))
        assert sol.regime == REGIME_MIXED and sol.n_high == 11
        assert abs(sol.predicted_rate - 0.2) <= 1e-9 and np.isfinite(sol.predicted_aoii)
        assert time.perf_counter() - start < 2.0

    def test_overflowing_power_is_refused(self, paper_source, paper_channel):
        # d**200 overflows from d = 35, before its terms can settle; the
        # suite's RuntimeWarning filter turns a numpy warning into a failure
        with pytest.raises(BoundednessError):
            solve_cmdp(0.2, paper_source, paper_channel, PenaltySpec.power(200))

    @pytest.mark.parametrize("exponent", [25, 30, 40])
    def test_waiting_cost_of_a_steep_power(self, exponent):
        # mu >= alpha: the never-transmit cost's series peaks near 1e61 at
        # exponent 25; a finite term, however large, is summed
        source = SourceModel.from_states(0.01, 32)
        alpha, mu = source.alpha, source.mu
        sol = solve_cmdp(0.5, source, ChannelModel(p_e=0.5, c=0.5), PenaltySpec.power(exponent))
        tail = math.fsum((i + 1.0) ** exponent * (1.0 - mu) ** i for i in range(100_000))
        assert sol.regime == REGIME_NEVER_TRANSMIT
        assert sol.predicted_aoii == pytest.approx(mu * (1.0 - alpha) * tail / (mu + 1.0 - alpha), rel=1e-12)


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
