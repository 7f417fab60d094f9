import numpy as np
import pytest

import oracles
from aoii_harq import (
    ChannelModel,
    PenaltySpec,
    SeriesConfig,
    SourceModel,
    TruncationError,
    achieved_rate,
    g_for_threshold,
    g_wait,
    gamma,
    gamma_arrays,
    optimal_threshold,
    sigma_series,
    solve_cmdp,
    value_at,
)
from aoii_harq import lagrangian
from aoii_harq.errors import ThresholdSearchError
from aoii_harq.lagrangian import burst_chain
from aoii_harq.rvi import RviConfig, extract_thresholds, rvi_solve


def threshold_margin(n0, lam, source, channel, penalty):
    """Optimality-condition margin rebuilt from the public operations."""
    g = g_for_threshold(n0, lam, source, channel, penalty)
    v_lo = value_at(n0, n0, lam, g, source, channel, penalty)
    v_hi = value_at(n0 + 1, n0, lam, g, source, channel, penalty)
    return (1.0 - source.mu) * v_hi - v_lo + penalty(n0) - g


class CountingPenalty:
    """Wraps a PenaltySpec and counts its evaluate calls."""

    def __init__(self, spec):
        self.spec = spec
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def __call__(self, delta):
        return self.spec(delta)

    def evaluate(self, delta):
        self.calls += 1
        return self.spec.evaluate(delta)


# keyed by r_max for the first two, then one channel per other fold rule
CHANNELS = {
    "None": dict(p_e=0.5, c=0.5),
    "2": dict(p_e=0.5, c=0.5, r_max=2),
    "no-combining": dict(p_e=0.5, c=0.5, combining="none"),
    "unbounded-c=0.9": dict(p_e=0.5, c=0.9),
}


class TestSigmaSeries:
    def test_first_terms(self, paper_source, paper_channel):
        sigmas, depth = sigma_series(paper_source, paper_channel)
        pair = gamma(paper_source, paper_channel, 0)
        assert sigmas[0] == 1.0
        assert sigmas[1] == pytest.approx(pair.gamma1 + pair.gamma2, abs=1e-15)
        assert depth == len(sigmas) - 1
        assert sigmas[-1] < 1e-12

    def test_strictly_decreasing(self, paper_source, paper_channel):
        sigmas, _ = sigma_series(paper_source, paper_channel)
        assert np.all(np.diff(sigmas) < 0.0)

    def test_perfect_decoding_collapses_to_geometric(self, perfect_channel):
        source = SourceModel(alpha=0.3, mu=0.1)
        sigmas, _ = sigma_series(source, perfect_channel)
        expected = 0.7 ** np.arange(len(sigmas))
        assert sigmas == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kwargs", CHANNELS.values(), ids=CHANNELS.keys())
    def test_matches_dense_matrix_powers(self, kwargs):
        source = SourceModel(alpha=0.5, mu=1 / 30)
        channel = ChannelModel(**kwargs)
        sigmas, depth = sigma_series(source, channel)
        p = oracles.make_p(**kwargs)
        dense = oracles.dense_sigma(source.alpha, source.mu, p, size=depth + 2, depth=depth)
        assert sigmas == pytest.approx(dense, abs=1e-14)

    @pytest.mark.parametrize("kwargs, k", [
        (dict(p_e=0.5, c=0.5, r_max=2), 3),
        (dict(p_e=0.5, c=0.5, r_max=2, combining="none"), 3),
        (dict(p_e=0.5, c=0.5, combining="none"), 1),
        (dict(p_e=0.5, c=1.0), 1),
        (dict(p_e=0.5, c=0.5), 45),
        (dict(p_e=0.5, c=0.5, r_max=500), 45),
    ], ids=["round", "round-no-combining", "no-combining", "c=1", "unbounded", "long-round"])
    def test_fold_sizes(self, kwargs, k):
        series = burst_chain(SourceModel(alpha=0.5, mu=1 / 30), ChannelModel(**kwargs))
        assert series.gamma1.size == series.gamma2.size == series.x.size == k

    def test_unbounded_fold_ends_where_the_burst_cannot_pass(self):
        source = SourceModel(alpha=0.5, mu=1 / 30)
        channel = ChannelModel(p_e=0.5, c=0.9)
        series = burst_chain(source, channel)
        g1, g2 = series.gamma1, series.gamma2
        full1, full2 = gamma_arrays(source, channel, 4 * g1.size)
        prefix = np.cumprod(full1)
        assert prefix[g1.size - 2] > 0.0 and prefix[g1.size - 1] == 0.0
        assert g1[-1] == 0.0
        assert np.array_equal(g1[:-1], full1[: g1.size - 1]) and np.array_equal(g2, full2[: g1.size])

    def test_fold_ceiling_reported(self, monkeypatch):
        monkeypatch.setattr(lagrangian, "_FOLD_CEILING", 64)
        with pytest.raises(TruncationError):
            burst_chain(SourceModel(alpha=0.5, mu=1 / 30), ChannelModel(p_e=0.5, c=0.99))

    def test_shared_chain_is_read_only(self, paper_source, paper_channel):
        series = burst_chain(paper_source, paper_channel)
        for array in (series.gamma1, series.gamma2, series.x):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert series.gamma1 is burst_chain(paper_source, paper_channel).gamma1

    def test_exact_sums_ignore_the_series_controls(self, paper_source, paper_channel, linear_penalty):
        series = burst_chain(paper_source, paper_channel)
        loose, tight = SeriesConfig(1e-2, 1e-2, l_cap=1), SeriesConfig(1e-15, 1e-15)
        assert series.weighted_sum(5, linear_penalty, loose) == series.weighted_sum(5, linear_penalty, tight)
        assert series.depth == 0
        sigmas, _ = sigma_series(paper_source, paper_channel, SeriesConfig(epsilon=1e-300))
        ls = np.arange(sigmas.size)
        assert (series.total, series.weighted_sum(5, linear_penalty, tight)) == pytest.approx(
            (sigmas.sum(), (5 + ls) @ sigmas), rel=1e-13
        )

    def test_truncation_failure_reported(self, paper_source, paper_channel):
        with pytest.raises(TruncationError):
            sigma_series(paper_source, paper_channel, SeriesConfig(epsilon=1e-12, l_cap=5))

    def test_answers_do_not_depend_on_the_walk_so_far(self, paper_source, paper_channel):
        power = PenaltySpec.power(1.5)
        sigmas, depth = sigma_series(paper_source, paper_channel)
        analysis = achieved_rate(4, paper_source, paper_channel)
        first = (analysis.depth, analysis.truncation_mass)
        value = value_at(6, 4, 1.0, 3.0, paper_source, paper_channel, power)
        deep, _ = sigma_series(paper_source, paper_channel, SeriesConfig(epsilon=1e-300))
        assert burst_chain(paper_source, paper_channel).depth == deep.size - 1 > depth
        again, again_depth = sigma_series(paper_source, paper_channel)
        assert again_depth == depth and np.array_equal(again, sigmas)
        analysis = achieved_rate(4, paper_source, paper_channel)
        assert (analysis.depth, analysis.truncation_mass) == first
        assert value_at(6, 4, 1.0, 3.0, paper_source, paper_channel, power) == value
        with pytest.raises(TruncationError):
            sigma_series(paper_source, paper_channel, SeriesConfig(l_cap=5))
        with pytest.raises(TruncationError):
            value_at(6, 4, 1.0, 3.0, paper_source, paper_channel, power, SeriesConfig(l_cap=5))

    def test_cut_at_the_cap_is_allowed(self, paper_source, paper_channel):
        _, depth = sigma_series(paper_source, paper_channel)
        burst_chain.cache_clear()
        assert sigma_series(paper_source, paper_channel, SeriesConfig(l_cap=depth))[1] == depth
        with pytest.raises(TruncationError):
            sigma_series(paper_source, paper_channel, SeriesConfig(l_cap=depth - 1))
        assert burst_chain(paper_source, paper_channel).depth == depth

    @pytest.mark.parametrize("penalty", [PenaltySpec.power(1.5), PenaltySpec.from_table([0, 1, 3, 4, 6])],
                             ids=["power1.5", "table"])
    def test_weighted_cut_at_the_cap_is_allowed(self, paper_source, paper_channel, penalty):
        # the weighted cut, found here on a deep walk, lies past the epsilon cut
        delta0, cfg = 40, SeriesConfig()
        _, first = sigma_series(paper_source, paper_channel)
        sigmas, _ = sigma_series(paper_source, paper_channel, SeriesConfig(epsilon=1e-300))
        weights = penalty.evaluate(delta0 + np.arange(sigmas.size, dtype=float))
        depth = int(np.flatnonzero((sigmas < cfg.epsilon) & (weights * sigmas < cfg.weighted_epsilon))[0])
        assert depth > first
        burst_chain.cache_clear()
        series = burst_chain(paper_source, paper_channel)
        assert series.weighted_sum(delta0, penalty, SeriesConfig(l_cap=depth)) == float(
            weights[: depth + 1] @ sigmas[: depth + 1])
        assert series.depth == depth
        with pytest.raises(TruncationError):
            series.weighted_sum(delta0, penalty, SeriesConfig(l_cap=depth - 1))
        burst_chain.cache_clear()
        with pytest.raises(TruncationError):
            burst_chain(paper_source, paper_channel).weighted_sum(delta0, penalty, SeriesConfig(l_cap=depth - 1))

    def test_weighted_sum_evaluates_each_age_once(self, paper_source, paper_channel):
        ages = []

        class AgeCounting(CountingPenalty):
            def evaluate(self, delta):
                ages.append(np.array(delta, dtype=float).ravel())
                return super().evaluate(delta)

        value_at(40, 4, 1.0, 3.0, paper_source, paper_channel, AgeCounting(PenaltySpec.power(1.5)))
        seen = np.concatenate(ages)
        assert seen.size and np.unique(seen).size == seen.size

    def test_one_walk_serves_every_query(self, paper_source, paper_channel, sigma_steps):
        _, depth = sigma_series(paper_source, paper_channel)
        assert sigma_steps[0] == depth
        analysis = achieved_rate(3, paper_source, paper_channel)
        analysis.stationary_arrays
        sigma_series(paper_source, paper_channel)
        assert sigma_steps[0] == depth == analysis.depth

    def test_queries_read_the_walk_without_copying(self, paper_source, paper_channel):
        sigmas, depth = sigma_series(paper_source, paper_channel)
        again, _ = sigma_series(paper_source, paper_channel)
        inflow = burst_chain(paper_source, paper_channel).inflow(depth)
        assert np.shares_memory(sigmas, again)
        for view in (sigmas, inflow):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0

    def test_weighted_cut_tests_blocks_of_terms(self):
        # near q -> 1 the weighted cut lies ~10k terms past the epsilon cut;
        # a penalty.evaluate per walked term would take over 11,000 calls
        source, channel = SourceModel(0.5, 1e-4), ChannelModel(p_e=0.999, c=1.0)
        penalty = CountingPenalty(PenaltySpec.power(1.0))
        sol = solve_cmdp(0.2, source, channel, penalty)
        assert penalty.calls < 1_000
        exact = solve_cmdp(0.2, source, channel, PenaltySpec.linear())
        assert (sol.regime, sol.n_high, sol.n_low) == (exact.regime, exact.n_high, exact.n_low)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_epsilon_must_lie_below_the_first_term(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            SeriesConfig(epsilon=epsilon)


class TestGForThreshold:
    def test_always_transmit_perfect_channel(self, perfect_channel, linear_penalty):
        # threshold 1 with perfect decoding and alpha = mu = 0.5: the induced
        # chain has q_delta = 0.5**(delta+1), so the mean AoII is exactly 1
        # (exact stationary solve; cross-checked by simulation below)
        source = SourceModel(alpha=0.5, mu=0.5)
        g = g_for_threshold(1, 0.0, source, perfect_channel, linear_penalty)
        assert g == pytest.approx(1.0, abs=1e-10)

    def test_always_transmit_matches_brute_simulation(self, linear_penalty):
        source = SourceModel(alpha=0.5, mu=0.5)
        channel = ChannelModel(p_e=1e-13, c=0.5)
        g = g_for_threshold(1, 0.0, source, channel, linear_penalty)
        sim_cost, _ = oracles.brute_sim(
            0.5, 0.5, oracles.make_p(1e-13, 0.5), oracles.threshold_decide(1), 500_000, seed=101
        )
        assert sim_cost == pytest.approx(g, abs=0.02)

    def test_paper_config_against_power_iteration_value(self, paper_source, paper_channel, linear_penalty):
        # frozen from an independent power-iteration stationary solve of the
        # threshold-3 chain (delta <= 2000, r <= 60): 2.778551802410741
        g = g_for_threshold(3, 0.0, paper_source, paper_channel, linear_penalty)
        assert g == pytest.approx(2.778551802410741, abs=5e-8)

    def test_large_threshold_approaches_waiting_cost(self, linear_penalty):
        source = SourceModel(alpha=0.5, mu=0.5)
        channel = ChannelModel(p_e=0.5, c=0.5)
        limit = g_for_threshold(200, 0.0, source, channel, linear_penalty)
        assert limit == pytest.approx(g_wait(source, linear_penalty), abs=1e-6)

    def test_positive_for_zero_at_origin(self, paper_source, paper_channel, linear_penalty):
        assert linear_penalty(0) == 0.0
        for n0 in (1, 2, 7):
            assert g_for_threshold(n0, 0.0, paper_source, paper_channel, linear_penalty) > 0.0

    def test_lambda_is_charged_per_transmission(self, paper_source, paper_channel, linear_penalty):
        g0 = g_for_threshold(4, 0.0, paper_source, paper_channel, linear_penalty)
        g5 = g_for_threshold(4, 5.0, paper_source, paper_channel, linear_penalty)
        assert g5 > g0


class TestValueAt:
    def test_wait_recursion_consistent_across_boundary(self, paper_source, paper_channel, linear_penalty):
        # in the waiting region V(d) = f(d) - g + (1-mu) V(d+1), and the
        # recursion must hand over continuously into the series branch at n0
        n0, lam = 4, 1.0
        mu = paper_source.mu
        g = g_for_threshold(n0, lam, paper_source, paper_channel, linear_penalty)
        vals = {
            d: value_at(d, n0, lam, g, paper_source, paper_channel, linear_penalty)
            for d in range(1, n0 + 1)
        }
        for d in range(1, n0):
            expected = linear_penalty(d) - g + (1.0 - mu) * vals[d + 1]
            assert vals[d] == pytest.approx(expected, abs=1e-9)

    def test_v1_identity(self, paper_source, paper_channel, linear_penalty):
        # g = f(0) + (1 - alpha) V(1, 0) for the returned pair
        for n0 in (1, 3, 8):
            g = g_for_threshold(n0, 2.0, paper_source, paper_channel, linear_penalty)
            v1 = value_at(1, n0, 2.0, g, paper_source, paper_channel, linear_penalty)
            assert g == pytest.approx(linear_penalty(0) + (1 - paper_source.alpha) * v1, abs=1e-9)

    def test_monotone_in_delta_at_optimal_threshold(self, paper_source, paper_channel, linear_penalty):
        # increasing in the age along r = 0 (a property of the optimal value
        # function, so it is checked at the multiplier-optimal threshold)
        lam = 5.0
        n0 = optimal_threshold(lam, paper_source, paper_channel, linear_penalty)
        g = g_for_threshold(n0, lam, paper_source, paper_channel, linear_penalty)
        values = [
            value_at(d, n0, lam, g, paper_source, paper_channel, linear_penalty)
            for d in range(1, 51)
        ]
        assert np.all(np.diff(values) > 0.0)

    def test_agrees_with_value_iteration(self, linear_penalty):
        # at the multiplier-optimal threshold the policy-evaluation series and
        # the optimal value function solve the same fixed point
        source = SourceModel(0.9, 0.1)
        channel = ChannelModel(p_e=0.3, c=1.0)
        lam = 3.0
        n0 = optimal_threshold(lam, source, channel, linear_penalty)
        g = g_for_threshold(n0, lam, source, channel, linear_penalty)
        sol = rvi_solve(lam, source, channel, linear_penalty, RviConfig(delta_max=400, r_cap=64))
        assert sol.converged
        assert g == pytest.approx(sol.g, rel=1e-6)
        for delta in (1, 2, 3, 5, 10, 25):
            v = value_at(delta, n0, lam, g, source, channel, linear_penalty)
            assert v == pytest.approx(sol.values[delta, 0], rel=1e-5, abs=1e-5)


class TestOptimalThreshold:
    def test_waiting_regime_returns_none(self, linear_penalty):
        source = SourceModel.from_states(0.01, 32)
        channel = ChannelModel(p_e=0.5, c=0.5)
        assert optimal_threshold(0.0, source, channel, linear_penalty) is None
        assert optimal_threshold(7.0, source, channel, linear_penalty) is None

    def test_negative_price_rejected(self, paper_source, paper_channel, linear_penalty):
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_threshold(-1.0, paper_source, paper_channel, linear_penalty)

    def test_matches_value_iteration_example(self, linear_penalty):
        source = SourceModel(0.9, 0.1)
        channel = ChannelModel(p_e=0.3, c=1.0)
        n0 = optimal_threshold(0.0, source, channel, linear_penalty)
        sol = rvi_solve(0.0, source, channel, linear_penalty, RviConfig(delta_max=400, r_cap=64))
        assert n0 == extract_thresholds(sol)[0]

    def test_monotone_in_lambda(self, paper_source, paper_channel, linear_penalty):
        lams = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        thresholds = [
            optimal_threshold(lam, paper_source, paper_channel, linear_penalty) for lam in lams
        ]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_condition_false_below_and_true_at_threshold(self, paper_source, paper_channel, linear_penalty):
        lam = 5.0
        n_star = optimal_threshold(lam, paper_source, paper_channel, linear_penalty)
        assert n_star > 1
        for n0 in range(1, n_star):
            assert threshold_margin(n0, lam, paper_source, paper_channel, linear_penalty) <= 1e-12
        assert threshold_margin(n_star, lam, paper_source, paper_channel, linear_penalty) > 1e-12

    def test_local_lagrange_optimality(self, paper_source, paper_channel, linear_penalty):
        lam = 5.0
        n_star = optimal_threshold(lam, paper_source, paper_channel, linear_penalty)
        g_star = g_for_threshold(n_star, lam, paper_source, paper_channel, linear_penalty)
        for n0 in (n_star - 1, n_star + 1, n_star + 2):
            if n0 >= 1:
                assert g_star <= g_for_threshold(n0, lam, paper_source, paper_channel, linear_penalty) + 1e-12

    @pytest.mark.parametrize("penalty", [PenaltySpec.linear(), PenaltySpec.power(1.5),
                                         PenaltySpec.from_table([0, 1, 3, 4, 6])], ids=["linear", "power1.5", "table"])
    @pytest.mark.parametrize("kwargs", CHANNELS.values(), ids=CHANNELS.keys())
    def test_margin_matches_the_value_function_form(self, kwargs, penalty):
        # the search's margin, (tie - lam) (mu S + (1 - mu S) T/L), is the
        # value function's (1-mu) V(n0+1) - V(n0) + f(n0) - g rearranged
        source, channel = SourceModel(alpha=0.5, mu=1 / 30), ChannelModel(**kwargs)
        chain = burst_chain(source, channel)
        table = chain.table(penalty, SeriesConfig())
        for lam in (0.0, 1.0, 5.0, 100.0):
            for n0 in range(1, 41):
                length, transmissions, _ = chain.cycle_sums(table, n0)
                fast = (chain.tie_price(table, n0) - lam) * (chain.mu_s + (1.0 - chain.mu_s) * transmissions / length)
                slow = threshold_margin(n0, lam, source, channel, penalty)
                assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)
                assert np.sign(fast) == np.sign(slow) or abs(slow) <= 1e-12

    @pytest.mark.parametrize("penalty", [PenaltySpec.linear(), PenaltySpec.power(1.5),
                                         PenaltySpec.from_table([0, 1, 3, 4, 6])], ids=["linear", "power1.5", "table"])
    def test_near_tie_prices_keep_the_margin_form_thresholds(self, penalty):
        # at and next to lam = tie(n) the search returns what the margin
        # D - lam mu S - (1 - mu S) g returns: its tolerance breaks a tie
        # toward waiting, so lam = tie(n) (1 - 1e-13) still gives n + 1
        source, cfg = SourceModel(alpha=0.5, mu=1 / 30), SeriesConfig()
        for kwargs in [*CHANNELS.values(), dict(p_e=0.2, c=0.8, r_max=4)]:
            channel = ChannelModel(**kwargs)
            chain = burst_chain(source, channel)
            table = chain.table(penalty, cfg)

            def margin_form(lam):
                def fires(n0):
                    g = g_for_threshold(n0, lam, source, channel, penalty)
                    return chain.step_cost(table, n0) - lam * chain.mu_s - (1.0 - chain.mu_s) * g > lagrangian._TIE_TOL
                return lagrangian.least_true(fires, 0)

            for n in range(1, 40):
                tie = chain.tie_price(table, n)
                for lam in (tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf), tie * (1 - 1e-13),
                            tie * (1 + 1e-13)):
                    assert optimal_threshold(lam, source, channel, penalty) == margin_form(lam)
                if n <= 3:  # here 1e-13 tie times the scale stays below _TIE_TOL
                    assert optimal_threshold(tie * (1 - 1e-13), source, channel, penalty) == n + 1

    def test_search_reads_its_chain_once(self, paper_source, paper_channel, linear_penalty):
        # the probes read the table the search fetched; 8 chain reads when
        # each margin looked the chain up itself and again through g
        assert optimal_threshold(5.0, paper_source, paper_channel, linear_penalty) > 1
        before = burst_chain.cache_info()
        assert optimal_threshold(5.0, paper_source, paper_channel, linear_penalty) > 1
        after = burst_chain.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_ceiling_reported(self, monkeypatch, paper_source, paper_channel, linear_penalty):
        monkeypatch.setattr(lagrangian, "N0_CEILING", 16)
        with pytest.raises(ThresholdSearchError):
            optimal_threshold(1e9, paper_source, paper_channel, linear_penalty)

    def test_search_never_passes_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(lagrangian, "N0_CEILING", 16)
        probes = []

        def fires(n):
            probes.append(n)
            return True

        assert lagrangian.least_true(fires, 15) == 16
        for start in (16, 17):
            with pytest.raises(ThresholdSearchError):
                lagrangian.least_true(fires, start)
        assert probes == [16]


class TestGWait:
    def test_symmetric_binary_source(self, linear_penalty):
        # exact stationary mean of the waiting chain: q0 = 0.5, geometric tail
        # (cross-checked by power iteration and two Monte Carlo runs)
        assert g_wait(SourceModel(0.5, 0.5), linear_penalty) == pytest.approx(1.0, abs=1e-15)

    def test_slow_source_value(self, linear_penalty):
        # alpha = 0.01, N = 32: closed form (1-a)/(mu (mu+1-a)) = 961/31.68
        source = SourceModel.from_states(0.01, 32)
        assert g_wait(source, linear_penalty) == pytest.approx(961.0 / 31.68, rel=1e-12)

    def test_matches_brute_simulation(self, linear_penalty):
        source = SourceModel(0.5, 0.5)
        never = lambda delta, r, t, rng: False
        cost, rate = oracles.brute_sim(0.5, 0.5, oracles.make_p(0.5, 0.5), never, 400_000, seed=3)
        assert rate == 0.0
        assert cost == pytest.approx(g_wait(source, linear_penalty), rel=0.02)

    def test_zero_penalty(self, zero_penalty):
        assert g_wait(SourceModel(0.4, 0.3), zero_penalty) == 0.0

    def test_numeric_path_matches_closed_form(self):
        # a table that replicates the linear penalty must reproduce the
        # linear closed form through the numeric summation path
        source = SourceModel(0.3, 0.2)
        table = PenaltySpec.from_table(list(range(80)))
        linear = PenaltySpec.linear()
        assert g_wait(source, table) == pytest.approx(g_wait(source, linear), rel=1e-9)

    def test_tiny_table_is_summed_exactly(self):
        # every term lies below weighted_epsilon, yet the series is
        # 1e-30 / mu^2 in full; a cut at the first settled term gave 2.64e-27
        source = SourceModel(0.3, 1e-4)
        exact = 1e-4 * 0.7 * 1e-30 / 1e-8 / (1e-4 + 0.7)
        assert g_wait(source, PenaltySpec.from_table([0, 1e-30, 2e-30])) == pytest.approx(exact, rel=1e-12, abs=0)
        assert exact == pytest.approx(9.9986e-27, rel=1e-5, abs=0)

    def test_power_penalty_against_direct_sum(self):
        source = SourceModel(0.4, 0.25)
        pen = PenaltySpec.power(2)
        direct = sum((1 - source.mu) ** i * (i + 1) ** 2 for i in range(4000))
        expected = source.mu * (0.0 + (1 - source.alpha) * direct) / (source.mu + 1 - source.alpha)
        assert g_wait(source, pen) == pytest.approx(expected, rel=1e-9)
