import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from aoii_harq import (
    ChannelModel,
    SeriesConfig,
    SourceModel,
    achieved_rate,
    g_for_threshold,
    gamma,
    m_table,
    mixed_chain_analysis,
    sigma_series,
)
from aoii_harq.config import load_config
from test_rvi import VALIDATE_POINTS


def burst_weight(table, h, r):
    """m(h, r) for r <= h, from the factored table (m0, gamma1_prefix)."""
    m0, gamma1_prefix = table
    return float(m0[h - r] * gamma1_prefix[r])


# keyed by r_max for the first two, then one channel per other fold rule
CHANNELS = {
    "None": dict(p_e=0.5, c=0.5),
    "2": dict(p_e=0.5, c=0.5, r_max=2),
    "no-combining": dict(p_e=0.5, c=0.5, combining="none"),
    "unbounded-c=0.9": dict(p_e=0.5, c=0.9),
}


# the chains of the validate_grid benchmark: VALIDATE_POINTS, then the
# waiting source of its last config
WAITING = load_config(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "waiting_source.json")
GRID_CHAINS = {
    **{f"a{a}-n{n}-pe{p}-r{r}": (SourceModel.from_states(a, n), ChannelModel(p_e=p, c=0.5, r_max=r))
       for a, n, p, r in VALIDATE_POINTS},
    "waiting-source": (WAITING.source, WAITING.channel),
}
# one-state folds of the paper source: c = 1, and no combining
FOLD_CHAINS = {
    "c=1": (SourceModel.from_states(0.5, 16), ChannelModel(p_e=0.5, c=1.0)),
    "no-combining": (SourceModel.from_states(0.5, 16), ChannelModel(p_e=0.5, c=0.5, combining="none")),
}
# about 46,000 sigma terms, while the gamma1 prefix underflows past r = 1,075
DEEP_CHAIN = {"a0.5-mu1e-4-pe0.999-no-combining": (SourceModel(0.5, 1e-4),
                                                   ChannelModel(p_e=0.999, c=0.5, combining="none"))}


class TestMTable:
    def test_base_cases(self, paper_source, paper_channel):
        table = m_table(paper_source, paper_channel, 6)
        pair = gamma(paper_source, paper_channel, 0)
        assert burst_weight(table, 0, 0) == 1.0
        assert burst_weight(table, 1, 0) == pytest.approx(pair.gamma2, abs=1e-15)
        assert burst_weight(table, 1, 1) == pytest.approx(pair.gamma1, abs=1e-15)

    def test_entries_nonnegative(self, paper_source, paper_channel):
        table = m_table(paper_source, paper_channel, 24)
        for h in range(25):
            for r in range(h + 1):
                assert burst_weight(table, h, r) >= 0.0

    def test_perfect_decoding_kills_positive_counts(self, perfect_channel):
        source = SourceModel(alpha=0.3, mu=0.2)
        table = m_table(source, perfect_channel, 20)
        for h in range(21):
            assert burst_weight(table, h, 0) == pytest.approx(0.7**h, rel=1e-12)
            for r in range(1, h + 1):
                assert burst_weight(table, h, r) == 0.0

    @pytest.mark.parametrize("kwargs", CHANNELS.values(), ids=CHANNELS.keys())
    def test_matches_brute_force_enumeration(self, kwargs):
        source = SourceModel(alpha=0.5, mu=1 / 30)
        channel = ChannelModel(**kwargs)
        oracle = oracles.enumerate_m(0.5, 1 / 30, oracles.make_p(**kwargs), 20)
        table = m_table(source, channel, 20)
        for (h, r), expected in oracle.items():
            assert burst_weight(table, h, r) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_layers_convolve_to_sigma_series(self, paper_source, paper_channel):
        # sum_r gamma1_prefix[r] m0[h - r] = sigma_h, the identity under both
        # the stationary law and its region masses
        chains = {"paper": (paper_source, paper_channel), **GRID_CHAINS, **FOLD_CHAINS, **DEEP_CHAIN}
        for name, chain in chains.items():
            sigmas, depth = sigma_series(*chain)
            m0, gamma1_prefix = m_table(*chain, depth)
            # the zero tail of the prefix adds nothing
            layers = np.convolve(m0, gamma1_prefix[: np.count_nonzero(gamma1_prefix)])[: depth + 1]
            assert layers == pytest.approx(sigmas, rel=1e-12), name


class TestAchievedRate:
    def test_perfect_channel_threshold_one(self, near_perfect_channel):
        # the chain collapses to a birth-death line with reset: q00 = alpha,
        # C = 1 - alpha (exact renewal computation, confirmed by simulation)
        source = SourceModel(alpha=0.5, mu=0.2)
        analysis = achieved_rate(1, source, near_perfect_channel)
        assert analysis.q00 == pytest.approx(0.5, abs=1e-9)
        assert analysis.rate == pytest.approx(0.5, abs=1e-9)

    def test_rate_decreasing_in_threshold(self, paper_source, paper_channel):
        rates = [achieved_rate(n0, paper_source, paper_channel).rate for n0 in range(1, 21)]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert achieved_rate(60, paper_source, paper_channel).rate < 0.02

    def test_waiting_ramp_matches_closed_form(self, paper_source, paper_channel):
        alpha, mu = paper_source.alpha, paper_source.mu
        analysis = achieved_rate(6, paper_source, paper_channel)
        for k in range(1, 7):
            expected = (1 - alpha) * (1 - mu) ** (k - 1) * analysis.q00
            assert analysis.stationary[(k, 0)] == pytest.approx(expected, rel=1e-12)

    def test_normalization_with_declared_tail(self, paper_source, paper_channel):
        analysis = achieved_rate(3, paper_source, paper_channel, cfg=SeriesConfig(epsilon=1e-12))
        total = sum(analysis.stationary.values()) + analysis.truncation_mass
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= analysis.truncation_mass <= 1e-12

    def test_rate_equals_transmitting_mass(self, paper_source, paper_channel):
        analysis = achieved_rate(4, paper_source, paper_channel)
        mass = sum(p for (d, _), p in analysis.stationary.items() if d >= 4)
        assert analysis.rate == pytest.approx(mass, abs=1e-9)

    def test_flow_balance_at_reset_state(self, paper_source, paper_channel):
        # inflow into (0,0) computed from the one-step kernel must equal q00
        n0 = 3
        alpha, mu = paper_source.alpha, paper_source.mu
        analysis = achieved_rate(n0, paper_source, paper_channel)
        inflow = alpha * analysis.q00
        for (d, r), q in analysis.stationary.items():
            if d == 0:
                continue
            if d < n0:
                inflow += mu * q
            else:
                inflow += gamma(paper_source, paper_channel, r).reset_probability * q
        assert inflow == pytest.approx(analysis.q00, abs=1e-9)

    def test_matches_brute_simulation(self, paper_source, paper_channel):
        analysis = achieved_rate(2, paper_source, paper_channel)
        horizon = 1_000_000
        _, rate = oracles.brute_sim(
            paper_source.alpha, paper_source.mu, oracles.make_p(0.5, 0.5, 2),
            oracles.threshold_decide(2), horizon, seed=17,
        )
        se = math.sqrt(analysis.rate * (1 - analysis.rate) / horizon)
        assert abs(rate - analysis.rate) <= 3 * se

    def test_stationary_law_is_built_on_first_read(self, paper_source, paper_channel):
        analysis = achieved_rate(4, paper_source, paper_channel)
        assert "stationary" not in vars(analysis)
        law = analysis.stationary
        assert analysis.stationary is law
        assert max(d for d, _ in law) == 4 + analysis.depth - 1

    @pytest.mark.parametrize("chain", [*GRID_CHAINS.values(), *FOLD_CHAINS.values()],
                             ids=[*GRID_CHAINS, *FOLD_CHAINS])
    def test_region_masses_sum_the_stationary_law(self, chain):
        for n0 in (1, 2, 5):
            self._assert_region_masses(achieved_rate(n0, *chain))

    def test_region_masses_past_a_long_ramp(self, paper_source, paper_channel):
        self._assert_region_masses(achieved_rate(2_000, paper_source, paper_channel))

    @staticmethod
    def _assert_region_masses(analysis):
        deltas, _, probs = analysis.stationary_arrays
        below, above = analysis.region_masses
        assert abs(below - float(probs[deltas < analysis.n0].sum())) <= 1e-14
        assert abs(above - float(probs[deltas >= analysis.n0].sum())) <= 1e-14

    def test_rejects_bad_threshold(self, paper_source, paper_channel):
        with pytest.raises(ValueError):
            achieved_rate(0, paper_source, paper_channel)


class TestMixedChain:
    def test_degenerate_weights_match_pure_analyses(self, paper_source, paper_channel, linear_penalty):
        for n_low, rho, n_pure in [(3, 1.0, 4), (3, 0.0, 3)]:
            rate_mixed, aoii_mixed = mixed_chain_analysis(
                n_low, rho, paper_source, paper_channel, linear_penalty
            )
            pure = achieved_rate(n_pure, paper_source, paper_channel)
            assert rate_mixed == pytest.approx(pure.rate, abs=1e-9)
            g_pure = g_for_threshold(n_pure, 0.0, paper_source, paper_channel, linear_penalty)
            assert aoii_mixed == pytest.approx(g_pure, abs=1e-7)

    def test_interior_weight_interpolates(self, paper_source, paper_channel, linear_penalty):
        rate_hi = achieved_rate(4, paper_source, paper_channel).rate
        rate_lo = achieved_rate(3, paper_source, paper_channel).rate
        rates = []
        for rho in (0.25, 0.5, 0.75):
            rate_mixed, _ = mixed_chain_analysis(
                3, rho, paper_source, paper_channel, linear_penalty
            )
            assert rate_hi < rate_mixed < rate_lo
            rates.append(rate_mixed)
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_interior_weight_against_brute_simulation(self, paper_source, paper_channel, linear_penalty):
        rho = 0.6
        rate_mixed, aoii_mixed = mixed_chain_analysis(
            2, rho, paper_source, paper_channel, linear_penalty
        )

        def decide(delta, r, t, rng):
            threshold = 3 if rng.random() < rho else 2
            return delta >= threshold

        horizon = 1_000_000
        cost, rate = oracles.brute_sim(
            paper_source.alpha, paper_source.mu, oracles.make_p(0.5, 0.5, 2), decide, horizon, seed=29
        )
        rate_se = math.sqrt(rate_mixed * (1 - rate_mixed) / horizon)
        assert abs(rate - rate_mixed) <= 3 * rate_se
        assert cost == pytest.approx(aoii_mixed, rel=0.02)

    def test_aoii_between_pure_values(self, paper_source, paper_channel, linear_penalty):
        g_lo = g_for_threshold(3, 0.0, paper_source, paper_channel, linear_penalty)
        g_hi = g_for_threshold(4, 0.0, paper_source, paper_channel, linear_penalty)
        lo, hi = min(g_lo, g_hi), max(g_lo, g_hi)
        for rho in (0.2, 0.5, 0.8):
            _, aoii = mixed_chain_analysis(3, rho, paper_source, paper_channel, linear_penalty)
            assert lo - 1e-9 <= aoii <= hi + 1e-9

    @pytest.mark.parametrize("n_low, rho", [(2, 0.6), (10, 0.3)])
    def test_matches_power_iteration(self, paper_source, paper_channel, linear_penalty, n_low, rho):
        # transmit never below n_low, w.p. 1 - rho at n_low, always above it
        rate_mixed, aoii_mixed = mixed_chain_analysis(
            n_low, rho, paper_source, paper_channel, linear_penalty
        )

        def transmit_prob(delta):
            return 0.0 if delta < n_low else (1.0 - rho if delta == n_low else 1.0)

        law = oracles.stationary_power_iteration(
            paper_source.alpha, paper_source.mu, oracles.make_p(0.5, 0.5, 2),
            transmit_prob, dcap=200, rcap=40,
        )
        per_delta = law.sum(axis=1)
        rate = float(sum(transmit_prob(d) * q for d, q in enumerate(per_delta)))
        aoii = float(np.arange(per_delta.size) @ per_delta)
        assert abs(rate - rate_mixed) <= 1e-10
        assert abs(aoii - aoii_mixed) <= 1e-10 * aoii

    def test_validates_arguments(self, paper_source, paper_channel, linear_penalty):
        with pytest.raises(ValueError):
            mixed_chain_analysis(0, 0.5, paper_source, paper_channel, linear_penalty)
        with pytest.raises(ValueError):
            mixed_chain_analysis(3, 1.5, paper_source, paper_channel, linear_penalty)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.01, 0.99),
    n_states=st.integers(2, 64),
    p_e=st.floats(0.01, 0.99),
    c=st.floats(0.01, 1.0),
    r_max=st.none() | st.integers(0, 4),
    combining=st.sampled_from(["soft", "none"]),
)
def test_rate_strictly_decreases_in_the_threshold(alpha, n_states, p_e, c, r_max, combining):
    source = SourceModel.from_states(alpha, n_states)
    channel = ChannelModel(p_e=p_e, c=c, r_max=r_max, combining=combining)
    rates = [achieved_rate(n0, source, channel).rate for n0 in range(1, 13)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
