import math

import numpy as np
import pytest

from aoii_harq import (
    ChannelModel,
    GammaPair,
    PenaltySpec,
    SourceModel,
    State,
    TRANSMIT,
    WAIT,
    gamma,
    gamma_arrays,
    transition_dist,
    validate_boundedness,
)


def random_models(rng, n):
    out = []
    for _ in range(n):
        alpha = rng.uniform(0.05, 0.95)
        mu = (1.0 - alpha) * rng.uniform(0.05, 1.0)
        source = SourceModel(alpha=alpha, mu=mu)
        r_max = rng.choice([None, 0, 3])
        channel = ChannelModel(
            p_e=rng.uniform(0.05, 0.95),
            c=rng.uniform(0.3, 1.0),
            r_max=None if r_max is None else int(r_max),
        )
        out.append((source, channel))
    return out


class TestSourceModel:
    def test_accepts_valid(self):
        SourceModel(alpha=0.5, mu=0.25)

    def test_rejects_mu_zero(self):
        with pytest.raises(ValueError):
            SourceModel(alpha=0.5, mu=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            SourceModel(alpha=alpha, mu=0.1 if alpha >= 1 else 0.01)

    def test_rejects_alpha_plus_mu_above_one(self):
        with pytest.raises(ValueError):
            SourceModel(alpha=0.5, mu=0.9)

    def test_n_states_identity(self):
        SourceModel(alpha=0.5, mu=0.5, n_states=2)
        with pytest.raises(ValueError):
            SourceModel(alpha=0.5, mu=0.4, n_states=2)

    def test_from_states(self):
        src = SourceModel.from_states(0.01, 32)
        assert src.mu == pytest.approx(0.99 / 31, abs=1e-15)
        assert src.n_states == 32


class TestChannelModel:
    def test_p_success_examples(self):
        unbounded = ChannelModel(p_e=0.5, c=0.5)
        assert unbounded.success_probability(0) == pytest.approx(0.5)
        assert unbounded.success_probability(1) == pytest.approx(0.75)
        wrapped = ChannelModel(p_e=0.5, c=0.5, r_max=2)
        # 3 mod 3 = 0 resets the round
        assert wrapped.success_probability(3) == pytest.approx(0.5)

    def test_no_combining_is_flat(self):
        flat = ChannelModel(p_e=0.3, c=0.5, combining="none")
        assert all(flat.success_probability(r) == pytest.approx(0.7) for r in range(10))
        assert np.all(flat.error_probability(np.arange(10)) == 0.3)

    def test_non_decreasing_within_round_and_periodic(self):
        ch = ChannelModel(p_e=0.8, c=0.6, r_max=4)
        probs = [ch.success_probability(r) for r in range(20)]
        for r in range(19):
            if (r + 1) % 5 != 0:
                assert probs[r + 1] >= probs[r]
        assert probs[7] == pytest.approx(probs[2])

    def test_rejects_bad_params(self):
        for kwargs in (
            {"p_e": 0.0, "c": 0.5},
            {"p_e": 1.0, "c": 0.5},
            {"p_e": 0.5, "c": 0.0},
            {"p_e": 0.5, "c": 1.1},
            {"p_e": 0.5, "c": 0.5, "r_max": -1},
            {"p_e": 0.5, "c": 0.5, "combining": "chase"},
        ):
            with pytest.raises(ValueError):
                ChannelModel(**kwargs)

    def test_probability_stays_in_range(self):
        # mathematically p(r) is in (0, 1); in float64 the failure mass
        # p_e * c**r can round to zero at large r, so allow p == 1.0 there
        rng = np.random.default_rng(7)
        for _, channel in random_models(rng, 50):
            assert channel.success_probability(0) < 1.0
            for r in range(65):
                assert 0.0 < channel.success_probability(r) <= 1.0


class TestPenaltySpec:
    def test_linear_and_power(self):
        lin = PenaltySpec.linear()
        assert [lin(d) for d in range(4)] == [0.0, 1.0, 2.0, 3.0]
        sq = PenaltySpec.power(2)
        assert sq(5) == 25.0

    def test_table_extrapolates_with_last_difference(self):
        tab = PenaltySpec.from_table([0.0, 1.0, 3.0])
        assert tab(2) == 3.0
        assert tab(4) == pytest.approx(3.0 + 2 * 2.0)

    def test_strict_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            PenaltySpec.from_table([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            PenaltySpec.power(0.5)

    def test_strictly_increasing_on_range(self):
        for pen in (PenaltySpec.linear(), PenaltySpec.power(1.7), PenaltySpec.from_table([0, 2, 5])):
            vals = pen.evaluate(np.arange(200))
            assert np.all(np.diff(vals) > 0)


class TestState:
    def test_invariants(self):
        State(0, 0)
        State(5, 4)
        with pytest.raises(ValueError):
            State(0, 1)
        with pytest.raises(ValueError):
            State(3, 4)
        with pytest.raises(ValueError):
            State(-1, 0)


class TestGamma:
    def test_example_r0(self):
        pair = gamma(SourceModel(0.5, 1 / 30), ChannelModel(p_e=0.5, c=0.5), 0)
        assert pair.gamma1 == pytest.approx(0.25, abs=1e-15)
        assert pair.gamma2 == pytest.approx(0.5 - 1 / 60, abs=1e-15)

    def test_example_r1(self):
        pair = gamma(SourceModel(0.5, 1 / 30), ChannelModel(p_e=0.5, c=0.5), 1)
        assert pair.gamma1 == pytest.approx(0.125, abs=1e-15)
        assert pair.gamma2 == pytest.approx(0.5 - 1 / 120, abs=1e-15)

    def test_perfect_decoding_limit(self, perfect_channel):
        pair = gamma(SourceModel(0.3, 0.2), perfect_channel, 0)
        assert pair.gamma1 == 0.0
        assert pair.gamma2 == pytest.approx(0.7)

    def test_sum_below_one_for_random_models(self):
        rng = np.random.default_rng(11)
        for source, channel in random_models(rng, 40):
            for r in range(65):
                pair = gamma(source, channel, r)
                assert pair.gamma1 >= 0.0 and pair.gamma2 >= 0.0
                assert pair.gamma1 + pair.gamma2 < 1.0

    def test_gamma_pair_validation(self):
        with pytest.raises(ValueError):
            GammaPair(-0.1, 0.5)
        with pytest.raises(ValueError):
            GammaPair(0.6, 0.5)


class _FixedLaw:
    """Duck-typed channel with one success probability for every r, valid or not."""

    round_length = None

    def __init__(self, p):
        self.p = p

    def error_probability(self, r):
        return 1.0 - self.p + 0.0 * np.asarray(r, dtype=float)


class TestGammaArrays:
    def test_matches_gamma_for_random_models(self):
        rng = np.random.default_rng(5)
        for source, channel in random_models(rng, 20):
            g1, g2 = gamma_arrays(source, channel, 65)
            for r in range(65):
                pair = gamma(source, channel, r)
                assert (g1[r], g2[r]) == (pair.gamma1, pair.gamma2)

    def test_failure_mass_is_exact(self):
        # 1 - (1 - q) cancels to 0 once q = 0.9 * 0.5**r drops below 1.1e-16
        source = SourceModel.from_states(0.5, 16)
        g1, _ = gamma_arrays(source, ChannelModel(p_e=0.9, c=0.5), 65)
        assert g1.tolist() == [source.alpha * (0.9 * 0.5**r) for r in range(65)]
        assert g1.min() > 0.0

    @pytest.mark.parametrize("p", [1.5, -1.0])
    def test_rejects_what_gamma_pair_rejects(self, p):
        # p > 1 makes gamma1 negative; p = -1 makes gamma1 + gamma2 = 1.43
        source = SourceModel(0.5, 1 / 30)
        with pytest.raises(ValueError):
            gamma(source, _FixedLaw(p), 0)
        with pytest.raises(ValueError):
            gamma_arrays(source, _FixedLaw(p), 4)


class TestTransitionDist:
    def test_wait_from_zero(self):
        source = SourceModel(alpha=0.7, mu=0.3)
        dist = dict(transition_dist(State(0, 0), WAIT, source, ChannelModel(p_e=0.5, c=0.5)))
        assert dist[State(0, 0)] == pytest.approx(0.7)
        assert dist[State(1, 0)] == pytest.approx(0.3)

    def test_wait_from_stale(self):
        source = SourceModel(alpha=0.5, mu=0.1)
        dist = dict(transition_dist(State(5, 2), WAIT, source, ChannelModel(p_e=0.5, c=0.5)))
        assert dist == {
            State(6, 0): pytest.approx(0.9),
            State(0, 0): pytest.approx(0.1),
        }

    def test_transmit_from_stale_example(self):
        # p(2) = 1 - 0.5 * 0.5**2 = 0.875; gamma1 = 1/16, gamma2 = 119/240,
        # reset = 53/120 (substitution plus the renormalization identity)
        source = SourceModel(alpha=0.5, mu=1 / 30)
        channel = ChannelModel(p_e=0.5, c=0.5)
        dist = dict(transition_dist(State(5, 2), TRANSMIT, source, channel))
        assert dist[State(6, 3)] == pytest.approx(1 / 16, abs=1e-15)
        assert dist[State(6, 0)] == pytest.approx(119 / 240, abs=1e-15)
        assert dist[State(0, 0)] == pytest.approx(53 / 120, abs=1e-15)

    def test_transmit_from_zero_marginalizes_count(self):
        source = SourceModel(alpha=0.6, mu=0.2)
        dist = dict(transition_dist(State(0, 0), TRANSMIT, source, ChannelModel(p_e=0.9, c=1.0)))
        assert dist[State(0, 0)] == pytest.approx(0.6)
        assert dist[State(1, 0)] == pytest.approx(0.4)

    def test_probabilities_sum_to_one_and_states_valid(self):
        rng = np.random.default_rng(3)
        for source, channel in random_models(rng, 25):
            for delta, r in [(0, 0), (1, 0), (2, 1), (7, 3), (40, 5), (100, 0)]:
                for action in (WAIT, TRANSMIT):
                    dist = transition_dist(State(delta, r), action, source, channel)
                    assert abs(sum(p for _, p in dist) - 1.0) <= 1e-12
                    assert all(p > 0.0 for _, p in dist)

    def test_unichain_reset_always_reachable(self):
        rng = np.random.default_rng(5)
        for source, channel in random_models(rng, 10):
            for delta in list(range(0, 101, 7)) + [100]:
                r = min(delta, 3)
                if delta == 0:
                    r = 0
                for action in (WAIT, TRANSMIT):
                    dist = dict(transition_dist(State(delta, r), action, source, channel))
                    assert dist.get(State(0, 0), 0.0) > 0.0

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            transition_dist(State(1, 0), "hold", SourceModel(0.5, 0.2), ChannelModel(p_e=0.5, c=0.5))


class TestBoundedness:
    def test_linear_geometric_converges(self, linear_penalty):
        # gamma1(0) + gamma2(0) = 1 - alpha + (alpha - mu)(1 - p(0)) = 0.9
        # for alpha = 0.2, mu = 0.1, p_e = 0.999999... ~ any config with sum 0.9
        source = SourceModel(alpha=0.2, mu=0.1)
        channel = ChannelModel(p_e=0.9, c=1.0)
        pair_sum = 0.8 + 0.1 * 0.9
        assert pair_sum < 1.0
        assert validate_boundedness(source, channel, linear_penalty) is True

    def test_divergent_near_unit_ratio(self, linear_penalty):
        # mu -> 0 and p(0) -> 0 drive gamma1(0)+gamma2(0) -> 1: the partial
        # sums cannot stabilize within the cap
        source = SourceModel(alpha=0.5, mu=1e-9)
        channel = ChannelModel(p_e=1.0 - 1e-12, c=1.0)
        assert validate_boundedness(source, channel, linear_penalty) is False

    def test_quadratic_penalty_at_half_ratio(self):
        # oracle: partial sums of l^2 * 0.5^l stabilize below 1e-10 by l ~ 60
        tail = sum((l + 1) ** 2 * 0.5**l for l in range(1, 200))
        assert (201**2) * 0.5**200 < 1e-10 and tail < math.inf
        source = SourceModel(alpha=0.5, mu=0.5)   # gamma sum = 1 - alpha = 0.5 at p = 1
        channel = ChannelModel(p_e=1e-13, c=0.5)  # near-perfect first packet
        assert validate_boundedness(source, channel, PenaltySpec.power(2)) is True

    def test_zero_penalty_converges(self, zero_penalty):
        source = SourceModel(alpha=0.5, mu=0.25)
        channel = ChannelModel(p_e=0.5, c=0.5)
        assert validate_boundedness(source, channel, zero_penalty) is True
