import math
import warnings

import numpy as np
import pytest

import oracles
from aoii_harq import model
from aoii_harq import (
    ChannelModel,
    DegenerateKernelError,
    DivergenceError,
    GammaPair,
    PenaltySpec,
    SeriesConfig,
    SolverError,
    SourceModel,
    g_wait,
    gamma,
    gamma_arrays,
    validate_boundedness,
)
from aoii_harq.model import BOUNDEDNESS_L_CAP, BOUNDEDNESS_TOL, settling_term, transmit_law
from aoii_harq.sim import _Bursts
from oracles import TRANSMIT, WAIT, State


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


def oracle_dist(state, action, source, channel):
    """The oracle kernel's successor list for a package source and channel."""
    p = oracles.make_p(channel.p_e, channel.c, channel.r_max, channel.combining)
    return oracles.transition_dist(state, action, source.alpha, source.mu, p)


# TestState and TestTransitionDist check the per-state kernel oracle, which
# test_sim checks the samplers against
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

    def test_memoized_pair_forms_the_law_once(self, monkeypatch):
        real, laws = model.transmit_law, []
        monkeypatch.setattr(model, "transmit_law", lambda *args: laws.append(args) or real(*args))
        source, channel = SourceModel(0.5, 1 / 30), ChannelModel(p_e=0.5, c=0.5)
        assert gamma(source, channel, 1) is gamma(SourceModel(0.5, 1 / 30), ChannelModel(p_e=0.5, c=0.5), 1)
        assert len(laws) == 1

    def test_degenerate_kernel_raises_on_every_call(self):
        # 1 - alpha - mu*q rounds to 1.0; an exception is not memoized
        source, channel = SourceModel(alpha=1e-17, mu=1e-18), ChannelModel(p_e=0.5, c=0.5)
        for _ in range(3):
            with pytest.raises(DegenerateKernelError, match="r=0"):
                gamma(source, channel, 0)
        assert gamma.cache_info().currsize == 0


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

    def test_degenerate_kernel_is_a_solver_error(self, linear_penalty):
        # 1 - alpha - mu*q rounds to 1.0, so a transmission never resets
        source = SourceModel(alpha=1e-17, mu=1e-18)
        channel = ChannelModel(p_e=0.5, c=0.5)
        with pytest.raises(DegenerateKernelError, match="r=0") as caught:
            gamma_arrays(source, channel, 4)
        assert isinstance(caught.value, SolverError) and isinstance(caught.value, ValueError)
        with pytest.raises(DegenerateKernelError):
            gamma(source, channel, 0)
        with pytest.raises(DegenerateKernelError):
            validate_boundedness(source, channel, linear_penalty)

    def test_message_prints_bare_numbers(self):
        # numpy 2 would print a numpy scalar's repr as np.float64(5e-18)
        with pytest.raises(DegenerateKernelError) as caught:
            gamma_arrays(SourceModel(alpha=1e-17, mu=1e-18), ChannelModel(p_e=0.5, c=0.5), 4)
        assert str(caught.value) == (
            "gamma coefficients at r=0 must be nonnegative and sum below 1, got gamma1=5e-18, gamma2=1.0"
        )


class TestTransmitLaw:
    def test_outcomes_are_the_whole_slot_and_the_burst_cuts(self, perfect_channel):
        # the four masses and the restart mass (1-alpha-mu)*q, formed here,
        # are every outcome of a stale transmit slot, and _Bursts cuts its
        # uniforms on the running sums of the three run-ending ones
        rng = np.random.default_rng(11)
        paper = SourceModel(0.5, 1 / 30)
        for source, channel in random_models(rng, 20) + [(paper, perfect_channel), (paper, _FixedLaw(0.7))]:
            p, masses, _ = transmit_law(source, channel, 64)
            q = channel.error_probability(np.arange(64))
            assert np.array_equal(p, 1.0 - q)
            restart = (1.0 - source.alpha - source.mu) * q
            for r in range(64):
                assert abs(math.fsum([*masses[:, r], restart[r]]) - 1.0) <= 1e-15, (source, channel, r)
            running = [masses[0], masses[0] + masses[1], masses[0] + masses[1] + masses[2]]
            assert np.array_equal(_Bursts(source, channel)._cuts[:, 1:], running)


class TestTransitionDist:
    def test_wait_from_zero(self):
        source = SourceModel(alpha=0.7, mu=0.3)
        dist = dict(oracle_dist(State(0, 0), WAIT, source, ChannelModel(p_e=0.5, c=0.5)))
        assert dist[State(0, 0)] == pytest.approx(0.7)
        assert dist[State(1, 0)] == pytest.approx(0.3)

    def test_wait_from_stale(self):
        source = SourceModel(alpha=0.5, mu=0.1)
        dist = dict(oracle_dist(State(5, 2), WAIT, source, ChannelModel(p_e=0.5, c=0.5)))
        assert dist == {
            State(6, 0): pytest.approx(0.9),
            State(0, 0): pytest.approx(0.1),
        }

    def test_transmit_from_stale_example(self):
        # p(2) = 1 - 0.5 * 0.5**2 = 0.875; gamma1 = 1/16, gamma2 = 119/240,
        # reset = 53/120 (substitution plus the renormalization identity)
        source = SourceModel(alpha=0.5, mu=1 / 30)
        channel = ChannelModel(p_e=0.5, c=0.5)
        dist = dict(oracle_dist(State(5, 2), TRANSMIT, source, channel))
        assert dist[State(6, 3)] == pytest.approx(1 / 16, abs=1e-15)
        assert dist[State(6, 0)] == pytest.approx(119 / 240, abs=1e-15)
        assert dist[State(0, 0)] == pytest.approx(53 / 120, abs=1e-15)

    def test_transmit_from_zero_marginalizes_count(self):
        source = SourceModel(alpha=0.6, mu=0.2)
        dist = dict(oracle_dist(State(0, 0), TRANSMIT, source, ChannelModel(p_e=0.9, c=1.0)))
        assert dist[State(0, 0)] == pytest.approx(0.6)
        assert dist[State(1, 0)] == pytest.approx(0.4)

    def test_probabilities_sum_to_one_and_states_valid(self):
        rng = np.random.default_rng(3)
        for source, channel in random_models(rng, 25):
            for delta, r in [(0, 0), (1, 0), (2, 1), (7, 3), (40, 5), (100, 0)]:
                for action in (WAIT, TRANSMIT):
                    dist = oracle_dist(State(delta, r), action, source, channel)
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
                    dist = dict(oracle_dist(State(delta, r), action, source, channel))
                    assert dist.get(State(0, 0), 0.0) > 0.0

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            oracle_dist(State(1, 0), "hold", SourceModel(0.5, 0.2), ChannelModel(p_e=0.5, c=0.5))


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


class CountingPenalty:
    """Wraps a PenaltySpec and counts the ages it is evaluated at."""

    def __init__(self, spec):
        self.spec = spec
        self.ages = 0

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def evaluate(self, delta):
        self.ages += np.size(delta)
        return self.spec.evaluate(delta)


# penalties whose terms never overflow, then steep powers whose terms may
# overflow before, or only after, they settle
_PENALTIES = [PenaltySpec.linear(), PenaltySpec.power(1.5), PenaltySpec.power(2), PenaltySpec.power(3),
              PenaltySpec.from_table([0, 1, 3, 4, 6]), PenaltySpec.from_table([0, 1e-30, 2e-30]),
              PenaltySpec.from_table([5, 5.5, 100, 101])]
_PENALTIES += [PenaltySpec.power(e) for e in (8, 25, 32, 50, 80, 85, 89, 120, 150, 200)]


def _boundedness_grid():
    rng = np.random.default_rng(16)
    models = random_models(rng, 12)
    models += [(SourceModel(alpha=0.5, mu=float(mu)), ChannelModel(p_e=float(1.0 - gap), c=1.0))
               for mu in np.geomspace(1e-9, 1e-4, 4) for gap in np.geomspace(1e-12, 1e-3, 4)]
    models.append((SourceModel(alpha=0.99999, mu=1e-6), ChannelModel(p_e=1e-13, c=0.5)))
    return models


class TestBoundednessRule:
    """validate_boundedness tests where the terms settle, without summing;
    oracles.boundedness_by_sum sums them."""

    @pytest.mark.parametrize("source, channel", _boundedness_grid())
    def test_acceptance_implies_the_summing_oracle(self, source, channel):
        # and refusal implies it too: rule and oracle agree on every case
        pair = gamma(source, channel, 0)
        q = pair.gamma1 + pair.gamma2
        for penalty in _PENALTIES:
            accepted = validate_boundedness(source, channel, penalty)
            summed = oracles.boundedness_by_sum(q, penalty.evaluate, BOUNDEDNESS_TOL, BOUNDEDNESS_L_CAP)
            assert accepted == summed, penalty

    @pytest.mark.parametrize("exponent, settles", [(85, True), (89, True), (150, False)])
    def test_settled_stretch_between_two_probes(self, exponent, settles):
        # q = 0.7522: d**89's terms settle from l = 2,531 and are not finite
        # from l = 2,907, both between the probes 2,424 and 3,455; the last
        # finite term, found by bisection, decides
        source, channel = SourceModel(alpha=0.5, mu=0.1), ChannelModel(p_e=0.6305, c=1.0)
        pair = gamma(source, channel, 0)
        penalty = CountingPenalty(PenaltySpec.power(exponent))
        assert validate_boundedness(source, channel, penalty) is settles
        summed = oracles.boundedness_by_sum(pair.gamma1 + pair.gamma2, penalty.spec.evaluate,
                                            BOUNDEDNESS_TOL, BOUNDEDNESS_L_CAP)
        assert summed is settles
        assert penalty.ages < 200

    @pytest.mark.parametrize("spec", [PenaltySpec.linear(), PenaltySpec.power(2),
                                      PenaltySpec.from_table([0, 1, 3, 4, 6])], ids=["linear", "power2", "table"])
    def test_evaluates_a_few_dozen_ages(self, paper_source, paper_channel, spec):
        penalty = CountingPenalty(spec)
        assert validate_boundedness(paper_source, paper_channel, penalty) is True
        assert 0 < penalty.ages < 200


class TestWaitingSeries:
    """g_wait sums f(i+1) (1-mu)^i up to the term settling_term finds."""

    def test_overflowing_penalty_is_a_divergence(self):
        # d**200 overflows from d = 35, before the terms at 1 - mu = 0.9 settle
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="does not settle"):
                g_wait(SourceModel(alpha=0.5, mu=0.1), PenaltySpec.power(200))

    def test_unsettled_by_l_cap_is_a_divergence(self):
        # (i+1)**2 0.9**i first falls below 1e-10 at i = 329
        source, penalty = SourceModel(alpha=0.5, mu=0.1), PenaltySpec.power(2)
        assert np.isfinite(g_wait(source, penalty, SeriesConfig(l_cap=400)))
        with pytest.raises(DivergenceError, match="l_cap=200"):
            g_wait(source, penalty, SeriesConfig(l_cap=200))

    def test_an_overflowing_sum_is_a_divergence(self):
        # the terms are finite and settle near i = 7.3e5, but start near 1e308
        with pytest.raises(DivergenceError, match="not finite"):
            g_wait(SourceModel(alpha=0.5, mu=1e-3), PenaltySpec.from_table([1e308, 1.0000001e308]))

    def test_a_settled_head_term_does_not_end_the_sum(self):
        # i = 0 settles, as f(1) = 1e-30, but the table jumps to f(2) = 1e6
        source, penalty = SourceModel(alpha=0.5, mu=0.1), PenaltySpec.from_table([0, 1e-30, 1e6])
        i = np.arange(3000.0)
        direct = float(penalty.evaluate(i + 1.0) @ 0.9**i)
        assert g_wait(source, penalty) == pytest.approx(0.1 * 0.5 * direct / 0.6, rel=1e-12)

    @pytest.mark.parametrize("alpha, mu", [(0.5, 0.5), (0.3, 0.2), (0.01, 0.3)])
    @pytest.mark.parametrize("penalty", [PenaltySpec.power(1.0), PenaltySpec.from_table(range(80))],
                             ids=["power1", "table"])
    def test_linear_shaped_penalties_match_the_closed_form(self, alpha, mu, penalty):
        # the sum stops at a settled probe: at 1 - mu = 0.8 that is i = 143,
        # and the terms past it carry 3.3e-13 of the total
        source = SourceModel(alpha=alpha, mu=mu)
        assert g_wait(source, penalty) == pytest.approx(g_wait(source, PenaltySpec.linear()), rel=1e-12, abs=0)

    @pytest.mark.parametrize("source, channel", _boundedness_grid())
    def test_settling_term_agrees_with_the_summing_oracle(self, source, channel):
        cfg = SeriesConfig()
        q = 1.0 - source.mu
        for penalty in _PENALTIES:
            found = settling_term(penalty, q, 0, cfg.weighted_epsilon, cfg.l_cap)
            summed = oracles.boundedness_by_sum(q, penalty.evaluate, cfg.weighted_epsilon, cfg.l_cap, start=0)
            assert (found is not None) == summed, penalty
            if found is not None:
                # the index found is a term that settles
                with np.errstate(over="ignore", invalid="ignore"):
                    t, before = penalty.evaluate([found + 1.0, found]) * q ** np.array([found, found - 1.0])
                assert t == 0.0 or (t < cfg.weighted_epsilon and (found == 0 or t < before)), penalty
