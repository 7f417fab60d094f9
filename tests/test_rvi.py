import dataclasses
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest

from aoii_harq import (
    ChannelModel,
    gamma_arrays,
    PenaltySpec,
    RviConfig,
    SourceModel,
    extract_thresholds,
    g_for_threshold,
    g_wait,
    optimal_threshold,
    rvi_solve,
)

CFG = RviConfig(delta_max=200, r_cap=32)


@pytest.fixture(scope="module")
def fast_source():
    return SourceModel(0.9, 0.1)


@pytest.fixture(scope="module")
def fast_channel():
    return ChannelModel(p_e=0.3, c=1.0)


@pytest.fixture(scope="module")
def fast_solution(fast_source, fast_channel):
    return rvi_solve(2.0, fast_source, fast_channel, PenaltySpec.linear(), CFG)


class TestRviSolve:
    def test_converges_with_anchor_zero(self, fast_solution):
        assert fast_solution.converged
        assert fast_solution.values[0, 0] == 0.0
        assert not fast_solution.greedy_transmit[0, 0]

    def test_waiting_regime_all_wait(self, linear_penalty):
        source = SourceModel.from_states(0.01, 32)
        sol = rvi_solve(0.0, source, ChannelModel(p_e=0.5, c=0.5), linear_penalty, CFG)
        assert sol.converged
        assert not sol.greedy_transmit.any()
        assert extract_thresholds(sol) == {}

    def test_waiting_regime_g_matches_closed_form(self, linear_penalty):
        source = SourceModel(0.2, 0.4)
        sol = rvi_solve(0.0, source, ChannelModel(p_e=0.5, c=0.5), linear_penalty, CFG)
        assert sol.g == pytest.approx(g_wait(source, linear_penalty), rel=1e-4)

    def test_g_matches_series_evaluation(self, fast_source, fast_channel, linear_penalty):
        sol = None
        for lam in (0.0, 2.0, 10.0):
            sol = rvi_solve(lam, fast_source, fast_channel, linear_penalty, CFG, start=sol)
            n0 = optimal_threshold(lam, fast_source, fast_channel, linear_penalty)
            g = g_for_threshold(n0, lam, fast_source, fast_channel, linear_penalty)
            assert sol.g == pytest.approx(g, rel=1e-4)

    def test_value_increasing_in_delta(self, fast_solution):
        half = CFG.delta_max // 2
        for r in range(0, 8):
            col = fast_solution.values[max(r, 1) : half, r]
            assert np.all(np.diff(col) > 0.0)

    def test_value_monotone_in_r_fast_source(self, fast_solution):
        # mu < alpha: nonincreasing in the transmission count
        half = CFG.delta_max // 2
        vals = fast_solution.values[1:half]
        assert np.all(np.diff(vals, axis=1) <= 1e-9)

    def test_value_monotone_in_r_slow_source(self, linear_penalty):
        # mu >= alpha: nondecreasing in the transmission count
        source = SourceModel(0.1, 0.3)
        sol = rvi_solve(1.0, source, ChannelModel(p_e=0.5, c=0.8), linear_penalty, CFG)
        assert sol.converged
        half = CFG.delta_max // 2
        vals = sol.values[1:half]
        assert np.all(np.diff(vals, axis=1) >= -1e-9)

    def test_single_switching_point_per_count(self, fast_solution):
        for r in range(CFG.r_cap + 1):
            col = fast_solution.greedy_transmit[1:, r].astype(int)
            assert np.all(np.diff(col) >= 0)

    def test_doubling_delta_max_stable_g(self, fast_source, fast_channel, linear_penalty):
        small = rvi_solve(2.0, fast_source, fast_channel, linear_penalty, CFG)
        big = rvi_solve(
            2.0, fast_source, fast_channel, linear_penalty,
            RviConfig(delta_max=2 * CFG.delta_max, r_cap=CFG.r_cap),
        )
        assert abs(big.g - small.g) / big.g < 1e-6

    def test_non_convergence_reported(self, fast_source, fast_channel, linear_penalty):
        sol = rvi_solve(
            2.0, fast_source, fast_channel, linear_penalty,
            RviConfig(delta_max=200, r_cap=32, max_iters=3),
        )
        assert not sol.converged
        with pytest.raises(ValueError):
            extract_thresholds(sol)

    def test_r_cap_must_cover_a_round(self, fast_source, linear_penalty):
        wrapped = ChannelModel(p_e=0.5, c=0.5, r_max=40)
        with pytest.raises(ValueError):
            rvi_solve(0.0, fast_source, wrapped, linear_penalty, RviConfig(delta_max=100, r_cap=16))


class TestExtractThresholds:
    def test_nonincreasing_in_count(self, fast_solution):
        thresholds = extract_thresholds(fast_solution)
        assert 0 in thresholds
        ordered = [thresholds[r] for r in sorted(thresholds)]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))

    def test_agrees_with_closed_form_on_a_wrapped_channel(self, linear_penalty):
        source = SourceModel.from_states(0.5, 16)
        channel = ChannelModel(p_e=0.5, c=0.5, r_max=2)
        for lam in (0.0, 5.0):
            sol = rvi_solve(lam, source, channel, linear_penalty, RviConfig(delta_max=200, r_cap=16))
            assert extract_thresholds(sol)[0] == optimal_threshold(
                lam, source, channel, linear_penalty
            )


PAPER_SOURCE = SourceModel.from_states(0.5, 16)
PAPER_CHANNEL = ChannelModel(p_e=0.5, c=0.5, r_max=2)

# name: (lam, source, channel, penalty, grid)
PIN_CASES = {
    "paper-lam0": (0.0, PAPER_SOURCE, PAPER_CHANNEL, PenaltySpec.linear(), RviConfig()),
    "paper-lam5": (5.0, PAPER_SOURCE, PAPER_CHANNEL, PenaltySpec.linear(), RviConfig()),
    "unbounded-c0.5": (20.0, PAPER_SOURCE, ChannelModel(p_e=0.5, c=0.5), PenaltySpec.linear(), CFG),
    "waiting-source": (1.0, SourceModel(0.1, 0.3), ChannelModel(p_e=0.5, c=0.8), PenaltySpec.linear(), CFG),
    "power-1.5": (30.0, PAPER_SOURCE, PAPER_CHANNEL, PenaltySpec.power(1.5), CFG),
    "table": (40.0, PAPER_SOURCE, ChannelModel(p_e=0.3, c=0.6),
              PenaltySpec.from_table([0.0, 1.0, 3.0, 4.0, 8.0]), CFG),
    "smallest-grid": (0.5, SourceModel(0.9, 0.1), ChannelModel(p_e=0.3, c=0.5), PenaltySpec.linear(),
                      RviConfig(delta_max=2, r_cap=1)),
    "r_cap-is-round": (20.0, PAPER_SOURCE, PAPER_CHANNEL, PenaltySpec.linear(),
                       RviConfig(delta_max=100, r_cap=3)),
    "unconverged": (2.0, SourceModel(0.9, 0.1), ChannelModel(p_e=0.3, c=1.0), PenaltySpec.linear(),
                    RviConfig(delta_max=200, r_cap=32, max_iters=3)),
}

# name: (sha256 of values, sha256 of greedy_transmit, repr(g), iterations, converged),
# recorded from the delta-major sweep that the r-major one replaced; table,
# smallest-grid and unconverged (non-dyadic p_e or c) re-recorded once the
# failure mass q = p_e c^r was formed directly instead of as 1 - p(r); the
# values and g re-recorded once the anchor was folded into the sweep and
# g2 V(delta+1, 0) + c became a rank-2 product (greedy tables, iterations
# and convergence unchanged, g within 1e-15 relative); unbounded-c0.5,
# waiting-source, power-1.5 and table re-recorded once the stopping test ran
# on every fourth sweep only (249, 79, 117 and 133 sweeps became 252, 80, 120
# and 136, the next multiple of 4; greedy tables unchanged), while the pins
# whose counts are multiples of 4 or max_iters stayed bit for bit, as the
# table after each sweep is unchanged
PINS = {
    "paper-lam0": ("b90116f6a7784379c36dac32128f855355c4d0977e86f36a28a3fb54b26344c2",
                   "c0b07d7ce7115c1b0c8eddb212c29f0c515f1199c3330e946cad9eb79d98c6ef",
                   "2.0919254438231003", 80, True),
    "paper-lam5": ("45525709f259a4d49eb4751ca738fc518d991d703569c486c123f77196cb5e09",
                   "9fc38aca27d814ee456abaaf3a35b008ab270b8cd837acfcf9008978c1094e72",
                   "5.004001090680742", 80, True),
    "unbounded-c0.5": ("a6a925395e9f88619004ef20ed3e6090860e34aff88b5cc34dd219cb11c71e5c",
                       "5e3bc2bd6bf1e9e6d1bfac9fefc188db98a94c09d9b5340ef5790c8bae621df6",
                       "9.558055129740879", 252, True),
    "waiting-source": ("54948b886df2dd2131ae8d9e86f622960bd90f89d3bbf2b927f5c23c05f5754d",
                       "e0200e88ecca42bc2442a9b80102765eb4471195e74b88615a24634a214e8e26",
                       "2.499999999999054", 80, True),
    "power-1.5": ("21745a6227282d97cfc262f5f3914c21d0e4731a53e80f2de2fcebb47ee31182",
                  "e49bb2da23c62bef0c415190e8c63113fae06050a11bb864c988ad9e99ac921b",
                  "18.99839378037706", 120, True),
    "table": ("f35917816d01b5afa4132e56997ec1b79993442d9c66bcf2e3868815307301cd",
              "7818cc24b4fc046fe0d15074fa86810352bfc5a608aaf4fa50e532d12990c1cd",
              "18.861092133451454", 136, True),
    "smallest-grid": ("0d6ef86cda479308c4986e1df57b05970cd5b4fad3c996bbd391dd0ccf1e53e5",
                      "cdd527f2f138ddd775902d637b6e2cf57140b556aeb4fd7e39d9652043735da5",
                      "0.22972067038752333", 12, True),
    "r_cap-is-round": ("acfb3cf751153ff70511e704a1fb2fc8d00893a459b4d671f74987a88ba011b0",
                       "acd0d68cbefae3468d33f3e7d9548a3f1086606b6ff2061a314ebccdd11bdce4",
                       "9.56503199767882", 248, True),
    "unconverged": ("d6d16d96eeb28e8367d36cb3fca5c601eaa3b48307395ef8677d8d34e034b210",
                    "846b687e14d60f871d53747845529b5adfb34e425b8d6aa8eac681cedaf42da1",
                    "0.42939999999999995", 3, False),
}


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(PIN_CASES))
def test_solution_pinned_bit_for_bit(name):
    lam, source, channel, penalty, cfg = PIN_CASES[name]
    sol = rvi_solve(lam, source, channel, penalty, cfg)
    shape = (cfg.delta_max + 1, cfg.r_cap + 1)
    assert sol.values.shape == sol.greedy_transmit.shape == shape
    assert sol.values.dtype == np.float64 and sol.greedy_transmit.dtype == np.bool_
    got = (_sha256(sol.values), _sha256(sol.greedy_transmit), repr(sol.g), sol.iterations, sol.converged)
    assert got == PINS[name]
    if sol.converged:
        # reference: scan each r column for its first transmitting delta >= 1
        expected = {}
        for r in range(cfg.r_cap + 1):
            hits = np.flatnonzero(sol.greedy_transmit[1:, r])
            if hits.size:
                expected[r] = int(hits[0]) + 1
        assert extract_thresholds(sol) == expected


# the stopping test runs on every fourth sweep and on the last allowed one,
# so max_iters = j always tests sweep j
CHECK_EVERY = 4
CONVERGED_CASES = [name for name in PIN_CASES if PINS[name][4]]


def _solve_capped(name, max_iters):
    lam, source, channel, penalty, cfg = PIN_CASES[name]
    return rvi_solve(lam, source, channel, penalty, dataclasses.replace(cfg, max_iters=max_iters))


@functools.cache
def _converged_by_cap(name):
    """converged for each max_iters = 1 ... the pinned count."""
    return [_solve_capped(name, j).converged for j in range(1, PINS[name][3] + 1)]


class TestStopRule:
    @pytest.mark.parametrize("name", CONVERGED_CASES)
    def test_stops_on_a_tested_sweep_with_the_same_solution(self, name):
        lam, source, channel, penalty, cfg = PIN_CASES[name]
        sol = rvi_solve(lam, source, channel, penalty, cfg)
        assert sol.converged and sol.iterations % CHECK_EVERY == 0
        capped = _solve_capped(name, sol.iterations)
        assert capped.converged and capped.iterations == sol.iterations
        assert np.array_equal(capped.values, sol.values)
        assert np.array_equal(capped.greedy_transmit, sol.greedy_transmit)
        assert repr(capped.g) == repr(sol.g)
        assert not _solve_capped(name, sol.iterations - CHECK_EVERY).converged

    @pytest.mark.parametrize("name", CONVERGED_CASES)
    def test_stops_at_the_first_tested_sweep_from_the_least_converging_cap(self, name):
        least = _converged_by_cap(name).index(True) + 1
        assert PINS[name][3] == CHECK_EVERY * math.ceil(least / CHECK_EVERY)

    @pytest.mark.parametrize("name", ["paper-lam0", "waiting-source", "table"])
    def test_span_never_grows(self, name):
        # converged over max_iters = 1 ... iterations is False, then True
        flags = _converged_by_cap(name)
        assert flags[-1] and flags == sorted(flags)

    @pytest.mark.parametrize("max_iters, outcome", [(78, (False, 78)), (79, (True, 79)), (81, (True, 80))])
    def test_a_cap_off_the_cycle_tests_its_last_sweep(self, max_iters, outcome):
        # waiting-source first meets span_tol at sweep 79; a cap of 81 stops
        # at the tested sweep 80
        sol = _solve_capped("waiting-source", max_iters)
        assert (sol.converged, sol.iterations) == outcome


@pytest.mark.parametrize("rows, cols", [(65, 401), (33, 201), (4, 101), (2, 3), (129, 801)])
def test_rank2_product_rounds_as_elementwise(rows, cols):
    # the sweep forms g2[r] * next0[delta] + c[delta] as [g2, 1] @ [next0; c];
    # nothing is accumulated into the output and the second column is 1, so
    # the product must round as the elementwise form does, whatever the BLAS
    # kernel, or the pins above would depend on the CPU
    rng = np.random.default_rng(17)
    paper_g2 = gamma_arrays(PAPER_SOURCE, PAPER_CHANNEL, rows)[1]
    for g2 in (rng.random(rows), paper_g2):
        scale = 10.0 ** rng.integers(-8, 9, cols)
        N = np.vstack((rng.standard_normal(cols) * scale, rng.standard_normal(cols) * 100.0))
        G = np.column_stack((g2, np.ones(rows)))
        got = np.matmul(G, N, out=np.empty((rows, cols)))
        assert np.array_equal(got, g2[:, None] * N[0] + N[1])


# the validate_grid benchmark's (alpha, N, p_e, r_max) points, c = 0.5
VALIDATE_POINTS = list(itertools.product((0.2, 0.5, 0.8), (2, 16, 128), (0.1, 0.9), (2, None)))
LAMBDAS = (0.0, 1.0, 5.0, 20.0)


def _warm_and_cold(source, channel, penalty, cfg=RviConfig()):
    """(warm, cold) solutions per multiplier of LAMBDAS, the warm path
    starting each multiplier from the one before."""
    warm, sol = [], None
    for lam in LAMBDAS:
        sol = rvi_solve(lam, source, channel, penalty, cfg, start=sol)
        warm.append(sol)
    return warm, [rvi_solve(lam, source, channel, penalty, cfg) for lam in LAMBDAS]


class TestWarmStart:
    @pytest.mark.parametrize("point", VALIDATE_POINTS + ["power-1.5", "table"],
                             ids=[f"a{a}-n{n}-pe{p}-r{r}" for a, n, p, r in VALIDATE_POINTS]
                             + ["power-1.5", "table"])
    def test_warm_and_cold_reach_the_same_solution(self, point):
        if isinstance(point, str):
            source, channel = PAPER_SOURCE, PAPER_CHANNEL
            penalty = (PenaltySpec.power(1.5) if point == "power-1.5"
                       else PenaltySpec.from_table([0.0, 1.0, 3.0, 4.0, 6.0]))
        else:
            alpha, n_states, p_e, r_max = point
            source = SourceModel.from_states(alpha, n_states)
            channel = ChannelModel(p_e=p_e, c=0.5, r_max=r_max)
            penalty = PenaltySpec.linear()
        for warm, cold in zip(*_warm_and_cold(source, channel, penalty)):
            assert warm.converged and cold.converged
            assert extract_thresholds(warm) == extract_thresholds(cold)
            assert np.array_equal(warm.greedy_transmit, cold.greedy_transmit)
            assert abs(warm.g - cold.g) <= 1e-9 * abs(cold.g)

    def test_fewer_sweeps_than_cold_solves(self):
        warm, cold = _warm_and_cold(PAPER_SOURCE, PAPER_CHANNEL, PenaltySpec.linear())
        assert sum(s.iterations for s in warm) < sum(s.iterations for s in cold)

    def test_start_is_read_not_written(self, fast_source, fast_channel, fast_solution, linear_penalty):
        before = fast_solution.values.copy()
        sol = rvi_solve(5.0, fast_source, fast_channel, linear_penalty, CFG, start=fast_solution)
        assert sol.converged
        assert np.array_equal(fast_solution.values, before)
        assert not np.shares_memory(sol.values, fast_solution.values)

    def test_start_of_another_grid_is_refused(self, fast_source, fast_channel, fast_solution, linear_penalty):
        with pytest.raises(ValueError, match="shape"):
            rvi_solve(2.0, fast_source, fast_channel, linear_penalty,
                      RviConfig(delta_max=CFG.delta_max, r_cap=CFG.r_cap + 1), start=fast_solution)
