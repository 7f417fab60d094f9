import hashlib

import numpy as np
import pytest

from aoii_harq import (
    ChannelModel,
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
        for lam in (0.0, 2.0, 10.0):
            sol = rvi_solve(lam, fast_source, fast_channel, linear_penalty, CFG)
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
# failure mass q = p_e c^r was formed directly instead of as 1 - p(r)
PINS = {
    "paper-lam0": ("017dc9ddfd58a5e8c029d3f42b9711eddecb5fc67211eb4f6b6a79cf4f5fda15",
                   "c0b07d7ce7115c1b0c8eddb212c29f0c515f1199c3330e946cad9eb79d98c6ef",
                   "2.0919254438231", 80, True),
    "paper-lam5": ("55b01b1fda64eb9144192cfc5a05a5a19a886c551e94e88473c2f4309fd11bd1",
                   "9fc38aca27d814ee456abaaf3a35b008ab270b8cd837acfcf9008978c1094e72",
                   "5.004001090680741", 80, True),
    "unbounded-c0.5": ("ef7f176a806d677fb6c2c2ceb737ec3e74e8f7f51fc72c4da5f88f91434c7c57",
                       "5e3bc2bd6bf1e9e6d1bfac9fefc188db98a94c09d9b5340ef5790c8bae621df6",
                       "9.558055129772853", 249, True),
    "waiting-source": ("0c644809e389475a626e5c0d74ee99b40c044b3a0f881d70c9630e46411127f9",
                       "e0200e88ecca42bc2442a9b80102765eb4471195e74b88615a24634a214e8e26",
                       "2.4999999999986486", 79, True),
    "power-1.5": ("c45e5f0b5d1bbdde809c6bef53a0b16fcf093b79735dfd8556a6e63bfb23e674",
                  "e49bb2da23c62bef0c415190e8c63113fae06050a11bb864c988ad9e99ac921b",
                  "18.998393780342266", 117, True),
    "table": ("47c3a5272de81fcfcb55ae95f25c4ae107ae86a2e924357995ed5522ef769753",
              "7818cc24b4fc046fe0d15074fa86810352bfc5a608aaf4fa50e532d12990c1cd",
              "18.86109213345492", 133, True),
    "smallest-grid": ("0d6ef86cda479308c4986e1df57b05970cd5b4fad3c996bbd391dd0ccf1e53e5",
                      "cdd527f2f138ddd775902d637b6e2cf57140b556aeb4fd7e39d9652043735da5",
                      "0.22972067038752333", 12, True),
    "r_cap-is-round": ("64e4c229c3a31501039e765526cbe6829c320c1a785d98d33f4b9dcf14aec5a4",
                       "acd0d68cbefae3468d33f3e7d9548a3f1086606b6ff2061a314ebccdd11bdce4",
                       "9.565031997678814", 248, True),
    "unconverged": ("6847c5d5ec244ef4f56df7f7e1a8d6729f10853c03b22d3580318e2773470bbd",
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
