import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from aoii_harq import (
    ChannelModel,
    FixedThreshold,
    MixedThreshold,
    NeverTransmit,
    PenaltySpec,
    Periodic,
    SimReport,
    SourceModel,
    State,
    TRANSMIT,
    WAIT,
    g_wait,
    mixed_chain_analysis,
    replicate,
    simulate,
    split_seed,
    transition_dist,
)
from aoii_harq.marks import ResetMarks, periodic_blocks
from aoii_harq.sim import _Bursts


class TestPolicies:
    # the per-slot schedules the oracle loop reads off each policy
    def test_fixed_schedule(self):
        assert list(oracles.schedule(FixedThreshold(3), np.random.default_rng(0), 4)) == [3, 3, 3, 3]

    def test_never_schedule(self):
        assert list(oracles.schedule(NeverTransmit(), np.random.default_rng(0), 3)) == [math.inf] * 3

    def test_periodic_schedule(self):
        pol = Periodic(0.3)
        assert pol.period == 4
        inf = math.inf
        assert list(oracles.schedule(pol, np.random.default_rng(0), 5)) == [0, inf, inf, inf, 0]

    def test_mixed_schedule_draws_n_high_below_rho(self):
        pol = MixedThreshold(n_low=2, rho_high=0.5)
        assert pol.n_high == 3
        uniforms = np.random.default_rng(4).random(200)
        thresholds = list(oracles.schedule(pol, np.random.default_rng(4), 200))
        assert thresholds == [3 if u < 0.5 else 2 for u in uniforms]
        assert {2, 3} == set(thresholds)

    def test_waits_before_the_burst(self):
        rng = np.random.default_rng(0)
        assert FixedThreshold(3).waits(rng, 2).tolist() == [2, 2]
        assert NeverTransmit().waits(rng, 2).min() > 2**60
        # n_high adds the wait slot at AoII n_low
        uniforms = np.random.default_rng(4).random(200)
        waits = MixedThreshold(2, 0.5).waits(np.random.default_rng(4), 200)
        assert waits.tolist() == [2 if u < 0.5 else 1 for u in uniforms]

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedThreshold(0)
        with pytest.raises(ValueError):
            MixedThreshold(0, 0.5)
        with pytest.raises(ValueError):
            MixedThreshold(1, 1.5)
        with pytest.raises(ValueError):
            Periodic(0.0)


class TestSimulate:
    def test_deterministic_given_seed(self, paper_source, paper_channel, linear_penalty):
        a = simulate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 50_000, seed=5)
        b = simulate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 50_000, seed=5)
        assert a == b
        c = simulate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 50_000, seed=6)
        assert c != a

    def test_never_transmit_matches_waiting_cost(self, linear_penalty):
        source = SourceModel(0.5, 0.5)
        channel = ChannelModel(p_e=0.5, c=0.5)
        report = simulate(NeverTransmit(), source, channel, linear_penalty, 1_000_000, seed=11)
        assert report.avg_rate == 0.0
        assert report.decode_successes == 0
        expected = g_wait(source, linear_penalty)
        assert abs(report.avg_aoii - expected) <= 3 * report.aoii_stderr

    def test_threshold_rate_on_near_perfect_channel(self, near_perfect_channel, linear_penalty):
        source = SourceModel(0.5, 0.2)
        horizon = 1_000_000
        report = simulate(FixedThreshold(1), source, near_perfect_channel, linear_penalty, horizon, seed=23)
        se = math.sqrt(0.5 * 0.5 / horizon)
        assert abs(report.avg_rate - 0.5) <= 3 * se

    def test_periodic_rate_exact(self, paper_source, paper_channel, linear_penalty):
        report = simulate(Periodic(0.5), paper_source, paper_channel, linear_penalty, 1_000_000, seed=1)
        assert report.avg_rate == 0.5
        report = simulate(Periodic(0.3), paper_source, paper_channel, linear_penalty, 10_000, seed=1)
        assert report.avg_rate == math.ceil(10_000 / 4) / 10_000

    def test_mixed_policy_matches_exact_chain(self, paper_source, paper_channel, linear_penalty):
        rho = 0.4
        horizon = 1_000_000
        rate_exact, aoii_exact = mixed_chain_analysis(
            2, rho, paper_source, paper_channel, linear_penalty
        )
        report = simulate(MixedThreshold(2, rho), paper_source, paper_channel, linear_penalty, horizon, seed=31)
        se = math.sqrt(rate_exact * (1 - rate_exact) / horizon)
        assert abs(report.avg_rate - rate_exact) <= 3 * se
        assert abs(report.avg_aoii - aoii_exact) <= 3 * report.aoii_stderr + 1e-9

    # (avg_aoii, avg_rate, aoii_stderr, rate_stderr, max_delta_seen,
    # decode_successes) at seed 17 and horizon 20k of the per-slot loop
    # (oracles.slot_simulate): a change in the order the kernel and the
    # schedule draw their uniforms changes these
    PINNED = {
        ("linear", NeverTransmit()): (28.0893, 0.0, 1.5001111743649356, 0.0, 214, 0),
        ("linear", FixedThreshold(2)): (2.37885, 0.52115, 0.041649805982547375, 0.004314560150574945, 25, 5884),
        ("linear", MixedThreshold(2, 0.4)): (2.5463, 0.4844, 0.045741898879816015, 0.004838440353099856, 29, 5455),
        ("linear", Periodic(0.3)): (8.1856, 0.25, 0.2877815817384407, 0.0, 71, 2562),
        ("power", NeverTransmit()): (203.1125704365423, 0.0, 17.437390939923656, 0.0, 214, 0),
        ("power", FixedThreshold(2)): (5.318862300567716, 0.52115, 0.14266731699770568, 0.004314560150574945, 25, 5884),
        ("power", MixedThreshold(2, 0.4)): (
            5.812531703183142, 0.4844, 0.16503190579567023, 0.004838440353099856, 29, 5455
        ),
        ("power", Periodic(0.3)): (32.81606326467935, 0.25, 1.885091990592845, 0.0, 71, 2562),
    }

    @pytest.mark.parametrize(
        "kind, policy", list(PINNED), ids=[f"{kind}-{type(pol).__name__}" for kind, pol in PINNED]
    )
    def test_reports_pinned_across_versions(self, paper_source, paper_channel, kind, policy):
        penalty = PenaltySpec.linear() if kind == "linear" else PenaltySpec.power(1.5)
        report = oracles.slot_simulate(policy, paper_source, paper_channel, penalty, 20_000, seed=17)
        assert SimReport(**report) == SimReport(20_000, 17, *self.PINNED[kind, policy])

    # the same cases for the package's samplers (regenerative cycles, and
    # reset marks for Periodic): a change in what they draw, in which order,
    # changes these, and so does (in the last digits of the power rows) a
    # change in how the batch sums are added up: per cycle for the threshold
    # policies, per segment between two marks for Periodic
    PINNED_NUMPY = {
        ("linear", NeverTransmit()): (25.6926, 0.0, 1.2929873121159887, 0.0, 181, 0),
        ("linear", FixedThreshold(2)): (2.35875, 0.5197, 0.039346452293450906, 0.003951613913991665, 27, 5861),
        ("linear", MixedThreshold(2, 0.4)): (2.5335, 0.4849, 0.040863872315360185, 0.003949798613968705, 25, 5435),
        ("linear", Periodic(0.3)): (7.9931, 0.25, 0.2603370560010094, 0.0, 60, 2581),
        ("power", NeverTransmit()): (177.76152411377393, 0.0, 14.868399779223386, 0.0, 181, 0),
        ("power", FixedThreshold(2)): (5.270139666323921, 0.5197, 0.14088212339888256, 0.003951613913991665, 27, 5861),
        ("power", MixedThreshold(2, 0.4)): (
            5.767844814918126, 0.4849, 0.14722365967829504, 0.003949798613968705, 25, 5435
        ),
        ("power", Periodic(0.3)): (31.793618838867605, 0.25, 1.5989764329741931, 0.0, 60, 2581),
    }

    @pytest.mark.parametrize(
        "kind, policy",
        list(PINNED_NUMPY),
        ids=[f"{kind}-{type(pol).__name__}" for kind, pol in PINNED_NUMPY],
    )
    def test_numpy_reports_pinned(self, paper_source, paper_channel, kind, policy):
        penalty = PenaltySpec.linear() if kind == "linear" else PenaltySpec.power(1.5)
        report = simulate(policy, paper_source, paper_channel, penalty, 20_000, seed=17)
        assert report == SimReport(20_000, 17, *self.PINNED_NUMPY[kind, policy])

    # sha256 of the (deltas, rs, actions) bytes at seed 17: the samplers'
    # uniforms, drawn in a fixed order, fix every slot of the trajectory
    TRAJECTORY_SHA256 = {
        ("paper", NeverTransmit(), 150): "8100573b0691b6721ac0cb0eb63642dbf6c6fde040756d2dc57aed9a7c9dcf25",
        ("paper", NeverTransmit(), 20_000): "fe13d164cbc62ca49e2e5a17f1fd1833efbe666d5c63b6281fc113e02dd7c753",
        ("paper", NeverTransmit(), 100_003): "f31c3ffb42a0ea529b244036b36267941fb0029482a1c9954290d131522068f2",
        ("paper", FixedThreshold(2), 150): "511bc9682056f8d89b7fd06ef1d21dde43a0149a69710d5477826a4687a6c720",
        ("paper", FixedThreshold(2), 20_000): "edc69ded013f90f3053054065ebd1e9a3e616cfd33e29efa924ec7fe47fbde24",
        ("paper", FixedThreshold(2), 100_003): "f37539521a7f96692d4033a5ad18a80ad909abdbbe9d6f70c5d371feca225f22",
        ("paper", MixedThreshold(2, 0.4), 150): "39246ea34e66df10c2c665dd65294b8409e446ac4a714c69aac00e60919cda4e",
        ("paper", MixedThreshold(2, 0.4), 20_000): "a1c28bb213cb65eab5ec767390bffac4bf553b191343ab34ba13f406ea5c5cf1",
        ("paper", MixedThreshold(2, 0.4), 100_003): "a85d268fc1d89c13c087215240ea67a8d1d8f7c7aed380b21dd49ea24aa933f3",
        ("paper", Periodic(0.3), 150): "d48b7568a84222540c597c9adb989e65fea7079a66bb3a58244e511c5c3693cc",
        ("paper", Periodic(0.3), 20_000): "6905e111a12c3075457d07c5cea0165b2208fd88ae0f932c8208115e488c7eb8",
        ("paper", Periodic(0.3), 100_003): "08bae13e96acfd8fb8f859c5b362f95e9ea3f6ae8b92ab5fa947724e705331df",
        ("waiting", NeverTransmit(), 150): "80018158cb2f989999bf2978edf92c6bc7bca0531450f4ef77e57c315e93c0c3",
        ("waiting", NeverTransmit(), 20_000): "cfe492608804163fe93cf9ee172abb729ee5987f58d72cfaff90b1484f37bd26",
        ("waiting", NeverTransmit(), 100_003): "4ff59f3d61aed72643c8898896694fb1c41fb517ffa37306c4b6f2f708d27936",
        ("waiting", FixedThreshold(2), 150): "456bb01557bd4a6e33ddaed0c1f37e524bdd1f888d005cc0ee2b8ae7b601fd69",
        ("waiting", FixedThreshold(2), 20_000): "9ea1cc9839345a8d13b6c926e3c81fb5f9168746f5c47341ac041573688bdf17",
        ("waiting", FixedThreshold(2), 100_003): "1e618394c1f03d7c0daccf6d0444ec66d5f1060445ad041d1fa349c041c4e56d",
        ("waiting", MixedThreshold(2, 0.4), 150): "5bdb079cd572950eff6f9ae088af6ddf34cb26acd633fa5c730e1b28f1d6d7b0",
        ("waiting", MixedThreshold(2, 0.4), 20_000): "a9746d015b2b2c849d87346df189fe38bc73d8ade6dc07b8f6a67cddc6f24838",
        ("waiting", MixedThreshold(2, 0.4), 100_003): "74b506a7a09e69d0c3ad03e577202c971f6d98bcd6e2fb96e501e3a7836ebd68",
        ("waiting", Periodic(0.3), 150): "3c63f1ae5a4840961a81a39395b1d44c5d50d112bb4fd400572804e86a02a60b",
        ("waiting", Periodic(0.3), 20_000): "cb93f9ec6fbd7cf12708fcc3f677054f85b29001ffef99fd623798d824d5de91",
        ("waiting", Periodic(0.3), 100_003): "ba07a56f0ce693bb439a83d5bf9a0df75012330c4f0ed6504ea286bcd2d79f5c",
    }
    SETTINGS = {
        "paper": (SourceModel.from_states(0.5, 16), ChannelModel(p_e=0.5, c=0.5, r_max=2)),
        "waiting": (SourceModel.from_states(0.01, 32), ChannelModel(p_e=0.5, c=0.5, r_max=None)),
        # a stale AoII resets in well under one slot in 10^3, so windows of
        # periodic reset marks often hold none
        "sparse": (SourceModel(0.5, 1e-5), ChannelModel(p_e=0.999, c=0.5, combining="none")),
    }

    @pytest.mark.parametrize(
        "setting, policy, horizon",
        list(TRAJECTORY_SHA256),
        ids=[f"{s}-{type(pol).__name__}-{h}" for s, pol, h in TRAJECTORY_SHA256],
    )
    def test_trajectory_stream_pinned(self, linear_penalty, setting, policy, horizon):
        source, channel = self.SETTINGS[setting]
        _, arrays = simulate(policy, source, channel, linear_penalty, horizon, seed=17, keep_trajectory=True)
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.TRAJECTORY_SHA256[setting, policy, horizon]

    # Periodic(1.0): threshold-1 cycles whose AoII-0 slots transmit too, the
    # decodes of each slice's dwell slots drawn as one binomial, which the
    # trajectory does not show.  Per setting and horizon at seed 17, the
    # report fields after (horizon, seed) and the trajectory's sha256
    PERIOD_ONE = {
        ("paper", 150): (
            (2.1933333333333334, 1.0, 0.2703140709798455, 0.0, 10, 85),
            "746aa207d0dbbbb525be91f40189981f2916644f71438656cb4a470beb1edc21",
        ),
        ("paper", 20_000): (
            (2.06535, 1.0, 0.04814017070341084, 0.0, 25, 10732),
            "00121523b86a3157df992c560b388b677c4200cfeb570a57a11309f6c1333db9",
        ),
        ("paper", 100_003): (
            (2.0862474125776225, 1.0, 0.02177352437333845, 0.0, 27, 53758),
            "c9b222829c3fae5d6b8666f0a0fa34fadb1d589090702701142ddb8f414e7a92",
        ),
        ("waiting", 150): (
            (28.68, 1.0, 1.7959468957976603, 0.0, 68, 76),
            "59e1272290f2c19a1ae4f84d4060da354f6b3db2e6452d57bf429380284e9cef",
        ),
        ("waiting", 20_000): (
            (49.41555, 1.0, 3.424786835433202, 0.0, 399, 10158),
            "288c1d1e4c5518e195d5185760823318f17018ee52ef740603faa0db73a35303",
        ),
        ("waiting", 100_003): (
            (46.17301480955571, 1.0, 1.1886731803297967, 0.0, 399, 50283),
            "133011603d0bb71b3d74441d7897036542a4f854d5400dbb806baff7bb87c3cf",
        ),
    }

    @pytest.mark.parametrize("setting, horizon", list(PERIOD_ONE), ids=[f"{s}-{h}" for s, h in PERIOD_ONE])
    def test_period_one_pinned(self, linear_penalty, setting, horizon):
        source, channel = self.SETTINGS[setting]
        fields, sha256 = self.PERIOD_ONE[setting, horizon]
        report = simulate(Periodic(1.0), source, channel, linear_penalty, horizon, seed=17)
        assert report == SimReport(horizon, 17, *fields)
        kept, arrays = simulate(Periodic(1.0), source, channel, linear_penalty, horizon, seed=17, keep_trajectory=True)
        assert kept == report
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(array.tobytes())
        assert digest.hexdigest() == sha256

    @pytest.mark.parametrize("horizon", [1, 2, 150, 4097, 100_003])
    @pytest.mark.parametrize(
        "policy", [NeverTransmit(), FixedThreshold(3), MixedThreshold(2, 0.4), Periodic(0.3), Periodic(1.0)]
    )
    def test_trajectory_matches_report(self, policy, horizon):
        # the report's sums, batch means and counts are those of the returned
        # per-slot arrays: for the threshold policies, the per-cycle sums
        # against the per-slot expansion of the same cycles.  The waiting
        # setting's long ramps and bursts are cut by the horizon.  Integer
        # penalties add up exactly in any order, so there the sums are equal
        for setting, (source, channel) in self.SETTINGS.items():
            for penalty in (PenaltySpec.power(1.5), PenaltySpec.linear(), PenaltySpec.from_table([0, 1, 3, 4, 6])):
                self._check_trajectory_report(policy, source, channel, penalty, horizon)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("policy", [Periodic(0.3), Periodic(0.05)])
    def test_trajectory_matches_report_at_window_edges(self, policy, offset):
        # the reset-mark sampler draws its marks window by window, and the
        # horizon cuts the segment after the last mark before it
        for source, channel in self.SETTINGS.values():
            width = ResetMarks(policy.period, source, channel, PenaltySpec.linear()).width
            for penalty in (PenaltySpec.power(1.5), PenaltySpec.linear()):
                self._check_trajectory_report(policy, source, channel, penalty, width + offset)

    def test_windows_without_marks(self, linear_penalty):
        # at period 20 a window of the sparse setting holds about one mark
        source, channel = self.SETTINGS["sparse"]
        policy = Periodic(0.05)
        width = ResetMarks(policy.period, source, channel, linear_penalty).width
        horizon = 10 * width
        blocks = periodic_blocks(
            np.random.default_rng(3), policy.period, source, channel, linear_penalty, horizon // 100, horizon, False
        )
        assert sum(1 for _ in blocks) < 10
        self._check_trajectory_report(policy, source, channel, linear_penalty, horizon)

    @staticmethod
    def _check_trajectory_report(policy, source, channel, penalty, horizon):
        report, (deltas, rs, actions) = simulate(policy, source, channel, penalty, horizon, seed=3, keep_trajectory=True)
        assert (deltas.dtype, rs.dtype, actions.dtype) == (np.int64, np.int32, np.uint8)
        assert report == simulate(policy, source, channel, penalty, horizon, seed=3)
        assert deltas[0] == 0 and rs[0] == 0
        assert np.all((deltas[1:] == 0) | (deltas[1:] == deltas[:-1] + 1))
        assert np.all((rs == 0) | (rs < deltas))
        costs = penalty.evaluate(deltas)
        n_batches = min(100, horizon)
        size = horizon // n_batches

        def batch_stderr(values):
            # batch means of the per-slot values, summed per batch
            if n_batches < 2:
                return 0.0
            sums = values[: n_batches * size].reshape(n_batches, size).sum(axis=1, dtype=values.dtype)
            return float((sums / size).std(ddof=1) / math.sqrt(n_batches))

        if penalty.kind == "power":
            assert report.avg_aoii == pytest.approx(costs.mean(), rel=1e-12)
            assert report.aoii_stderr == pytest.approx(batch_stderr(costs), rel=1e-9, abs=1e-15)
        else:
            assert report.avg_aoii == costs.sum() / horizon
            assert report.aoii_stderr == batch_stderr(costs)
        assert report.avg_rate == actions.sum() / horizon
        assert report.rate_stderr == batch_stderr(actions.astype(np.int64))
        assert report.max_delta_seen == deltas.max()
        assert report.decode_successes <= actions.sum()
        if isinstance(policy, Periodic):
            assert np.array_equal(np.flatnonzero(actions), np.arange(0, horizon, policy.period))
            if policy.period > 1:
                # r = 1 only on the slot after a failed transmission that
                # kept the count
                assert rs.max() <= 1 and actions[np.flatnonzero(rs) - 1].all()
        elif isinstance(policy, FixedThreshold):
            assert np.array_equal(actions == 1, deltas >= 3)
        elif isinstance(policy, MixedThreshold):
            assert np.all(actions[deltas >= 3] == 1) and not actions[deltas < 2].any()

    def test_decode_bookkeeping(self, paper_source, paper_channel, linear_penalty):
        report = simulate(FixedThreshold(1), paper_source, paper_channel, linear_penalty, 100_000, seed=2)
        assert 0 < report.decode_successes <= report.avg_rate * report.horizon
        assert report.max_delta_seen >= 1

    def test_empirical_transition_frequencies_match_kernel(self, linear_penalty):
        # 1e7-slot trajectories of both samplers (a Periodic(0.3) one covers
        # the count-1 rows after a failed transmission); every observed
        # (state with delta <= 20, action) cell must match the kernel within 4
        # binomial standard errors.  The periodic run uses p_e = 0.7: at
        # alpha = p(0) = 0.5 a transmission keeps the count exactly as often
        # as it decodes without resetting, so a swap of the two would not show
        source = SourceModel.from_states(0.5, 16)
        horizon = 10_000_000
        for policy, channel in (
            (FixedThreshold(3), ChannelModel(p_e=0.5, c=0.5, r_max=2)),
            (Periodic(0.3), ChannelModel(p_e=0.7, c=0.5, r_max=2)),
        ):
            _, (deltas, rs, actions) = simulate(
                policy, source, channel, linear_penalty, horizon, seed=77, keep_trajectory=True
            )
            cur_d, cur_r, act = deltas[:-1], rs[:-1], actions[:-1]
            nxt_d, nxt_r = deltas[1:], rs[1:]
            mask = cur_d <= 20
            cur_code = (cur_d[mask] * 64 + cur_r[mask]) * 2 + act[mask]
            nxt_code = nxt_d[mask] * 64 + nxt_r[mask]
            del deltas, rs, actions, cur_d, cur_r, act, nxt_d, nxt_r, mask
            checked = 0
            count_one_rows = 0
            for code in np.unique(cur_code):
                rows = cur_code == code
                n = int(rows.sum())
                if n < 1000:
                    continue
                delta, r, a = int(code // 128), int((code // 2) % 64), int(code % 2)
                dist = transition_dist(
                    State(delta, r), TRANSMIT if a else WAIT, source, channel
                )
                observed = nxt_code[rows]
                for succ, p in dist:
                    freq = float((observed == succ.delta * 64 + succ.r).mean())
                    se = math.sqrt(p * (1 - p) / n)
                    assert abs(freq - p) <= 4 * se + 1e-12, (policy, delta, r, a, succ, freq, p)
                    checked += 1
                count_one_rows += r == 1
            assert checked > 20, policy
            assert count_one_rows > 5, policy

    def test_working_set_does_not_grow_with_the_horizon(self, paper_source, paper_channel, linear_penalty):
        # one 1M-slot run per policy; the per-slot loop peaked at 25-33 MB here
        # (three float arrays of the horizon and a schedule list).  The cycle
        # sampler holds one block of cycles at a time, the reset-mark sampler
        # the marks of one window, about 2048 of them or fewer
        for policy in (NeverTransmit(), FixedThreshold(2), MixedThreshold(2, 0.4), Periodic(0.3), Periodic(1.0)):
            tracemalloc.start()
            try:
                simulate(policy, paper_source, paper_channel, linear_penalty, 1_000_000, seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3_000_000, (policy, peak)


    def test_cycle_reports_hold_no_slot_arrays(self, paper_channel, linear_penalty):
        # a dwell at AoII 0 lasts 10^4 slots on average, so a block of 16 or
        # more cycles spans over 10^5 slots: expanded per slot, as
        # keep_trajectory does, that took 6.5-10 MB here, its per-cycle sums
        # about 20 kB.  Periodic(0.3) meets a mark on every other transmit
        # slot, so its windows are cut to about 2048 marks (160 kB here; a
        # window of 2^15 slots peaked at 310 kB)
        source = SourceModel.from_states(0.9999, 2)
        simulate(FixedThreshold(2), source, paper_channel, linear_penalty, 1000, seed=5)  # first-call set-up
        for policy in (FixedThreshold(2), MixedThreshold(2, 0.4), Periodic(1.0), Periodic(0.3)):
            tracemalloc.start()
            try:
                simulate(policy, source, paper_channel, linear_penalty, 1_000_000, seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 200_000, (policy, peak)
        # a ramp of about 10^5 slots, cut at a horizon of 1000
        tracemalloc.start()
        try:
            report = simulate(NeverTransmit(), SourceModel(0.5, 1e-5), paper_channel, linear_penalty, 1000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_delta_seen == 999 and peak < 200_000, (report, peak)

    def test_burst_survival_is_the_exact_keep_product(self):
        # P(K > k) = prod_{r<k} alpha q(r), with q formed directly, not as a
        # difference of cumulative cuts near 1
        source, channel = SourceModel.from_states(0.5, 16), ChannelModel(0.9, 0.5)
        survival = _Bursts(source, channel)._survival[::-1]
        q = channel.error_probability(np.arange(survival.size))
        assert np.array_equal(survival, np.cumprod(source.alpha * q))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.01, 0.99),
    n_states=st.integers(2, 64),
    p_e=st.floats(0.01, 0.99),
    c=st.floats(0.01, 1.0),
    r_max=st.none() | st.integers(0, 4),
    period=st.integers(2, 40),
    horizon=st.integers(1, 20_000),
)
def test_periodic_trajectory_obeys_the_kernel(alpha, n_states, p_e, c, r_max, period, horizon):
    # the kernel's support (the AoII steps up by one or resets, transmissions
    # exactly at the multiples of the period, r <= 1 and r = 1 only after a
    # transmission) and the report as the sums of the returned arrays
    source = SourceModel.from_states(alpha, n_states)
    channel = ChannelModel(p_e=p_e, c=c, r_max=r_max)
    TestSimulate._check_trajectory_report(Periodic(1.0 / period), source, channel, PenaltySpec.linear(), horizon)


class TestPeriodicOracle:
    """The exact law of a policy with period >= 2 (oracles.periodic_law and
    periodic_finite_law) against the per-slot loop, and the reset-mark
    sampler against it."""

    CHANNEL = ChannelModel(p_e=0.5, c=0.5, r_max=2)
    SOURCES = {
        "paper": SourceModel.from_states(0.5, 16),
        # mu > alpha: a mark often falls right where the AoII-0 run ends,
        # which flips the indicator
        "mu-above-alpha": SourceModel.from_states(0.2, 2),
        "slow": SourceModel.from_states(0.01, 32),
    }

    def _finite_law(self, source, period, horizon):
        p0 = self.CHANNEL.success_probability(0)
        return oracles.periodic_finite_law(source.alpha, source.mu, p0, period, horizon)

    @pytest.mark.parametrize("period", [2, 4])
    @pytest.mark.parametrize("name", ["paper", "mu-above-alpha"])
    def test_oracle_matches_slot_loop(self, name, period):
        source, horizon = self.SOURCES[name], 200_000
        report, (deltas, _, _) = oracles.slot_simulate(
            Periodic(1.0 / period), source, self.CHANNEL, PenaltySpec.linear(), horizon, seed=60 + period,
            keep_trajectory=True,
        )
        zero, aoii = self._finite_law(source, period, horizon)
        assert abs(report["avg_aoii"] - aoii) <= 4 * report["aoii_stderr"], (report, aoii)
        means = (deltas == 0).reshape(100, -1).mean(axis=1)
        assert abs(means.mean() - zero) <= 4 * means.std(ddof=1) / 10, (means.mean(), zero)

    @pytest.mark.parametrize("period", [2, 4, 20])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_sampler_matches_oracle(self, name, period):
        source, horizon, reps = self.SOURCES[name], 100_000, 32
        report = replicate(Periodic(1.0 / period), source, self.CHANNEL, PenaltySpec.linear(), horizon, 90 + period, reps)
        _, aoii = self._finite_law(source, period, horizon)
        assert abs(report.avg_aoii - aoii) <= 4 * report.aoii_stderr, (report, aoii)
        # every transmission goes out with r = 0, so it decodes with p(0)
        sends, p0 = reps * math.ceil(horizon / period), self.CHANNEL.success_probability(0)
        assert abs(report.decode_successes - sends * p0) <= 4 * math.sqrt(sends * p0 * (1 - p0)), report
        # and the stationary law is the finite-horizon one's limit
        _, stationary = oracles.periodic_law(source.alpha, source.mu, p0, period)
        assert abs(aoii - stationary) <= 1e-3 * stationary


class TestAgreesWithSlotLoop:
    """The numpy samplers against the per-slot loop they replaced
    (oracles.slot_simulate), on independent streams: AoII and rate agree
    within 4 standard errors of their difference, decode counts within 4
    Poisson standard deviations (decodes are less dispersed than Poisson
    counts in both samplers)."""

    CHANNELS = {
        "paper": ChannelModel(p_e=0.5, c=0.5, r_max=2),
        "no-combining": ChannelModel(p_e=0.5, c=0.5, r_max=2, combining="none"),
        "unbounded": ChannelModel(p_e=0.5, c=0.5),
    }
    PENALTIES = {
        "linear": PenaltySpec.linear(),
        "power": PenaltySpec.power(1.5),
        "table": PenaltySpec.from_table([0.0, 1.0, 3.0, 4.0, 6.0]),
    }
    POLICIES = (NeverTransmit(), FixedThreshold(3), MixedThreshold(2, 0.4), Periodic(0.3), Periodic(1.0))

    @pytest.mark.parametrize("channel_name", list(CHANNELS))
    @pytest.mark.parametrize("penalty_name", list(PENALTIES))
    @pytest.mark.parametrize("index", range(len(POLICIES)), ids=[repr(p) for p in POLICIES])
    def test_agrees(self, paper_source, channel_name, penalty_name, index):
        channel, penalty = self.CHANNELS[channel_name], self.PENALTIES[penalty_name]
        policy = self.POLICIES[index]
        horizon = 100_000
        new = simulate(policy, paper_source, channel, penalty, horizon, seed=1_000 + index)
        old = oracles.slot_simulate(policy, paper_source, channel, penalty, horizon, seed=2_000 + index)
        for mean, stderr in (("avg_aoii", "aoii_stderr"), ("avg_rate", "rate_stderr")):
            se = math.hypot(getattr(new, stderr), old[stderr])
            assert abs(getattr(new, mean) - old[mean]) <= 4.0 * se + 1e-12, (mean, new, old)
        decodes = new.decode_successes + old["decode_successes"]
        assert abs(new.decode_successes - old["decode_successes"]) <= 4.0 * math.sqrt(decodes), (new, old)


class TestReplicate:
    def test_single_rep_equals_split_seed_simulation(self, paper_source, paper_channel, linear_penalty):
        agg = replicate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 20_000, 123, 1)
        direct = simulate(
            FixedThreshold(2), paper_source, paper_channel, linear_penalty, 20_000, split_seed(123, 0)
        )
        assert agg == direct

    def test_aggregate_is_mean_of_replicates(self, paper_source, paper_channel, linear_penalty):
        reps = 5
        agg = replicate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 20_000, 123, reps)
        singles = [
            simulate(FixedThreshold(2), paper_source, paper_channel, linear_penalty, 20_000, split_seed(123, i))
            for i in range(reps)
        ]
        assert agg.avg_aoii == pytest.approx(np.mean([s.avg_aoii for s in singles]), abs=1e-15)
        assert agg.avg_rate == pytest.approx(np.mean([s.avg_rate for s in singles]), abs=1e-15)
        assert agg.decode_successes == sum(s.decode_successes for s in singles)
        assert agg.max_delta_seen == max(s.max_delta_seen for s in singles)

    def test_replicate_seeds_are_distinct(self):
        seeds = {split_seed(42, i) for i in range(64)}
        assert len(seeds) == 64

    def test_replicate_mean_variance_shrinks(self, paper_source, paper_channel, linear_penalty):
        # the cross-replicate stderr estimate should fall roughly like
        # 1/sqrt(n_reps); allow wide slack since these are noisy estimates
        errs = {}
        for reps in (4, 16, 64):
            agg = replicate(
                FixedThreshold(2), paper_source, paper_channel, linear_penalty, 4_000, 7, reps
            )
            errs[reps] = agg.aoii_stderr
        assert errs[64] < errs[4]
        assert errs[64] < 2.5 * errs[4] / math.sqrt(16)

    def test_validates_reps(self, paper_source, paper_channel, linear_penalty):
        with pytest.raises(ValueError):
            replicate(FixedThreshold(1), paper_source, paper_channel, linear_penalty, 100, 1, 0)
