import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from aoii_harq import achieved_rate, ChannelModel, FixedThreshold, g_wait, PenaltySpec, simulate, SourceModel
from aoii_harq import lagrangian, model, rate
from aoii_harq.cli import main
from aoii_harq.config import load_config, parse_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BASE = {
    "source": {"alpha": 0.5, "n_states": 16},
    "channel": {"p_e": 0.5, "c": 0.5, "r_max": 2},
    "penalty": {"kind": "linear"},
    "budget": {"R": 0.4},
    "sim": {"horizon": 20000, "seed": 7, "n_reps": 1},
}


def write_config(tmp_path, name="config.json", **overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def parse_record(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


class TestSolveCommand:
    def test_waiting_regime_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 0.01, "n_states": 32})
        assert main(["solve", "--config", cfg]) == 0
        record = parse_record(capsys.readouterr().out)
        assert record["regime"] == "never-transmit"
        expected = g_wait(SourceModel.from_states(0.01, 32), PenaltySpec.linear())
        assert float(record["predicted_aoii"]) == pytest.approx(expected, rel=1e-10)
        assert record["n_high"] == "none"

    def test_unconstrained_budget_is_pure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R": 1.0})
        assert main(["solve", "--config", cfg]) == 0
        record = parse_record(capsys.readouterr().out)
        assert record["regime"] == "pure-threshold"
        assert record["lambda_star"] == "0"

    def test_series_cap_is_a_numerical_failure(self, tmp_path, capsys):
        # only a non-linear penalty sums a truncated series; the linear
        # penalty's sums are exact, so the cap cannot touch its solve
        power = {"kind": "power", "exponent": 2}
        cfg = write_config(tmp_path, budget={"R": 0.2}, penalty=power, solver={"l_cap": 5})
        assert main(["solve", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err
        capped = write_config(tmp_path, "capped.json", budget={"R": 0.2}, solver={"l_cap": 5})
        assert main(["solve", "--config", capped]) == 0
        record = parse_record(capsys.readouterr().out)
        assert record["regime"] == "mixed"
        default = write_config(tmp_path, "default.json", budget={"R": 0.2})
        assert main(["solve", "--config", default]) == 0
        assert record == parse_record(capsys.readouterr().out)

    def test_mixed_budget_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R": 0.2})
        assert main(["solve", "--config", cfg]) == 0
        record = parse_record(capsys.readouterr().out)
        assert record["regime"] == "mixed"
        assert float(record["predicted_rate"]) == pytest.approx(0.2, abs=1e-9)
        assert int(record["n_high"]) == int(record["n_low"]) + 1

    def test_malformed_numeric_field_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={"p_e": "half", "c": 0.5})
        assert main(["solve", "--config", cfg]) == 2
        assert "channel.p_e" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={"p_e": 0.5, "c": 0.5, "pe2": 1})
        assert main(["solve", "--config", cfg]) == 2
        assert "channel.pe2" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_boundedness_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            source={"alpha": 0.5, "mu": 1e-9},
            channel={"p_e": 1.0 - 1e-12, "c": 1.0},
        )
        assert main(["solve", "--config", cfg]) == 3
        assert "boundedness" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_degenerate_kernel_is_a_numerical_failure(self, tmp_path, capsys, command):
        # 1 - alpha - mu*q(0) rounds to 1.0: gamma1(0) + gamma2(0) reaches 1
        cfg = write_config(tmp_path, source={"alpha": 1e-17, "mu": 1e-18}, channel={"p_e": 0.5, "c": 0.5})
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: gamma coefficients at r=0")
        assert captured.err.count("\n") == 1

    def test_output_file_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R": 0.2})
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["solve", "--config", cfg, "--out", out1]) == 0
        assert main(["solve", "--config", cfg, "--out", out2]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestSweepCommand:
    def test_single_point_grid_matches_solve(self, tmp_path, capsys):
        cfg_solve = write_config(tmp_path, "solve.json", budget={"R": 0.2})
        assert main(["solve", "--config", cfg_solve]) == 0
        record = parse_record(capsys.readouterr().out)

        cfg_sweep = write_config(tmp_path, "sweep.json", budget={"R_grid": [0.2]})
        assert main(["sweep", "--config", cfg_sweep]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["status"] == "ok"
        assert row["n_high"] == record["n_high"]
        assert float(row["rate_analytic"]) == pytest.approx(float(record["predicted_rate"]), abs=1e-12)
        assert float(row["aoii_analytic"]) == pytest.approx(float(record["predicted_aoii"]), abs=1e-12)
        assert row["rate_sim"] != "" and row["aoii_periodic"] != ""

    def test_never_transmit_rows_have_empty_thresholds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            source={"alpha": 0.01, "n_states": 32},
            budget={"R_grid": [0.1, 0.5]},
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            assert row["n_high"] == "" and row["rho_high"] == ""
            assert float(row["rate_analytic"]) == 0.0
            assert row["status"] == "ok"

    def test_degenerate_kernel_row_names_the_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 1e-17, "mu": 1e-18}, channel={"p_e": 0.5, "c": 0.5})
        assert main(["sweep", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.endswith(",error:DegenerateKernelError")

    def test_grid_must_increase(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R_grid": [0.5, 0.2]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "budget.R_grid" in capsys.readouterr().err

    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, budget={"R_grid": [0.2, 0.4]})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg, "--out", a]) == 0
        assert main(["sweep", "--config", cfg, "--out", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_override_changes_sim_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R_grid": [0.2]})
        assert main(["sweep", "--config", cfg, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--config", cfg, "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second
        row = lambda text: dict(zip(
            [l for l in text.splitlines() if not l.startswith("#")][0].split(","),
            [l for l in text.splitlines() if not l.startswith("#")][1].split(","),
        ))
        assert row(first)["rate_analytic"] == row(second)["rate_analytic"]
        assert row(first)["rate_sim"] != row(second)["rate_sim"]


class TestSimulateCommand:
    def test_emits_solution_and_measurements(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budget={"R": 0.2})
        assert main(["simulate", "--config", cfg, "--reps", "2"]) == 0
        record = parse_record(capsys.readouterr().out)
        assert record["regime"] == "mixed"
        assert record["n_reps"] == "2"
        assert 0.0 <= float(record["avg_rate"]) <= 1.0
        assert float(record["avg_aoii"]) > 0.0


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            validate={"lambdas": [0.0, 5.0], "thresholds": [1, 3], "delta_max": 300},
        )
        assert main(["validate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert any(name.startswith("threshold-cross-oracle") for name in names)
        assert all(c["status"] == "pass" for c in payload["checks"])
        # the rate band is 3 sigma, sigma being the batch-means stderr of the
        # same seeded run floored by the i.i.d. binomial one
        run = load_config(cfg)
        rate_checks = [c for c in payload["checks"] if c["name"].startswith("rate-vs-simulation")]
        assert len(rate_checks) == 2
        for check in rate_checks:
            n0 = int(check["name"].split("n0=")[1].rstrip("]"))
            analytic = achieved_rate(n0, run.source, run.channel, run.solver.series_config()).rate
            iid_se = math.sqrt(analytic * (1.0 - analytic) / run.sim.horizon)
            report = simulate(
                FixedThreshold(n0), run.source, run.channel, run.penalty, run.sim.horizon, run.sim.seed
            )
            assert check["tolerance"] >= 3.0 * iid_se * (1.0 - 1e-12)
            assert check["tolerance"] == pytest.approx(3.0 * max(iid_se, report.rate_stderr), rel=1e-12)

    def test_one_chain_per_config(self, tmp_path):
        assert main(["validate", "--config", str(ROOT / "configs" / "example.json"),
                     "--out", str(tmp_path / "checks.json")]) == 0
        assert lagrangian.burst_chain.cache_info().misses == 1

    def test_one_walk_per_config(self, tmp_path, sigma_steps):
        # the sigma checks, rate analyses and region masses read one walk
        path = ROOT / "configs" / "example.json"
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "checks.json")]) == 0
        steps = sigma_steps[0]
        run = load_config(str(path))
        _, depth = lagrangian.sigma_series(run.source, run.channel, run.solver.series_config())
        assert steps == depth

    def test_stationary_checks_build_no_stationary_law(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("validate built the stationary law")

        monkeypatch.setattr(rate.RateAnalysis, "stationary_arrays", property(refuse))
        out = tmp_path / "checks.json"
        path = ROOT / "configs" / "example.json"
        assert main(["validate", "--config", str(path), "--seed", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "validate_example.json").read_bytes()

    def test_region_masses_peak_memory(self):
        # the largest validate_grid law: 156,085 (h, r) pairs per threshold
        source, channel = SourceModel.from_states(0.2, 128), ChannelModel(p_e=0.9, c=0.5, r_max=2)

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n0 in (1, 2, 5):
            analysis = achieved_rate(n0, source, channel)
            assert peak(lambda: analysis.region_masses) < 1 << 20
        # the law itself, summed the same way, would not fit under the bound
        assert peak(lambda: analysis.stationary_arrays) > 1 << 20

    def test_waiting_regime_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 0.01, "n_states": 32})
        assert main(["validate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "rvi-all-wait" in names and "gwait-cross-oracle" in names

    def test_perturbed_gamma_fails_and_exits_one(self, tmp_path, capsys, monkeypatch):
        # the closed-form side answers one threshold too high, so the
        # cross-oracle checks against value iteration must fail
        exact = lagrangian.optimal_threshold
        monkeypatch.setattr(lagrangian, "optimal_threshold", lambda *args: exact(*args) + 1)
        cfg = write_config(tmp_path, validate={"lambdas": [5.0], "thresholds": [1], "delta_max": 300})
        assert main(["validate", "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        failed = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
        assert any("cross-oracle" in name for name in failed)


    def test_unconverged_value_iteration_fails_and_exits_one(self, tmp_path, capsys):
        data = json.loads((ROOT / "configs" / "example.json").read_text(encoding="utf-8"))
        data["validate"] = {"max_iters": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        status = {c["name"]: c["status"] for c in payload["checks"]}
        cross = [name for name in status if name.startswith("threshold-cross-oracle")]
        assert cross and all(status[name] == "fail" for name in cross)
        # no thresholds were read, so none were checked for monotonicity
        ordered = [name for name in status if name.startswith("thresholds-nonincreasing-r")]
        assert ordered and all(status[name] == "fail" for name in ordered)

    def test_kernel_checks_read_gamma_arrays(self, capsys, monkeypatch):
        # a transmission at count 3 that never resets the AoII: the kernel
        # checks must see it in the one transmit kernel the package computes with
        exact = model.gamma_arrays

        def stuck(source, channel, n):
            g1, g2 = exact(source, channel, n)
            if n > 3:
                g1[3], g2[3] = 0.0, 1.0
            return g1, g2

        monkeypatch.setattr(model, "gamma_arrays", stuck)
        assert main(["validate", "--config", str(ROOT / "configs" / "example.json")]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        reset = checks["kernel-reset-reachability"]
        assert reset["status"] == "fail" and reset["measured"] == 0.0
        assert checks["kernel-normalization"]["status"] == "pass"
        assert checks["gamma-sum-below-one"]["status"] == "fail"


class TestWaitAoiiCommand:
    def test_emits_closed_form(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 0.5, "mu": 0.5})
        assert main(["wait-aoii", "--config", cfg]) == 0
        record = parse_record(capsys.readouterr().out)
        assert float(record["g_wait"]) == pytest.approx(1.0, abs=1e-12)
        assert record["waiting_is_optimal"] == "True"


BAD_INPUTS = [
    # config sections, extra flags, field in "config error at <field>", word in the message
    pytest.param({"solver": {"epsilon": -1}}, [], "solver.epsilon", "unknown key", id="solver.epsilon=-1"),
    pytest.param({"solver": {"l_cap": 0}}, [], "solver", "l_cap", id="solver.l_cap=0"),
    pytest.param({"solver": {"tail_tol": 0}}, [], "solver", "tail_tol", id="solver.tail_tol=0"),
    pytest.param({"solver": {"epsilon": 2}}, [], "solver.epsilon", "unknown key", id="solver.epsilon=2"),
    pytest.param({"solver": {"tail_tol": 1}}, [], "solver", "tail_tol", id="solver.tail_tol=1"),
    pytest.param({"sim": {"seed": -1}}, [], "sim", "seed", id="sim.seed=-1"),
    pytest.param({"validate": {"thresholds": [0]}}, [], "validate", "thresholds", id="thresholds=[0]"),
    pytest.param({"validate": {"thresholds": [1.7]}}, [], "validate.thresholds[0]", "integer",
                 id="thresholds=[1.7]"),
    pytest.param({"validate": {"thresholds": ["x"]}}, [], "validate.thresholds[0]", "number",
                 id="thresholds=[x]"),
    pytest.param({"validate": {"lambdas": [True]}}, [], "validate.lambdas[0]", "number", id="lambdas=[true]"),
    pytest.param({"validate": {"lambdas": [-1]}}, [], "validate", "lambdas", id="lambdas=[-1]"),
    pytest.param({"validate": {"delta_max": 1}}, [], "validate", "delta_max", id="validate.delta_max=1"),
    pytest.param({"validate": {"span_tol": -1}}, [], "validate", "span_tol", id="validate.span_tol=-1"),
    pytest.param({"outputs": {"sweep": "sweep.csv"}}, [], "<root>.outputs", "unknown key", id="outputs"),
    pytest.param({}, ["--seed", "-1"], "sim", "seed", id="--seed=-1"),
    pytest.param({}, ["--reps", "0"], "sim", "n_reps", id="--reps=0"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("sections, flags, field, word", BAD_INPUTS)
    def test_bad_input_exits_two_and_names_it(self, tmp_path, capsys, sections, flags, field, word):
        cfg = write_config(tmp_path, budget={"R": 0.2}, **sections)
        assert main(["simulate", "--config", cfg] + flags) == 2
        err = capsys.readouterr().err
        assert f"config error at {field}: " in err
        assert err.count(f"{field}: ") == 1
        assert word in err


class TestResolvedConfig:
    def test_example_config(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "example.json"
        assert load_config(str(path)).resolved == {
            "source": {"alpha": 0.5, "n_states": 16},
            "channel": {"p_e": 0.5, "c": 0.5, "r_max": 2, "combining": "soft"},
            "penalty": {"kind": "linear"},
            "budget": {"R_grid": [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 0.95]},
            "solver": {"weighted_epsilon": 1e-10, "l_cap": 1_000_000, "lambda_tol": 1e-6, "tail_tol": 1e-12},
            "sim": {"horizon": 100_000, "seed": 2024, "n_reps": 4},
        }

    def test_every_solver_and_sim_default_overridden(self):
        data = {
            "source": {"alpha": 0.5, "mu": 0.1},
            "channel": {"p_e": 0.5, "c": 0.5},
            "penalty": {"kind": "power", "exponent": 2},
            "budget": {"R": 0.3},
            "solver": {"weighted_epsilon": 1e-8, "l_cap": 5000, "lambda_tol": 1e-3, "tail_tol": 1e-10},
            "sim": {"horizon": 500, "seed": 3, "n_reps": 2},
            "validate": {"thresholds": [4]},
        }
        assert parse_config(data).resolved == {
            "source": {"alpha": 0.5, "mu": 0.1},
            "channel": {"p_e": 0.5, "c": 0.5, "r_max": None, "combining": "soft"},
            "penalty": {"kind": "power", "exponent": 2},
            "budget": {"R": 0.3},
            "solver": {"weighted_epsilon": 1e-8, "l_cap": 5000, "lambda_tol": 1e-3, "tail_tol": 1e-10},
            "sim": {"horizon": 500, "seed": 3, "n_reps": 2},
            "validate": {"thresholds": [4]},
        }


class TestGoldenOutputs:
    # outputs recorded at --seed 5; a change in the solver's float sums or in
    # the simulator's random stream shows here as a changed byte.  CI runs
    # the installed console script over the same manifest
    CASES = [(case["golden"], case["command"], case["config"], case["flags"])
             for case in json.loads((GOLDEN / "cases.json").read_text())]

    @pytest.mark.parametrize("golden, command, config, flags", CASES, ids=[case[0] for case in CASES])
    def test_output_matches_golden_file(self, tmp_path, golden, command, config, flags):
        out = tmp_path / golden
        assert main([command, "--config", str(ROOT / config), "--seed", "5", *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestEntryPoint:
    def _run(self, *args):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "aoii_harq.cli", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_solve_exits_zero(self):
        done = self._run("solve", "--config", "configs/waiting_source.json")
        assert done.returncode == 0, done.stderr
        assert "regime = never-transmit" in done.stdout

    def test_unknown_key_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, budget={"R": 0.4, "bogus": 1})
        done = self._run("solve", "--config", cfg)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "config error at budget.bogus: unknown key\n"
