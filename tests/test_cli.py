import json
import math

import pytest

from aoii_harq import achieved_rate, FixedThreshold, g_wait, PenaltySpec, simulate, SourceModel
from aoii_harq.cli import main
from aoii_harq.config import load_config

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
        cfg = write_config(tmp_path, budget={"R": 0.2}, solver={"l_cap": 5})
        assert main(["solve", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

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
            analytic = achieved_rate(n0, run.source, run.channel, run.solver.tail_tol).rate
            iid_se = math.sqrt(analytic * (1.0 - analytic) / run.sim.horizon)
            report = simulate(
                FixedThreshold(n0), run.source, run.channel, run.penalty, run.sim.horizon, run.sim.seed
            )
            assert check["tolerance"] >= 3.0 * iid_se * (1.0 - 1e-12)
            assert check["tolerance"] == pytest.approx(3.0 * max(iid_se, report.rate_stderr), rel=1e-12)

    def test_waiting_regime_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 0.01, "n_states": 32})
        assert main(["validate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "rvi-all-wait" in names and "gwait-cross-oracle" in names

    def test_perturbed_gamma_fails_and_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            validate={"lambdas": [5.0], "thresholds": [1], "gamma_perturb": 0.5, "delta_max": 300},
        )
        assert main(["validate", "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        failed = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
        assert any("cross-oracle" in name for name in failed)


class TestWaitAoiiCommand:
    def test_emits_closed_form(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"alpha": 0.5, "mu": 0.5})
        assert main(["wait-aoii", "--config", cfg]) == 0
        record = parse_record(capsys.readouterr().out)
        assert float(record["g_wait"]) == pytest.approx(1.0, abs=1e-12)
        assert record["waiting_is_optimal"] == "True"
