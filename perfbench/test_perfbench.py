"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert any(workloads.generate(workload, 7)["ops"] != workloads.generate(workload, s)["ops"]
               for s in range(8, 12))


def test_every_drawable_solve_has_a_reference():
    for seed in range(50):
        for op in workloads.generate("solve", seed)["ops"]:
            assert op["key"] in REFERENCE["solves"]


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    result = {"op": [0, 1], "seconds": [0.1, 0.2], "kernel_s": [0.004, 0.004], "peak_rss_kb": 2048}
    assert set(run.end_to_end([(0.5, 0.004)], result, 2, 0)) == set(declared)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracer.per_layer_specs()


def _paper_pkg():
    import aoii_harq
    from aoii_harq import cli, config  # noqa: F401  (bound as package attributes)
    return aoii_harq


def test_traced_solve_matches_untraced_and_counts_layers():
    pkg = _paper_pkg()
    source = pkg.SourceModel.from_states(0.5, 16)
    channel = pkg.ChannelModel(p_e=0.5, c=0.5, r_max=2)
    penalty = pkg.PenaltySpec.linear()
    plain = pkg.solve_cmdp(0.2, source, channel, penalty)
    t = tracer.Tracer(pkg)
    t.install()
    try:
        traced = pkg.solve_cmdp(0.2, source, channel, penalty)
    finally:
        t.uninstall()
    assert traced == plain
    assert pkg.solve_cmdp is pkg.optimizer.solve_cmdp  # restored
    layers = t.summary()
    names = {name for name, _, _ in tracer.per_layer_specs()}
    assert set(layers) | {"cli.validate.sim_check_fails", "trace.overhead_s"} == names
    for name in ("optimizer.solve_cmdp.calls", "rate.achieved_rate.calls", "rate.m_table.calls",
                 "rate.mixed_chain_analysis.calls", "lagrangian.optimal_threshold.calls",
                 "lagrangian.value_at.calls", "model.gamma.calls", "lagrangian.sigma_steps"):
        assert layers[name] > 0, name
    assert layers["optimizer.lambda_evals"] == plain.diagnostics["lambda_iterations"]
    assert 0.0 < layers["optimizer.distinct_threshold_ratio"] <= 1.0
    solve = layers["optimizer.solve_cmdp.s"]
    assert 0.0 < layers["optimizer.solve_cmdp.self_s"] < solve


def _reference_outputs(spec):
    outputs = []
    for op in spec["ops"]:
        outputs.append(dict(REFERENCE["solves"][op["key"]]))
    return outputs


def test_perturbed_solve_is_counted_as_failed():
    spec = workloads.generate("solve", 3)
    outputs = _reference_outputs(spec)
    assert run.judge("solve", spec["ops"], outputs, REFERENCE) == ([], 0)
    mixed = next(i for i, out in enumerate(outputs) if out["rho_high"] is not None)
    outputs[mixed]["rho_high"] += 1e-6
    problems, _ = run.judge("solve", spec["ops"], outputs, REFERENCE)
    assert len(problems) == 1 and "rho_high" in problems[0]
    result = {"op": list(range(len(outputs))), "seconds": [0.1] * len(outputs),
              "kernel_s": [0.004] * len(outputs), "peak_rss_kb": 1024}
    metrics = run.end_to_end([(0.5, 0.004)], result, len(outputs), len(problems))
    assert metrics["pass_frac"] == 1.0 - 1 / len(outputs)


def test_solve_gate_rejects_each_kind_of_wrong_answer():
    ref = REFERENCE["solves"]["fig3@0.257"]
    assert ref["regime"] == "mixed"
    for field, value in (("n_high", ref["n_high"] + 1), ("regime", "pure-threshold"),
                         ("predicted_aoii", ref["predicted_aoii"] * (1 + 1e-8)),
                         ("predicted_rate", 0.257 + 1e-8)):
        assert gate.check_solve({**ref, field: value}, ref, 0.257), field


def test_timings_are_scaled_by_the_nearby_kernel_time():
    ref = run.calibrate.REFERENCE_S
    seconds = [1.0] * 40
    kernel_s = [ref] * 20 + [2 * ref] * 20  # the machine halves its speed mid-run
    scaled = run.scaled_times(seconds, kernel_s)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    medians = run.per_op_medians([0, 1, 0, 1], [1.0, 2.0, 3.0, 5.0])
    assert medians == [2.0, 3.5]
    result = {"op": [0, 1, 0, 1], "seconds": [0.1, 0.2, 0.1, 0.2], "kernel_s": [2 * ref] * 4, "peak_rss_kb": 1024}
    metrics = run.end_to_end([(0.8, 2 * ref)] * 3, result, 4, 0)
    assert metrics["setup_s"] == 0.4 and abs(metrics["wall_s"] - 0.15) < 1e-12


def test_sweep_ops_cover_every_paper_row():
    spec = workloads.generate("sweep_paper", 5)
    assert [op["row"] for op in spec["ops"]] == list(range(len(REFERENCE["sweep_paper"])))
    for op, (_, cfg) in zip(spec["ops"], spec["configs"]):
        assert cfg["budget"]["R_grid"] == [REFERENCE["sweep_paper"][op["row"]]["R"]]


def _sweep_csv(rows):
    header = ",".join(rows[0])
    return "# aoii-harq sweep\n" + header + "\n" + "\n".join(
        ",".join("" if v is None else format(v, ".12g") if isinstance(v, float) else str(v)
                 for v in row.values()) for row in rows) + "\n"


def test_sweep_gate_checks_analytic_exactly_and_simulation_statistically():
    rows = []
    for ref in REFERENCE["sweep_paper"]:
        rows.append({"R": ref["R"], "n_high": ref["n_high"], "n_low": ref["n_low"],
                     "rho_high": ref["rho_high"], "rate_analytic": ref["predicted_rate"],
                     "aoii_analytic": ref["predicted_aoii"], "rate_sim": ref["predicted_rate"] + 2e-3,
                     "aoii_sim": ref["predicted_aoii"] * 1.01, "aoii_periodic": ref["predicted_aoii"] * 1.5,
                     "status": "ok"})
    assert gate.check_sweep(_sweep_csv(rows), REFERENCE["sweep_paper"]) == []
    for field, scale in (("aoii_analytic", 1 + 1e-6), ("aoii_sim", 1.05), ("aoii_periodic", 0.5)):
        bad = copy.deepcopy(rows)
        bad[3][field] *= scale
        assert len(gate.check_sweep(_sweep_csv(bad), REFERENCE["sweep_paper"])) == 1, field


def _validate_payload(sim_gap):
    checks = [{"name": "threshold-cross-oracle[lam=0]", "status": "pass", "measured": 3.0, "tolerance": 3.0},
              {"name": "rate-vs-simulation[n0=1]", "status": "pass" if sim_gap <= 1.0 else "fail",
               "measured": sim_gap, "tolerance": 1.0}]
    passed = sim_gap <= 1.0
    return (0 if passed else 1), json.dumps({"checks": checks, "passed": passed})


def test_validate_gate():
    assert gate.check_validate(*_validate_payload(0.5)) == ([], 0)
    # the suite's own 3-sigma check failed, within the gate's band
    assert gate.check_validate(*_validate_payload(2.0)) == ([], 1)
    problems, fails = gate.check_validate(*_validate_payload(gate.SIM_CHECK_BAND + 0.1))
    assert fails == 1 and len(problems) == 1
    code, text = _validate_payload(0.5)
    payload = json.loads(text)
    payload["checks"][0]["status"] = "fail"
    payload["passed"] = False
    assert gate.check_validate(1, json.dumps(payload))[0]
    assert gate.check_validate(3, "")[0] == ["exit code 3"]


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency(list(range(10))) is None
    value, percentile = run.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
