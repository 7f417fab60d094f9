"""Benchmark of the aoii_harq package: one result line per workload and seed.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Run from the repository root.  The package is imported from ``src/``; each
measurement runs in a fresh child interpreter (worker.py) with BLAS/OpenMP
threads pinned to 1.  Set-up time is the median over several fresh
children.  End-to-end timings are scaled to the calibration kernel's
reference speed (calibrate.py), which the worker times after every
operation.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from one traced pass.
Lines before it give every metric by name and unit, the tail latency with its
percentile and sample count, and the environment.  Generated inputs, outputs,
spans and a summary go to ``perfbench/.runs/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0      # the whole run, children included
SETUP_SAMPLES = 4         # timed set-up-only children, plus the measuring child
KERNEL_WINDOW = 10         # kernel samples each side of an operation that scale it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("ratio", "higher"),
}

# Per-layer counts that must be non-zero (and zero) in a traced pass.
EXPECT_NONZERO = {
    "solve": ("optimizer.solve_cmdp.calls", "optimizer.lambda_evals", "rate.achieved_rate.calls",
              "rate.m_table.calls", "lagrangian.optimal_threshold.calls",
              "lagrangian.g_for_threshold.calls", "lagrangian.sigma_steps", "model.gamma.calls",
              "model.validate_boundedness.calls", "config.load_config.calls"),
    "sweep": ("cli.main.calls", "optimizer.solve_cmdp.calls", "rate.mixed_chain_analysis.calls",
              "sim.replicate.calls", "sim.simulate.calls", "sim.slots", "sim.mslot_per_s.threshold",
              "sim.mslot_per_s.periodic", "config.load_config.calls"),
    "validate": ("cli.main.calls", "rvi.rvi_solve.calls", "rvi.sweeps", "lagrangian.sigma_series.calls",
                 "lagrangian.g_wait.calls", "lagrangian.value_at.calls", "rate.achieved_rate.calls",
                 "sim.simulate.calls", "model.gamma.calls", "config.load_config.calls"),
}
EXPECT_ZERO = {"solve": ("sim.slots", "rvi.sweeps"), "sweep": ("rvi.sweeps",), "validate": ()}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def write_inputs(spec: dict, run_dir: Path, seconds: int, trace: int) -> Path:
    """Write the generated configs and the plan the worker reads."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "configs").mkdir(parents=True)
    (run_dir / "out").mkdir()
    suffix = {"sweep": ".csv", "validate": ".json"}.get(spec["kind"], ".txt")
    config_paths, out_paths = [], []
    for name, data in spec["configs"]:
        path = run_dir / "configs" / f"{name}.json"
        path.write_text(json.dumps(data, indent=1))
        config_paths.append(str(path))
        out_paths.append(str(run_dir / "out" / f"{name}{suffix}"))
    plan = {
        "workload": spec["workload"], "seed": spec["seed"], "kind": spec["kind"],
        "ops": spec["ops"], "config_paths": config_paths, "out_paths": out_paths,
        "seconds": seconds, "trace": trace, "src": str(ROOT / "src"),
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    return plan_path


def judge(kind: str, ops: list[dict], outputs: list[dict], reference: dict) -> tuple[list[str], int]:
    """(problems, simulation-check failures) of one pass; one problem line per failed operation."""
    problems, sim_fails = [], 0
    for op, out in zip(ops, outputs):
        if "error" in out:
            problems.append(f"op {op}: {out['error']}")
            continue
        try:
            if kind == "solve":
                ref = reference["solves"].get(op["key"])
                found = ["no reference value"] if ref is None else gate.check_solve(out, ref, op["R"])
            elif kind == "sweep":
                found = [f"exit code {out['exit_code']}"] if out["exit_code"] else \
                    gate.check_sweep(out["text"], [reference["sweep_paper"][op["row"]]])
            else:
                found, fails = gate.check_validate(out["exit_code"], out["text"])
                sim_fails += fails
        except (ValueError, KeyError, TypeError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        if found:
            problems.append(f"op {op}: " + "; ".join(found))
    return problems, sim_fails


def tail_latency(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def simulated_slots(spec: dict) -> int:
    """Slots one pass simulates, from the generated configs."""
    total = 0
    for _, cfg in spec["configs"]:
        sim = cfg.get("sim", {})
        if spec["kind"] == "sweep":
            total += len(cfg["budget"]["R_grid"]) * 2 * sim["n_reps"] * sim["horizon"]
        elif spec["kind"] == "validate":
            thresholds = cfg["validate"].get("thresholds", (1, 2, 5))
            total += len(thresholds) * sim["horizon"]
    return total


def scaled_times(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Each operation's time at the calibration kernel's reference speed.

    The kernel runs after every operation.  An operation is scaled by
    REFERENCE_S over the median kernel time of the KERNEL_WINDOW samples on
    each side of it, so it is judged against the machine's speed in the same
    stretch of the run.
    """
    out = []
    for index, t in enumerate(seconds):
        window = kernel_s[max(0, index - KERNEL_WINDOW):index + KERNEL_WINDOW + 1]
        out.append(t * calibrate.REFERENCE_S / statistics.median(window))
    return out


def per_op_medians(ops: list[int], seconds: list[float]) -> list[float]:
    """The median time of each operation over its runs, in operation order."""
    by_op: dict[int, list[float]] = {}
    for op, t in zip(ops, seconds):
        by_op.setdefault(op, []).append(t)
    return [statistics.median(by_op[op]) for op in sorted(by_op)]


def end_to_end(setup: list[tuple[float, float]], result: dict, attempted: int, failed: int) -> dict[str, float]:
    """The end-to-end metrics, timings at the calibration kernel's reference speed.

    wall_s is one pass over the operations, as the sum of their medians;
    op_ms_p50 is the median over the operations of their median times.
    """
    medians = per_op_medians(result["op"], scaled_times(result["seconds"], result["kernel_s"]))
    return {
        "setup_s": statistics.median(t * calibrate.REFERENCE_S / k for t, k in setup),
        "wall_s": sum(medians),
        "op_ms_p50": 1000.0 * statistics.median(medians),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }


def self_test(kind: str, result: dict, layers: dict) -> list[str]:
    """Traced outputs equal untraced ones; expected counts are (non-)zero."""
    problems = []
    if result["traced_outputs"] != result["outputs"][:len(result["traced_outputs"])]:
        problems.append("traced outputs differ from untraced outputs")
    problems += [f"{name} is zero" for name in EXPECT_NONZERO[kind] if not layers[name]]
    problems += [f"{name} is {layers[name]}, expected 0" for name in EXPECT_ZERO[kind] if layers[name]]
    return problems


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": _git_commit(), "threads": {name: "1" for name in THREAD_VARS}}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "aoii_harq" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {ROOT / 'src'}; run from a full checkout")
    spec = workloads.generate(workload, seed)
    run_dir = HERE / ".runs" / f"{workload}-s{seed}-t{trace}"
    plan_path = write_inputs(spec, run_dir, seconds, trace)
    reference = json.loads((HERE / "reference.json").read_text())

    _run_child([str(plan_path), "--setup-only"], deadline)  # warm the page and bytecode caches
    setup = [tuple(json.loads(_run_child([str(plan_path), "--setup-only"], deadline)))
             for _ in range(SETUP_SAMPLES)]
    _run_child([str(plan_path)], deadline)
    result = json.loads((run_dir / "result.json").read_text())
    setup.append((result["setup_s"], result["setup_kernel_s"]))

    ops = spec["ops"]
    problems, sim_fails = judge(spec["kind"], [ops[i] for i in result["op"]], result["outputs"], reference)
    attempted = len(result["outputs"])
    failed = len(problems)
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": {**environment(), **result["versions"]}, "ops": ops,
               "passes": len(result["op"]) / len(ops), "setup_samples": setup,
               "runs": {key: result[key] for key in ("op", "seconds", "kernel_s")},
               "sim_check_fails": sim_fails}
    if trace:
        layers = dict(result["layers"])
        found, fails = judge(spec["kind"], ops, result["traced_outputs"], reference)
        problems += found
        failed += len(found)
        attempted += len(ops)
        layers["cli.validate.sim_check_fails"] = fails
        layers["trace.overhead_s"] = result["traced_wall"] - sum(per_op_medians(result["op"], result["seconds"]))
        self_problems = self_test(spec["kind"], result, layers)
        problems += self_problems
        metrics = {name: (layers[name], unit) for name, unit, _ in tracer.per_layer_specs()}
        summary["self_test"] = self_problems or "pass"
    else:
        self_problems = []
        metrics = {name: (value, END_TO_END[name][0])
                   for name, value in end_to_end(setup, result, attempted, failed).items()}
        scaled = scaled_times(result["seconds"], result["kernel_s"])
        tail = tail_latency(scaled)
        summary["op_ms_tail"] = None if tail is None else {
            "value": 1000.0 * tail[0], "percentile": tail[1], "samples": len(scaled)}
        summary["op_ms_max"] = 1000.0 * max(scaled)
        raw = per_op_medians(result["op"], result["seconds"])
        summary["raw"] = {"setup_s": statistics.median(t for t, _ in setup), "wall_s": sum(raw),
                          "op_ms_p50": 1000.0 * statistics.median(raw),
                          "kernel_ms_p50": 1000.0 * statistics.median(result["kernel_s"])}
        slots = simulated_slots(spec)
        summary["sim_mslot_per_s"] = slots / metrics["wall_s"][0] / 1e6 if slots else None
    summary["error_frac"] = failed / attempted
    summary["problems"] = problems
    summary["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    return {
        "correct": failed == 0 and not self_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
        "summary": summary,
    }


def _print_report(report: dict) -> None:
    s = report["summary"]
    env = s["environment"]
    print(f"# workload {s['workload']} seed {s['seed']} trace {s['trace']}: {s['passes']:.3g} passes, "
          f"{report['attempted']} operations, {report['failed']} failed (error_frac {s['error_frac']:.4g})")
    print(f"# environment: nproc {env['nproc']}, {env['cpu']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, commit {env['commit']}")
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not s["trace"]:
        tail = s["op_ms_tail"]
        print("op_ms_tail = " + ("n/a (fewer than 11 operations)" if tail is None else
              f"{tail['value']:.6g} ms (p{tail['percentile']:.1f} of {tail['samples']} operations)"))
        print(f"op_ms_max = {s['op_ms_max']:.6g} ms (slowest operation; the worst case on solve)")
        raw = s["raw"]
        print(f"# unscaled: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s, "
              f"op_ms_p50 {raw['op_ms_p50']:.6g} ms; calibration kernel {raw['kernel_ms_p50']:.6g} ms "
              f"(reference {1000.0 * calibrate.REFERENCE_S:g} ms)")
        if s["sim_mslot_per_s"] is not None:
            print(f"sim_mslot_per_s = {s['sim_mslot_per_s']:.6g} Mslot/s")
    if s["sim_check_fails"]:
        print(f"# validate rate-vs-simulation checks failed by the suite's own 3-sigma band: "
              f"{s['sim_check_fails']} (accepted within {gate.SIM_CHECK_BAND}x)")
    for line in s["problems"][:20]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn (one report and result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            report = run(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _print_report(report)
        print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
