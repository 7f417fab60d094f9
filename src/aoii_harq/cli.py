"""Experiment harness: solve, sweep, simulate, validate, wait-aoii.

Outputs are plot-ready flat files (CSV for sweeps, key = value records
otherwise, JSON for the validation suite), each embedding the resolved
configuration for provenance.  Given the same config and seed, outputs are
byte-identical across runs.

Exit codes: 0 success, 1 validation-suite failure (an unconverged value
iteration included), 2 config error, 3 numerical/truncation failure (a
degenerate transmit kernel included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from math import sqrt

import numpy as np

from . import lagrangian, model, optimizer, rate, rvi, sim
from .config import RunConfig, load_config
from .errors import ConfigError, SolverError

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

SWEEP_COLUMNS = (
    "R", "n_high", "n_low", "rho_high", "rate_analytic", "aoii_analytic",
    "rate_sim", "aoii_sim", "aoii_periodic", "status",
)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _config_header(command: str, cfg: RunConfig) -> list[str]:
    blob = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    return [f"# aoii-harq {command}", f"# config = {blob}"]


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _record_lines(command: str, cfg: RunConfig, fields: list[tuple[str, object]]) -> list[str]:
    lines = _config_header(command, cfg)
    lines.extend(f"{key} = {_fmt(value)}" for key, value in fields)
    return lines


def _solution_fields(sol: optimizer.CmdpSolution) -> list[tuple[str, object]]:
    fields = [
        ("regime", sol.regime),
        ("lambda_star", sol.lambda_star),
        ("n_high", sol.n_high),
        ("n_low", sol.n_low),
        ("rho_high", sol.rho_high),
        ("rate_high", sol.rate_high),
        ("rate_low", sol.rate_low),
        ("predicted_rate", sol.predicted_rate),
        ("predicted_aoii", sol.predicted_aoii),
        ("lambda_iterations", sol.diagnostics.get("lambda_iterations", 0)),
    ]
    return fields


def _solve(cfg: RunConfig, budget: float) -> optimizer.CmdpSolution:
    return optimizer.solve_cmdp(budget, cfg.source, cfg.channel, cfg.penalty, cfg.solver.series_config())


def cmd_solve(cfg: RunConfig, out: str | None) -> int:
    budget = cfg.require_scalar_budget()
    sol = _solve(cfg, budget)
    _emit(_record_lines("solve", cfg, _solution_fields(sol)), out)
    return EXIT_OK


def cmd_wait_aoii(cfg: RunConfig, out: str | None) -> int:
    source = cfg.source
    value = lagrangian.g_wait(source, cfg.penalty, cfg.solver.series_config())
    fields = [
        ("alpha", source.alpha),
        ("mu", source.mu),
        ("waiting_is_optimal", source.mu >= source.alpha),
        ("g_wait", value),
    ]
    _emit(_record_lines("wait-aoii", cfg, fields), out)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: str | None) -> int:
    budget = cfg.require_scalar_budget()
    sol = _solve(cfg, budget)
    policy = optimizer.solution_policy(sol)
    report = sim.replicate(
        policy, cfg.source, cfg.channel, cfg.penalty,
        cfg.sim.horizon, cfg.sim.seed, cfg.sim.n_reps,
    )
    fields = _solution_fields(sol) + [
        ("horizon", report.horizon),
        ("seed", cfg.sim.seed),
        ("n_reps", cfg.sim.n_reps),
        ("avg_aoii", report.avg_aoii),
        ("avg_rate", report.avg_rate),
        ("aoii_stderr", report.aoii_stderr),
        ("rate_stderr", report.rate_stderr),
        ("max_delta_seen", report.max_delta_seen),
        ("decode_successes", report.decode_successes),
    ]
    _emit(_record_lines("simulate", cfg, fields), out)
    return EXIT_OK


def _sweep_row(cfg: RunConfig, budget: float, row_index: int) -> dict[str, object]:
    row: dict[str, object] = {key: "" for key in SWEEP_COLUMNS}
    row["R"] = budget
    try:
        sol = _solve(cfg, budget)
        policy = optimizer.solution_policy(sol)
        row["n_high"] = sol.n_high if sol.n_high is not None else ""
        row["n_low"] = sol.n_low if sol.n_low is not None else ""
        row["rho_high"] = sol.rho_high if sol.rho_high is not None else ""
        row["rate_analytic"] = sol.predicted_rate
        row["aoii_analytic"] = sol.predicted_aoii
        # independent seed pair per row, stable under row-level parallelism
        opt_seed = sim.split_seed(cfg.sim.seed, 2 * row_index)
        per_seed = sim.split_seed(cfg.sim.seed, 2 * row_index + 1)
        opt_report = sim.replicate(
            policy, cfg.source, cfg.channel, cfg.penalty,
            cfg.sim.horizon, opt_seed, cfg.sim.n_reps,
        )
        periodic = sim.replicate(
            sim.Periodic(budget), cfg.source, cfg.channel, cfg.penalty,
            cfg.sim.horizon, per_seed, cfg.sim.n_reps,
        )
        row["rate_sim"] = opt_report.avg_rate
        row["aoii_sim"] = opt_report.avg_aoii
        row["aoii_periodic"] = periodic.avg_aoii
        row["status"] = "ok"
    except SolverError as exc:
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    grid = cfg.grid_or_scalar()
    lines = _config_header("sweep", cfg)
    lines.append(",".join(SWEEP_COLUMNS))
    for i, budget in enumerate(grid):
        row = _sweep_row(cfg, budget, i)
        lines.append(",".join(_fmt(row[key]) if row[key] != "" else "" for key in SWEEP_COLUMNS))
    _emit(lines, out)
    return EXIT_OK


def _checks_for_config(cfg: RunConfig) -> list[dict]:
    source, channel, penalty = cfg.source, cfg.channel, cfg.penalty
    series_cfg = cfg.solver.series_config()
    vset = cfg.validate
    checks: list[dict] = []

    def add(name: str, passed: bool, measured: float, tolerance: float, detail: str = "") -> None:
        checks.append({
            "name": name,
            "status": "pass" if passed else "fail",
            "measured": measured,
            "tolerance": tolerance,
            "detail": detail,
        })

    bounded = model.validate_boundedness(source, channel, penalty)
    add("boundedness-certificate", bounded, float(bounded), 1.0)

    # each checked row of the one-step kernel lists its successor masses, the
    # reset to (0, 0) last: delta = 0 under either action, waiting at
    # delta > 0, and transmitting at counts r <= 8.  A zero mass is no
    # successor.
    g1, g2 = model.gamma_arrays(source, channel, 65)
    rows = [(1.0 - source.alpha, source.alpha), (1.0 - source.mu, source.mu)]
    rows += [(a, b, 1.0 - a - b) for a, b in zip(g1[:9].tolist(), g2[:9].tolist())]
    worst_norm = max(abs(sum(p for p in row if p > 0.0) - 1.0) for row in rows)
    worst_reset = min(max(row[-1], 0.0) for row in rows)
    add("kernel-normalization", worst_norm <= 1e-12, worst_norm, 1e-12)
    add("kernel-reset-reachability", worst_reset > 0.0, worst_reset, 0.0, "P(next=(0,0)) must be positive")

    gsum = float((g1 + g2).max())
    add("gamma-sum-below-one", gsum < 1.0, gsum, 1.0)

    sigmas, _ = lagrangian.sigma_series(source, channel, series_cfg)
    worst_inc = float(np.diff(sigmas).max())
    add("sigma-strictly-decreasing", worst_inc < 0.0, worst_inc, 0.0)

    if not bounded:
        return checks

    rvi_cfg = vset.rvi_config(channel)

    if source.mu < source.alpha:
        for lam in vset.lambdas:
            n_closed = lagrangian.optimal_threshold(lam, source, channel, penalty, series_cfg)
            sol = rvi.rvi_solve(lam, source, channel, penalty, rvi_cfg)
            # an unconverged table has no thresholds to read
            thresholds = rvi.extract_thresholds(sol) if sol.converged else {}
            n_oracle = thresholds.get(0)
            add(
                f"threshold-cross-oracle[lam={_fmt(lam)}]",
                sol.converged and n_closed == n_oracle,
                float(-1 if n_closed is None else n_closed),
                float(-1 if n_oracle is None else n_oracle),
                f"closed-form {n_closed} vs value-iteration {n_oracle}",
            )
            # monotone in r only where p(r) is non-decreasing, i.e. per round
            non_increasing = sol.converged
            for segment in rvi.monotone_segments(channel, rvi_cfg.r_cap):
                per_r = [thresholds[r] for r in segment if r in thresholds]
                non_increasing &= all(b <= a for a, b in zip(per_r, per_r[1:]))
            add(f"thresholds-nonincreasing-r[lam={_fmt(lam)}]", non_increasing, 0.0, 0.0)
            grid = sol.values[1:, 0]
            mono = float(np.diff(grid).min())
            add(f"value-increasing-delta[lam={_fmt(lam)}]", mono > 0.0, mono, 0.0)
            g_closed = lagrangian.g_for_threshold(
                n_closed, lam, source, channel, penalty, series_cfg
            )
            rel = abs(g_closed - sol.g) / max(abs(sol.g), 1e-30)
            add(f"g-cross-oracle[lam={_fmt(lam)}]", rel <= 1e-4, rel, 1e-4)
        n_star = lagrangian.optimal_threshold(0.0, source, channel, penalty, series_cfg)
        g0 = lagrangian.g_for_threshold(n_star, 0.0, source, channel, penalty, series_cfg)
        v1 = lagrangian.value_at(1, n_star, 0.0, g0, source, channel, penalty, series_cfg)
        gap = abs(g0 - (penalty(0) + (1.0 - source.alpha) * v1))
        add("identity-g-f0-V10", gap <= 1e-9, gap, 1e-9)
    else:
        sol = rvi.rvi_solve(0.0, source, channel, penalty, rvi_cfg)
        all_wait = not bool(sol.greedy_transmit.any())
        add("rvi-all-wait", sol.converged and all_wait, float(sol.greedy_transmit.sum()), 0.0)
        gw = lagrangian.g_wait(source, penalty, series_cfg)
        rel = abs(sol.g - gw) / max(abs(gw), 1e-30)
        add("gwait-cross-oracle", rel <= 1e-4, rel, 1e-4)

    for n0 in vset.thresholds:
        analysis = rate.achieved_rate(n0, source, channel, series_cfg)
        deltas, _, probs = analysis.stationary_arrays
        gap = abs(analysis.rate - float(probs[deltas >= n0].sum()))
        add(f"rate-vs-stationary-mass[n0={n0}]", gap <= 1e-9, gap, 1e-9)
        norm_gap = abs(float(probs.sum()) + analysis.truncation_mass - 1.0)
        add(f"stationary-normalization[n0={n0}]", norm_gap <= 1e-9, norm_gap, 1e-9)
        report = sim.simulate(
            sim.FixedThreshold(n0), source, channel, penalty, cfg.sim.horizon, cfg.sim.seed
        )
        # transmissions of a threshold policy are autocorrelated: take the
        # batch-means stderr, floored by the i.i.d. binomial one
        iid_se = sqrt(max(analysis.rate * (1.0 - analysis.rate), 1e-12) / cfg.sim.horizon)
        se = max(iid_se, report.rate_stderr)
        gap = abs(report.avg_rate - analysis.rate)
        add(f"rate-vs-simulation[n0={n0}]", gap <= 3.0 * se, gap, 3.0 * se)
    return checks


def cmd_validate(cfg: RunConfig, out: str | None) -> int:
    checks = _checks_for_config(cfg)
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"config": cfg.resolved, "checks": checks, "passed": passed}
    _emit([json.dumps(payload, sort_keys=True, indent=2)], out)
    return EXIT_OK if passed else EXIT_VALIDATION_FAILED


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoii-harq",
        description="Budget-constrained AoII scheduling: solver, oracle and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the constrained problem and emit the optimal policy"),
        ("sweep", "solve + simulate across a budget grid, emit CSV"),
        ("simulate", "solve, then Monte Carlo the optimal policy"),
        ("validate", "run the cross-oracle validation suite"),
        ("wait-aoii", "closed-form average AoII of the never-transmit policy"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override sim.seed")
        cmd.add_argument("--reps", type=int, default=None, help="override sim.n_reps")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        flags = {"seed": args.seed, "n_reps": args.reps}
        overrides = {key: value for key, value in flags.items() if value is not None}
        try:
            cfg = replace(cfg, sim=replace(cfg.sim, **overrides))
        except ValueError as exc:
            raise ConfigError("sim", str(exc)) from exc
        handler = {
            "solve": cmd_solve,
            "sweep": cmd_sweep,
            "simulate": cmd_simulate,
            "validate": cmd_validate,
            "wait-aoii": cmd_wait_aoii,
        }[args.command]
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
