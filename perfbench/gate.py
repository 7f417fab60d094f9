"""Correctness gate: a fast but wrong result counts as a failed operation.

Solves and the sweep's analytic columns are compared with reference values
recorded by ``record_reference.py``.  Simulated columns are judged
statistically, so a simulator that draws its random numbers differently
still passes when its estimates are right.
"""

from __future__ import annotations

import csv
import json

RHO_TOL = 1e-9          # absolute, on rho_high
AOII_RTOL = 1e-9        # relative, on predicted / analytic AoII
RATE_SLACK = 1e-9       # predicted rate may exceed the budget by this much

# Sweep simulated columns (4 reps x 100k slots per policy and row).  Over 24
# seeds x 10 rows the largest deviations were 1.3% (AoII, relative) and
# 2.8e-3 (rate, absolute), about three standard errors; the bands below sit
# near seven.
SWEEP_AOII_RTOL = 0.03
SWEEP_RATE_ATOL = 7e-3

# The validate suite's rate-vs-simulation check uses a 3-sigma band built on
# an i.i.d. standard error, but transmissions of a threshold policy are
# autocorrelated: the true deviation is up to 2.6x larger, so the check fails
# on about 4% of seeds per check.  The gate counts those failures separately
# and accepts a gap of up to five times the suite's tolerance (over 5 true
# standard deviations).
SIM_CHECK_PREFIX = "rate-vs-simulation"
SIM_CHECK_BAND = 5.0


def _close(a, b, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def check_solve(out: dict, ref: dict, budget: float) -> list[str]:
    """Problems of one solve against its reference; empty when correct."""
    problems = []
    for field in ("regime", "n_high", "n_low"):
        if out[field] != ref[field]:
            problems.append(f"{field} {out[field]!r} != reference {ref[field]!r}")
    rho, rho_ref = out["rho_high"], ref["rho_high"]
    if (rho is None) != (rho_ref is None) or (rho is not None and abs(rho - rho_ref) > RHO_TOL):
        problems.append(f"rho_high {rho!r} differs from reference {rho_ref!r} by more than {RHO_TOL}")
    if not _close(out["predicted_aoii"], ref["predicted_aoii"], AOII_RTOL):
        problems.append(f"predicted_aoii {out['predicted_aoii']!r} != reference {ref['predicted_aoii']!r}")
    if not out["predicted_rate"] <= budget + RATE_SLACK:
        problems.append(f"predicted_rate {out['predicted_rate']!r} exceeds budget {budget}")
    return problems


def _cell(value: str):
    if value == "":
        return None
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def parse_sweep(csv_text: str) -> list[dict]:
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def check_sweep(csv_text: str, ref_rows: list[dict]) -> list[str]:
    """Problems of one sweep output: analytic columns against the reference,
    simulated columns against the analytic ones."""
    rows = parse_sweep(csv_text)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        tag = f"R={ref['R']}"
        if row["status"] != "ok":
            problems.append(f"{tag}: status {row['status']}")
            continue
        solved = {"regime": ref["regime"], "n_high": row["n_high"], "n_low": row["n_low"],
                  "rho_high": row["rho_high"], "predicted_rate": row["rate_analytic"],
                  "predicted_aoii": row["aoii_analytic"]}
        problems += [f"{tag}: {p}" for p in check_solve(solved, ref, ref["R"])]
        if not _close(row["aoii_sim"], row["aoii_analytic"], SWEEP_AOII_RTOL):
            problems.append(f"{tag}: aoii_sim {row['aoii_sim']} vs analytic {row['aoii_analytic']}")
        if abs(row["rate_sim"] - row["rate_analytic"]) > SWEEP_RATE_ATOL:
            problems.append(f"{tag}: rate_sim {row['rate_sim']} vs analytic {row['rate_analytic']}")
        if not row["aoii_periodic"] >= row["aoii_analytic"]:
            problems.append(f"{tag}: periodic AoII {row['aoii_periodic']} below optimal {row['aoii_analytic']}")
    return problems


def check_validate(exit_code: int, json_text: str) -> tuple[list[str], int]:
    """(problems, failed rate-vs-simulation checks) of one validate run.

    Every check must pass, except that a rate-vs-simulation check is judged
    against SIM_CHECK_BAND times its own tolerance.
    """
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], 0
    payload = json.loads(json_text)
    problems = []
    sim_fails = 0
    for check in payload["checks"]:
        if check["status"] == "pass":
            continue
        if check["name"].startswith(SIM_CHECK_PREFIX):
            sim_fails += 1
            if check["measured"] <= SIM_CHECK_BAND * check["tolerance"]:
                continue
        problems.append(f"{check['name']}: {check['status']} ({check['measured']} vs {check['tolerance']})")
    if payload["passed"] != (exit_code == 0) or payload["passed"] != (sim_fails == 0 and not problems):
        problems.append(f"passed={payload['passed']} disagrees with exit code {exit_code} or the checks")
    return problems, sim_fails
