"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_reference.py

Solves every budget point a solve workload can draw, and every row of the
paper sweep, with the package in ``src/`` and writes ``reference.json``.
Run it only to re-baseline on purpose: the reference defines a correct
answer, so a change that makes the solver faster must not re-record it.
It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from aoii_harq import config, optimizer  # noqa: E402

import workloads  # noqa: E402

FIELDS = ("regime", "n_high", "n_low", "rho_high", "predicted_rate", "predicted_aoii")


def _solve(cfg, budget: float) -> dict:
    sol = optimizer.solve_cmdp(
        budget, cfg.source, cfg.channel, cfg.penalty,
        cfg.solver.series_config(), cfg.solver.lambda_tol, cfg.solver.tail_tol,
    )
    return {field: getattr(sol, field) for field in FIELDS}


def main() -> int:
    solves = {}
    for key, params, budget in workloads.all_solve_points():
        cfg = config.parse_config(workloads.solve_config(params, [budget]))
        solves[key] = _solve(cfg, budget)
        print(key, solves[key]["regime"], flush=True)
    sweep_cfg = config.load_config(str(workloads.CONFIG_DIR / "sweep_paper.json"))
    sweep = [{"R": budget, **_solve(sweep_cfg, budget)} for budget in sweep_cfg.budget_grid]
    out = {"solves": solves, "sweep_paper": sweep}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
