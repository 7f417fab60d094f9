"""The three workloads and the inputs each one draws from its seed.

The package never sees the seed: it sees only the generated budgets, config
files and ``--seed`` arguments, which the runner records next to the results.

- solve: ``solve_cmdp`` along the budget curves of the six paper figure
  families (``FIGURE_CONFIGS`` in tests/test_acceptance.py), the typical
  solve, plus one worst-case solve (p_e = 0.9, N = 128, r_max = 0) whose
  ``achieved_rate`` truncation reaches 1.3e5 stationary entries, so peak
  memory moves here.  Lagrangian, rate and optimizer do all the work.
- sweep_paper: ``aoii-harq sweep`` on the paper config through ``cli.main``,
  one command per row of its budget grid.  The simulator does most of the
  work, for threshold/mixed policies (which regenerate at (0,0)) and for
  ``Periodic`` (which does not).
- validate_grid: ``aoii-harq validate`` over a config grid.  The only
  workload that runs the RVI oracle and reads the stationary law.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

WORKLOADS = ("solve", "sweep_paper", "validate_grid")

# (alpha, N, p_e, c, r_max), as in tests/test_acceptance.py::FIGURE_CONFIGS.
FIGURE_FAMILIES = {
    "fig3": (0.5, 16, 0.5, 0.5, 2),
    "fig4": (0.5, 128, 0.5, 0.5, 2),
    "fig5": (0.5, 16, 0.5, 0.5, None),
    "fig6": (0.5, 128, 0.5, 0.5, None),
    "fig7": (0.2, 128, 0.5, 0.5, 2),
    "fig8": (0.8, 128, 0.5, 0.5, 2),
}
# Budget cell k covers k/10 + 0.057 .. k/10 + 0.063; the seed picks one of its
# seven points, so every budget a seed can produce has a recorded reference.
# The cells avoid each family's regime boundary (the rate of the lambda = 0
# threshold: 0.298, 0.630, 0.640 and 0.881), so a seed moves the budgets but
# not the mix of mixed and pure-threshold solves, which sets op_ms_p50.  The
# cells are narrow so that the seed moves the work of a pass little: with
# cells 0.03 wide, the solve times a seed drew spread op_ms_p50 by 20%.
FIGURE_CELLS = 10
CELL_POINTS = 7

# Worst case: p_e = 0.9, N = 128, r_max = 0, the deepest stationary
# truncation (about 1.3e5 entries); one solve of 4-5 s per pass.
CORNER_POINT = ("corner_a5_r0", (0.5, 128, 0.9, 0.5, 0))
CORNER_BUDGETS = (0.06, 0.062, 0.064, 0.066, 0.068, 0.07)


# validate_grid: alpha x N x p_e x r_max, plus the waiting-regime source.
VALIDATE_GRID = list(itertools.product((0.2, 0.5, 0.8), (2, 16, 128), (0.1, 0.9), (2, None)))
VALIDATE_SECTION = {"lambdas": [0.0, 1.0, 5.0, 20.0]}
VALIDATE_HORIZON = 20_000


def figure_budget(cell: int, point: int) -> float:
    return round(cell / FIGURE_CELLS + 0.057 + 0.001 * point, 3)


def solve_key(name: str, budget: float) -> str:
    return f"{name}@{budget:g}"


def solve_config(params, budgets) -> dict:
    alpha, n_states, p_e, c, r_max = params
    return {
        "source": {"alpha": alpha, "n_states": n_states},
        "channel": {"p_e": p_e, "c": c, "r_max": r_max, "combining": "soft"},
        "penalty": {"kind": "linear"},
        "budget": {"R_grid": list(budgets)},
    }


def _validate_config(source: dict, channel: dict, penalty: dict) -> dict:
    return {
        "source": source,
        "channel": channel,
        "penalty": penalty,
        "budget": {"R": 0.5},
        "sim": {"horizon": VALIDATE_HORIZON, "seed": 0, "n_reps": 1},
        "validate": dict(VALIDATE_SECTION),
    }


def validate_configs() -> list[tuple[str, dict]]:
    """The fixed config set of validate_grid (the seed only sets --seed)."""
    out = []
    for alpha, n_states, p_e, r_max in VALIDATE_GRID:
        name = f"a{alpha}_n{n_states}_pe{p_e}_r{'inf' if r_max is None else r_max}"
        out.append((name, _validate_config(
            {"alpha": alpha, "n_states": n_states},
            {"p_e": p_e, "c": 0.5, "r_max": r_max, "combining": "soft"},
            {"kind": "linear"},
        )))
    waiting = json.loads((CONFIG_DIR / "waiting_source.json").read_text())
    out.append(("waiting_source", _validate_config(waiting["source"], waiting["channel"], waiting["penalty"])))
    return out


def generate(workload: str, seed: int) -> dict:
    """Inputs of one run: named config dicts and the operations over them.

    Solve operations carry their budget and reference key; sweep and validate
    operations carry the ``--seed`` passed to the command, and sweep
    operations the row of the paper grid they run.
    """
    rng = random.Random(f"{workload}:{seed}")
    configs: list[tuple[str, dict]] = []
    ops: list[dict] = []
    if workload == "solve":
        families = [(name, params, [figure_budget(k, rng.randrange(CELL_POINTS)) for k in range(FIGURE_CELLS)])
                    for name, params in FIGURE_FAMILIES.items()]
        families.append((*CORNER_POINT, [rng.choice(CORNER_BUDGETS)]))
        by_cell = []
        for name, params, budgets in families:
            by_cell += [(k, {"config": len(configs), "R": b, "key": solve_key(name, b)})
                        for k, b in enumerate(budgets)]
            configs.append((name, solve_config(params, budgets)))
        # Interleave the families cell by cell, so the solves that set the
        # median are spread over the pass instead of sharing a few seconds of
        # machine noise.
        ops = [op for _, op in sorted(by_cell, key=lambda item: item[0])]
    elif workload == "sweep_paper":
        paper = json.loads((CONFIG_DIR / "sweep_paper.json").read_text())
        for row, budget in enumerate(paper["budget"]["R_grid"]):
            configs.append((f"sweep_R{budget:g}", {**paper, "budget": {"R_grid": [budget]}}))
            ops.append({"config": row, "row": row, "seed": rng.randrange(2**31)})
    elif workload == "validate_grid":
        configs = validate_configs()
        ops = [{"config": i, "seed": rng.randrange(2**31)} for i in range(len(configs))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    kind = workload.split("_")[0]
    return {"workload": workload, "seed": seed, "kind": kind, "configs": configs, "ops": ops}


def all_solve_points():
    """Every (key, params, budget) the solve workload can draw, for the reference."""
    for name, params in FIGURE_FAMILIES.items():
        for cell in range(FIGURE_CELLS):
            for point in range(CELL_POINTS):
                budget = figure_budget(cell, point)
                yield solve_key(name, budget), params, budget
    name, params = CORNER_POINT
    for budget in CORNER_BUDGETS:
        yield solve_key(name, budget), params, budget
