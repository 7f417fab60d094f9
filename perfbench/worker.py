"""Child process that imports the package, loads the configs and runs a plan.

Run by run.py in a fresh interpreter per measurement, so set-up time and
peak resident memory belong to this workload alone:

    python3 perfbench/worker.py PLAN.json [--setup-only]

With --setup-only it prints the set-up time and the calibration kernel's
time just after it, and exits.  Otherwise it runs the plan's operations in
order, round and round, until the time budget is spent (always at least one
whole pass), times the calibration kernel after every operation, and writes
``result.json`` next to the plan.  With tracing on, one traced pass follows
the first untraced pass and records spans and counters.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (imports numpy, which the package imports anyway)

SETUP_KERNEL_WARM = 3
SETUP_KERNEL_CALLS = 15


def _solve_op(pkg, cfgs, op):
    cfg = cfgs[op["config"]]
    sol = pkg.optimizer.solve_cmdp(
        op["R"], cfg.source, cfg.channel, cfg.penalty,
        cfg.solver.series_config(), cfg.solver.lambda_tol, cfg.solver.tail_tol,
    )
    return {
        "regime": sol.regime,
        "n_high": sol.n_high,
        "n_low": sol.n_low,
        "rho_high": sol.rho_high,
        "predicted_rate": sol.predicted_rate,
        "predicted_aoii": sol.predicted_aoii,
        "lambda_iterations": sol.diagnostics.get("lambda_iterations", 0),
    }


def _cli_op(command):
    def run(pkg, paths, op):
        out = paths["out"][op["config"]]
        code = pkg.cli.main([command, "--config", paths["configs"][op["config"]],
                             "--seed", str(op["seed"]), "--out", out])
        return {"exit_code": code, "text": Path(out).read_text(encoding="utf-8")}
    return run


def _run_op(pkg, operate, inputs, op):
    """(seconds, output) of one operation."""
    start = time.perf_counter()
    try:
        output = operate(pkg, inputs, op)
    except (pkg.SolverError, ValueError) as exc:
        output = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - start, output


def _setup_kernel() -> float:
    """Median kernel time just after set-up (the first calls warm it)."""
    for _ in range(SETUP_KERNEL_WARM):
        calibrate.timed()
    return statistics.median(calibrate.timed() for _ in range(SETUP_KERNEL_CALLS))


def main(argv) -> int:
    plan_path = Path(argv[0])
    plan = json.loads(plan_path.read_text())
    sys.path.insert(0, plan["src"])
    import aoii_harq as pkg  # the package under test
    from aoii_harq import cli, config  # noqa: F401  (binds pkg.cli and pkg.config)

    tracer = None
    if plan["trace"] and "--setup-only" not in argv:
        from tracer import Tracer
        tracer = Tracer(pkg)
        tracer.install()  # load_config spans count as set-up (operation -1)
    cfgs = [pkg.config.load_config(p) for p in plan["config_paths"]]
    setup_s = time.perf_counter() - T0
    setup_kernel_s = _setup_kernel()
    if "--setup-only" in argv:
        print(json.dumps([setup_s, setup_kernel_s]))
        return 0

    if plan["kind"] == "solve":
        operate, inputs = _solve_op, cfgs
    else:
        operate = _cli_op(plan["kind"])
        inputs = {"configs": plan["config_paths"], "out": plan["out_paths"]}
    ops = plan["ops"]
    deadline = time.perf_counter() + plan["seconds"]

    runs = {"op": [], "seconds": [], "kernel_s": [], "outputs": []}
    by_op = [[] for _ in ops]
    if tracer is not None:
        tracer.uninstall()
    index = 0
    while True:
        seconds, output = _run_op(pkg, operate, inputs, ops[index])
        runs["op"].append(index)
        runs["seconds"].append(seconds)
        runs["kernel_s"].append(calibrate.timed())
        runs["outputs"].append(output)
        by_op[index].append(seconds)
        index = (index + 1) % len(ops)
        if index == 0 and tracer is not None and len(runs["op"]) == len(ops):
            tracer.install()
            traced = []
            for number, op in enumerate(ops):
                tracer.op = number
                traced.append(_run_op(pkg, operate, inputs, op))
            tracer.uninstall()
        # after the first pass, start an operation only if it is expected to
        # end within the budget
        if len(runs["op"]) >= len(ops) and time.perf_counter() + statistics.median(by_op[index]) > deadline:
            break

    result = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        **runs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"numpy": sys.modules["numpy"].__version__, "scipy": sys.modules["scipy"].__version__},
    }
    if tracer is not None:
        result.update(traced_wall=sum(t for t, _ in traced), traced_outputs=[out for _, out in traced],
                      layers=tracer.summary())
        tracer.write_spans(plan_path.parent / "spans.csv")
    (plan_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
