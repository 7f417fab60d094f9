"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped function is replaced under every name a caller looks it up by:
``optimizer`` imports ``achieved_rate``, ``optimal_threshold``,
``g_for_threshold`` and ``mixed_chain_analysis`` by name, ``lagrangian``,
``rate`` and ``rvi`` import ``gamma`` by name, ``sim.replicate`` calls the
module-global ``simulate``, and the package root re-exports most of them.  So
the tracer scans every module namespace for the original function object and
swaps in the wrapper wherever it appears.

A span is (name, start, end, parent span, operation id).  Counters are bumped
at the same boundaries.  Self time is derived after the run: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

MODULES = ("model", "lagrangian", "rate", "optimizer", "sim", "rvi", "config", "cli")

# Functions that get a span: their calls, total and self time are reported.
SPANNED = (
    "model.validate_boundedness",
    "lagrangian.optimal_threshold",
    "lagrangian.g_for_threshold",
    "lagrangian.value_at",
    "lagrangian.g_wait",
    "lagrangian.sigma_series",
    "rate.achieved_rate",
    "rate.m_table",
    "rate.mixed_chain_analysis",
    "optimizer.solve_cmdp",
    "sim.simulate",
    "sim.replicate",
    "rvi.rvi_solve",
    "config.load_config",
    "cli.main",
)

# Counters, with their unit and direction.
DERIVED = (
    ("model.gamma.calls", "count", "lower"),
    ("lagrangian.sigma_steps", "count", "lower"),
    ("optimizer.lambda_evals", "count", "lower"),
    ("optimizer.distinct_threshold_ratio", "ratio", "higher"),
    ("rate.achieved_rate.stationary_entries", "count", "lower"),
    ("rate.achieved_rate.stationary_entries_max", "count", "lower"),
    ("sim.slots", "count", "higher"),
    ("sim.mslot_per_s.threshold", "Mslot/s", "higher"),
    ("sim.mslot_per_s.periodic", "Mslot/s", "higher"),
    ("rvi.sweeps", "count", "lower"),
    ("rvi.sweeps_per_s", "1/s", "higher"),
    ("rvi.unconverged", "count", "lower"),
    ("cli.validate.sim_check_fails", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPANNED:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    return specs + list(DERIVED)


class Tracer:
    """Records spans and counters while installed; restores the package on uninstall."""

    def __init__(self, package):
        self._package = package
        self._modules = [package] + [getattr(package, m) for m in MODULES]
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for qualname in SPANNED:
            module, name = qualname.split(".")
            original = getattr(getattr(self._package, module), name)
            self._replace(original, self._span_wrapper(qualname, original, _HOOKS.get(qualname)))
        # gamma and SigmaSeries.step are only counted: they run up to millions
        # of times per solve, and a span per call would cost more than the call.
        gamma = self._package.model.gamma
        self._replace(gamma, self._count_wrapper("model.gamma.calls", gamma))
        series = self._package.lagrangian.SigmaSeries
        self._patched.append((series, "step", series.step))
        series.step = self._count_wrapper("lagrangian.sigma_steps", series.step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _replace(self, original, wrapper) -> None:
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _count_wrapper(self, counter: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, original, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counters, args, kwargs, result, end - start)
            return result

        return wrapped

    # -- reporting --------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-function calls, total and self time, plus derived counters."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        c = self.counters
        out["model.gamma.calls"] = int(c["model.gamma.calls"])
        out["lagrangian.sigma_steps"] = int(c["lagrangian.sigma_steps"])
        evals = c["optimizer.lambda_evals"]
        out["optimizer.lambda_evals"] = int(evals)
        out["optimizer.distinct_threshold_ratio"] = c["optimizer.distinct_thresholds"] / evals if evals else 0.0
        out["rate.achieved_rate.stationary_entries"] = int(c["rate.stationary_entries"])
        out["rate.achieved_rate.stationary_entries_max"] = int(c["rate.stationary_entries_max"])
        out["sim.slots"] = int(c["sim.slots.threshold"] + c["sim.slots.periodic"])
        for kind in ("threshold", "periodic"):
            busy = c[f"sim.s.{kind}"]
            out[f"sim.mslot_per_s.{kind}"] = c[f"sim.slots.{kind}"] / busy / 1e6 if busy else 0.0
        out["rvi.sweeps"] = int(c["rvi.sweeps"])
        rvi_s = out["rvi.rvi_solve.s"]
        out["rvi.sweeps_per_s"] = c["rvi.sweeps"] / rvi_s if rvi_s else 0.0
        out["rvi.unconverged"] = int(c["rvi.unconverged"])
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{op}\n")


# -- counters taken from return values -------------------------------------
def _on_solve(c, args, kwargs, sol, seconds) -> None:
    trace = sol.diagnostics.get("lambda_trace", ())
    c["optimizer.lambda_evals"] += sol.diagnostics.get("lambda_iterations", 0)
    c["optimizer.distinct_thresholds"] += len({n0 for _, n0, _ in trace})


def _on_rate(c, args, kwargs, analysis, seconds) -> None:
    entries = len(analysis.stationary)
    c["rate.stationary_entries"] += entries
    c["rate.stationary_entries_max"] = max(c["rate.stationary_entries_max"], entries)


def _on_simulate(c, args, kwargs, report, seconds) -> None:
    policy = args[0] if args else kwargs["policy"]
    kind = "periodic" if type(policy).__name__ == "Periodic" else "threshold"
    if isinstance(report, tuple):  # keep_trajectory=True
        report = report[0]
    c[f"sim.slots.{kind}"] += report.horizon
    c[f"sim.s.{kind}"] += seconds


def _on_rvi(c, args, kwargs, sol, seconds) -> None:
    c["rvi.sweeps"] += sol.iterations
    c["rvi.unconverged"] += not sol.converged


_HOOKS = {
    "optimizer.solve_cmdp": _on_solve,
    "rate.achieved_rate": _on_rate,
    "sim.simulate": _on_simulate,
    "rvi.rvi_solve": _on_rvi,
}
