"""Strict JSON run-configuration schema for the command-line harness.

Physical parameters (alpha, p_e, c, the penalty, the budget) must be explicit;
only tolerances and simulation bookkeeping carry engineering defaults.
Unknown keys anywhere are rejected so typos cannot silently fall back to a
default.  Each optional settings section is read through its dataclass: a
field takes the type of its default, and the dataclass checks its range.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .errors import ConfigError
from .lagrangian import SeriesConfig
from .model import ChannelModel, PenaltySpec, SourceModel
from .rvi import RviConfig


@dataclass(frozen=True)
class SolverSettings:
    """tail_tol is the one cut on the sigma series (its first term below it),
    and with weighted_epsilon and l_cap it forms the solve's SeriesConfig;
    lambda_tol is checked but unused."""

    weighted_epsilon: float = SeriesConfig.weighted_epsilon
    l_cap: int = SeriesConfig.l_cap
    lambda_tol: float = 1e-6
    tail_tol: float = SeriesConfig.epsilon

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_tol < 1.0:  # a cut on sigma terms, which start at 1
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        self.series_config()  # checks weighted_epsilon and l_cap
        if not self.lambda_tol > 0.0:
            raise ValueError(f"lambda_tol must be positive, got {self.lambda_tol}")

    def series_config(self) -> SeriesConfig:
        return SeriesConfig(self.tail_tol, self.weighted_epsilon, self.l_cap)


@dataclass(frozen=True)
class SimSettings:
    horizon: int = 100_000
    seed: int = 0
    n_reps: int = 1

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.n_reps < 1:
            raise ValueError(f"horizon and n_reps must be >= 1, got {self.horizon} and {self.n_reps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ValidateSettings(RviConfig):
    """Controls for the cross-oracle validation suite: the RVI grid and
    tolerances, and the prices and thresholds it checks."""

    lambdas: tuple[float, ...] = (0.0, 1.0, 5.0)
    thresholds: tuple[int, ...] = (1, 2, 5)

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.lambdas) < 0.0 or min(self.thresholds) < 1:
            raise ValueError(
                f"lambdas must be >= 0 and thresholds >= 1, "
                f"got {list(self.lambdas)} and {list(self.thresholds)}"
            )

    def rvi_config(self, channel) -> RviConfig:
        if channel.round_length is not None and channel.round_length >= self.r_cap:
            return replace(self, r_cap=channel.round_length + 1)
        return self


@dataclass(frozen=True)
class RunConfig:
    source: SourceModel
    channel: ChannelModel
    penalty: PenaltySpec
    budget: float | None
    budget_grid: tuple[float, ...] | None
    solver: SolverSettings
    sim: SimSettings
    validate: ValidateSettings
    raw: dict

    @property
    def resolved(self) -> dict:
        """The raw config with the channel, solver and sim defaults filled in,
        used as the provenance header."""
        return {
            **self.raw,
            "channel": {"r_max": None, "combining": "soft", **self.raw["channel"]},
            "solver": asdict(self.solver),
            "sim": asdict(self.sim),
        }

    def require_scalar_budget(self) -> float:
        if self.budget is None:
            raise ConfigError("budget.R", "this command needs a scalar budget R")
        return self.budget

    def grid_or_scalar(self) -> tuple[float, ...]:
        if self.budget_grid is not None:
            return self.budget_grid
        return (self.require_scalar_budget(),)


def _check_keys(section: dict, path: str, allowed) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _number(value, path: str, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if integer:
        if not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    return float(value)


def _num(section: dict, path: str, key: str, integer: bool = False):
    if key not in section:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return _number(section[key], f"{path}.{key}", integer)


def _build_source(section) -> SourceModel:
    if not isinstance(section, dict):
        raise ConfigError("source", "expected an object")
    _check_keys(section, "source", ("alpha", "mu", "n_states"))
    alpha = _num(section, "source", "alpha")
    has_mu, has_n = "mu" in section, "n_states" in section
    if has_mu == has_n:
        raise ConfigError("source", "specify exactly one of mu, n_states")
    try:
        if has_mu:
            return SourceModel(alpha=alpha, mu=_num(section, "source", "mu"))
        return SourceModel.from_states(alpha, _num(section, "source", "n_states", integer=True))
    except ValueError as exc:
        raise ConfigError("source", str(exc)) from exc


def _build_channel(section) -> ChannelModel:
    if not isinstance(section, dict):
        raise ConfigError("channel", "expected an object")
    _check_keys(section, "channel", ("p_e", "c", "r_max", "combining"))
    p_e = _num(section, "channel", "p_e")
    c = _num(section, "channel", "c")
    r_max = section.get("r_max", None)
    if r_max is not None:
        r_max = _num(section, "channel", "r_max", integer=True)
    combining = section.get("combining", "soft")
    if not isinstance(combining, str):
        raise ConfigError("channel.combining", f"expected a string, got {combining!r}")
    try:
        return ChannelModel(p_e=p_e, c=c, r_max=r_max, combining=combining)
    except ValueError as exc:
        raise ConfigError("channel", str(exc)) from exc


def _build_penalty(section) -> PenaltySpec:
    if not isinstance(section, dict):
        raise ConfigError("penalty", "expected an object")
    _check_keys(section, "penalty", ("kind", "exponent", "values"))
    kind = section.get("kind")
    if kind not in ("linear", "power", "table"):
        raise ConfigError("penalty.kind", f"expected linear, power or table, got {kind!r}")
    try:
        if kind == "linear":
            if set(section) - {"kind"}:
                raise ConfigError("penalty", "linear penalty takes no parameters")
            return PenaltySpec.linear()
        if kind == "power":
            return PenaltySpec.power(_num(section, "penalty", "exponent"))
        values = section.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("penalty.values", "expected a non-empty list")
        return PenaltySpec.from_table(values)
    except ValueError as exc:
        raise ConfigError("penalty", str(exc)) from exc


def _build_budget(section) -> tuple[float | None, tuple[float, ...] | None]:
    if not isinstance(section, dict):
        raise ConfigError("budget", "expected an object")
    _check_keys(section, "budget", ("R", "R_grid"))
    has_r, has_grid = "R" in section, "R_grid" in section
    if has_r == has_grid:
        raise ConfigError("budget", "specify exactly one of R, R_grid")
    if has_r:
        r = _num(section, "budget", "R")
        if not 0.0 < r <= 1.0:
            raise ConfigError("budget.R", f"must lie in (0, 1], got {r}")
        return r, None
    grid = section["R_grid"]
    if not isinstance(grid, list) or len(grid) == 0:
        raise ConfigError("budget.R_grid", "expected a non-empty list")
    values = []
    for i, v in enumerate(grid):
        v = _number(v, f"budget.R_grid[{i}]")
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"budget.R_grid[{i}]", f"must lie in (0, 1], got {v}")
        values.append(v)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("budget.R_grid", "values must be strictly increasing")
    return None, tuple(values)


def _typed(value, default, path: str):
    """value read with the type of default: an integer, a number, or a
    non-empty list of either."""
    if isinstance(default, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty list")
        return tuple(_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    return _number(value, path, integer=isinstance(default, int))


def _build_settings(cls, section, path: str):
    if section is None:
        return cls()
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    defaults = vars(cls())
    _check_keys(section, path, defaults)
    values = {key: _typed(value, defaults[key], f"{path}.{key}") for key, value in section.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "expected a JSON object")
    allowed = ("source", "channel", "penalty", "budget", "solver", "sim", "validate")
    _check_keys(data, "<root>", allowed)
    for required in ("source", "channel", "penalty", "budget"):
        if required not in data:
            raise ConfigError(required, "required section is missing")
    budget, grid = _build_budget(data["budget"])
    return RunConfig(
        source=_build_source(data["source"]),
        channel=_build_channel(data["channel"]),
        penalty=_build_penalty(data["penalty"]),
        budget=budget,
        budget_grid=grid,
        solver=_build_settings(SolverSettings, data.get("solver"), "solver"),
        sim=_build_settings(SimSettings, data.get("sim"), "sim"),
        validate=_build_settings(ValidateSettings, data.get("validate"), "validate"),
        raw=data,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)
