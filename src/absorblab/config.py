"""Flat key/value experiment configuration with a strict schema.

Config files are plain text: one ``key = value`` pair per line, ``#``
comments, blank lines ignored.  Every scenario has a closed schema; an
unknown key is a hard error (a silently ignored typo in ``alpha`` or
``growth_constant`` would invalidate a whole experiment).  All keys carry
defaults, so an absent config file runs the documented desk-scale setup.

Values round-trip losslessly: floats are rendered with 17 significant
digits and parse back bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

@dataclass(frozen=True)
class Field:
    kind: str                 # float | int | str | float_list
    default: object
    choices: tuple = ()
    positive: bool = False
    nonempty: bool = False


_COMMON = {
    "family": Field("str", "log_power", choices=("log_power", "power")),
    "alpha": Field("float", 1.5, positive=True),
    "p": Field("float", 2.0, positive=True),
    "dimension": Field("int", 1, positive=True),
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "conditions": {**_COMMON},
    "flat-ode": {
        **_COMMON,
        "a_list": Field("float_list", (0.5, 1.0, 10.0), positive=True, nonempty=True),
        "t_max": Field("float", 1.0, positive=True),
        "time_points": Field("int", 101, positive=True),
    },
    "stationary": {
        **_COMMON,
        "a_list": Field("float_list", (1.0, 2.0), positive=True, nonempty=True),
        "r_max": Field("float", 10.0, positive=True),
        "grid_points": Field("int", 513, positive=True),
        "bound_radii": Field("float_list", (1.0, 2.0, 4.0), positive=True, nonempty=True),
    },
    "theorem-b": {
        **_COMMON,
        "a_list": Field("float_list", (2.0, 4.0, 8.0), positive=True, nonempty=True),
        "n_list": Field("float_list", (4.0, 6.0, 8.0), positive=True, nonempty=True),
        "growth_constant": Field("float", 0.0078125, positive=True),
        "growth_power": Field("float", 4.0, positive=True),
        "h": Field("float", 0.025, positive=True),
        "dt_max": Field("float", 1e-3, positive=True),
        "t_checks": Field("float_list", (0.25, 0.5), positive=True, nonempty=True),
        "domination": Field("str", "warn", choices=("warn", "require")),
    },
    "theorem-c": {
        **_COMMON,
        "n_list": Field("float_list", (3.0, 4.0, 5.0, 6.0), positive=True, nonempty=True),
        "r_out": Field("float", 9.0, positive=True),
        "growth_constant": Field("float", 2.0, positive=True),
        "growth_power": Field("float", 4.0, positive=True),
        "h": Field("float", 0.025, positive=True),
        # data reaches ln(1+u) = 2*6^4; backward Euler under-damps once
        # dt*h(u) >> 1, so the step must stay small for the field to hold
        # below the flat envelope
        "dt_max": Field("float", 2e-5, positive=True),
        "t_final": Field("float", 0.5, positive=True),
        "monitor_radius": Field("float", 1.0, positive=True),
        "gap_fraction": Field("float", 0.05, positive=True),
    },
    "non-uniqueness": {
        **_COMMON,
        "c": Field("float", 1.0, positive=True),
        "b": Field("float", 2.0, positive=True),
        "mid": Field("float", 1.5, positive=True),
        "n_list": Field("float_list", (6.0, 8.0), positive=True, nonempty=True),
        "r_out": Field("float", 9.0, positive=True),
        "h": Field("float", 0.025, positive=True),
        "dt_max": Field("float", 1e-3, positive=True),
        "t_final": Field("float", 1.0, positive=True),
    },
    "alpha2": {
        "dimension": Field("int", 1, positive=True),
        "r_list": Field("float_list", (5.0, 10.0, 20.0, 40.0), positive=True, nonempty=True),
        "x_radius": Field("float", 0.0),
    },
}

SCENARIOS = tuple(SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario name plus its fully resolved parameter set."""

    scenario: str
    params: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.params[key]


def _parse_value(key: str, raw: str, f: Field):
    raw = raw.strip()
    try:
        if f.kind == "float":
            return float(raw)
        if f.kind == "int":
            return int(raw)
        if f.kind == "float_list":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key!r} = {raw!r} as {f.kind}") from exc


def _validate(scenario: str, key: str, value, f: Field):
    if f.choices and value not in f.choices:
        raise ConfigError(
            f"{key!r} must be one of {', '.join(map(str, f.choices))}, got {value!r}"
        )
    # inf parses as a float, and an infinite time or step never ends a run
    if f.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    if f.kind == "float_list" and not all(map(math.isfinite, value)):
        raise ConfigError(f"all entries of {key!r} must be finite")
    if f.kind in ("float", "int") and f.positive and not value > 0:
        raise ConfigError(f"{key!r} must be positive, got {value!r}")
    if f.kind == "float_list":
        if f.nonempty and len(value) == 0:
            raise ConfigError(f"{key!r} must not be empty")
        if f.positive and any(not v > 0 for v in value):
            raise ConfigError(f"all entries of {key!r} must be positive")
    return value


def _scenario_checks(scenario: str, params: dict):
    """Cross-field validity ranges documented per scenario."""
    alpha = params.get("alpha")
    fam = params.get("family")
    if scenario in ("theorem-b", "theorem-c", "non-uniqueness"):
        if fam != "log_power":
            raise ConfigError(f"scenario {scenario} requires family = log_power")
        if not 1.0 < alpha < 2.0:
            raise ConfigError(
                f"scenario {scenario} requires 1 < alpha < 2, got {alpha}"
            )
    if scenario == "stationary" and fam == "log_power" and not 1.0 < alpha <= 2.0:
        raise ConfigError(f"stationary profiles need 1 < alpha <= 2, got {alpha}")
    if scenario == "flat-ode" and fam == "log_power" and not alpha > 1.0:
        raise ConfigError("flat-ode with log_power needs alpha > 1 for the full-decay limit")
    if fam == "power" and params.get("p") is not None and not params["p"] > 1.0:
        raise ConfigError(f"power family needs p > 1, got {params['p']}")
    for key in ("n_list", "a_list", "r_list", "t_checks"):
        if key in params and list(params[key]) != sorted(set(params[key])):
            raise ConfigError(f"{key!r} must be strictly increasing")
    if scenario == "non-uniqueness":
        if not params["c"] < params["mid"] < params["b"]:
            raise ConfigError("need c < mid < b")
    if scenario in ("theorem-b", "non-uniqueness"):
        if params.get("dimension") != 1:
            raise ConfigError(
                f"scenario {scenario} is implemented for dimension = 1 only"
            )
        # one ball has no pair to order: the in-n checks would pass vacuously
        if len(params["n_list"]) < 2:
            raise ConfigError(f"scenario {scenario} needs at least two n_list entries")
    if scenario in ("theorem-c", "non-uniqueness") and params["n_list"][-1] >= params["r_out"]:
        raise ConfigError("n_list must stay below r_out")
    if scenario == "stationary" and max(params["bound_radii"]) > params["r_max"]:
        raise ConfigError("bound_radii must not exceed r_max")
    if scenario == "stationary" and params["grid_points"] < 2:
        raise ConfigError(
            f"grid_points must be at least 2 to span [0, r_max], got {params['grid_points']}"
        )
    if scenario == "alpha2":
        x, N, r = params["x_radius"], params["dimension"], params["r_list"][-1]
        if x < 0.0:
            raise ConfigError(f"x_radius is the distance |x|, must be >= 0, got {x}")
        if not _maximizer_in_range(r, x, N):
            raise ConfigError(
                f"r_list reaches r = {r:g}, where the alpha = 2 maximizer's "
                f"4 N (r + x)^2 e^(2r) is beyond double range"
            )


def _maximizer_in_range(r: float, x: float, N: int) -> bool:
    """Whether ``4 N R^2 gamma^2``, with R = r + x and gamma = e^r, is a
    finite double, formed as ``tail_exponent_maximizer`` forms it."""
    R = r + x
    try:
        return math.isfinite(4.0 * N * R * R * math.exp(r) ** 2.0)
    except OverflowError:
        return False


def parse_config(scenario: str, text: str) -> ExperimentConfig:
    """Parse flat key/value text against the scenario schema."""
    if scenario not in SCHEMAS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}"
        )
    schema = SCHEMAS[scenario]
    params = {k: f.default for k, f in schema.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} for scenario {scenario!r} "
                f"(known: {', '.join(sorted(schema))})"
            )
        value = _parse_value(key, raw, schema[key])
        params[key] = _validate(scenario, key, value, schema[key])
    _scenario_checks(scenario, params)
    return ExperimentConfig(scenario=scenario, params=params)


def load_config(scenario: str, path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return parse_config(scenario, "")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(scenario, text)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(f"{v:.17g}" for v in value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Render the resolved config; parsing it back gives identical values."""
    lines = [f"{k} = {_format_value(v)}" for k, v in sorted(config.params.items())]
    return "\n".join(lines) + "\n"


def config_echo(config: ExperimentConfig) -> dict:
    """JSON-ready echo of the resolved parameters."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(config.params.items())}
