"""Run configuration: a flat JSON document mapping canonical keys to values.

The canonical keys are the ModelParams field names plus pulses_per_week,
the initial population (exactly one of initial_counts or initial_total with
initial_fractions), the optional initial_pulses counter seed, and an
optional output path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .core import INITIAL, ModelParams, PopulationState, fractions_to_counts, snap_count
from .errors import ConfigError, InvalidParameterError
from .schedule import ScheduleSpec

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_INT_KEYS = frozenset({"weeks", "weekend_days", "pulses_per_week", "initial_pulses"})
_BOOL_KEYS = frozenset({"integer_rounding"})
_KNOWN_KEYS = frozenset(_PARAM_KEYS) | {
    "pulses_per_week",
    "initial_counts",
    "initial_total",
    "initial_fractions",
    "initial_pulses",
    "output",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    params: ModelParams
    schedule: ScheduleSpec
    initial: PopulationState
    output: str | None = None


def _require_number(key: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _require_int(key: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _require_bool(key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _require_triple(key: str, value: object) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key} must be a list of three numbers, got {value!r}")
    return tuple(_require_number(key, item) for item in value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Unknown keys are rejected by name; every parameter invariant is checked
    at parse time.

    Raises:
        ConfigError: naming the offending key and its expected range.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key: {key}")

    param_values = {}
    for key in _PARAM_KEYS:
        if key not in raw:
            continue
        if key in _BOOL_KEYS:
            param_values[key] = _require_bool(key, raw[key])
        elif key in _INT_KEYS:
            param_values[key] = _require_int(key, raw[key])
        else:
            param_values[key] = _require_number(key, raw[key])
    try:
        params = ModelParams(**param_values)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        schedule = ScheduleSpec(
            weeks=params.weeks,
            pulses_per_week=_require_int("pulses_per_week", raw.get("pulses_per_week", 5)),
            weekend_days=params.weekend_days,
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    has_counts = "initial_counts" in raw
    has_split = "initial_total" in raw or "initial_fractions" in raw
    if has_counts and has_split:
        raise ConfigError(
            "provide exactly one of initial_counts or initial_total with initial_fractions"
        )
    if has_counts:
        counts = _require_triple("initial_counts", raw["initial_counts"])
        if min(counts) < 0:
            raise ConfigError(f"initial_counts must be nonnegative, got {counts}")
        if not math.isfinite(counts[0] + counts[1] + counts[2]):
            raise ConfigError(f"initial_counts must have a finite total, got {counts}")
        if params.integer_rounding:
            counts = tuple(snap_count(c) for c in counts)
    elif has_split:
        if "initial_total" not in raw or "initial_fractions" not in raw:
            raise ConfigError("initial_total and initial_fractions must be given together")
        total = _require_number("initial_total", raw["initial_total"])
        if total < 0:
            raise ConfigError(f"initial_total must be >= 0, got {total}")
        if not math.isfinite(total):
            raise ConfigError(f"initial_total must be finite, got {total}")
        x = _require_triple("initial_fractions", raw["initial_fractions"])
        if not (x[0] >= 0 and x[1] >= 0 and x[2] >= 0):
            raise ConfigError(f"initial_fractions must be nonnegative, got {x}")
        if abs(x[0] + x[1] + x[2] - 1.0) > 1e-9:
            raise ConfigError(f"initial_fractions must sum to 1 within 1e-9, got {x}")
        counts = fractions_to_counts(x, total, params.integer_rounding)
    else:
        raise ConfigError(
            "missing initial population: provide initial_counts or "
            "initial_total with initial_fractions"
        )

    initial_pulses = _require_int("initial_pulses", raw.get("initial_pulses", 0))
    if initial_pulses < 0:
        raise ConfigError(f"initial_pulses must be >= 0, got {initial_pulses}")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a string path, got {output!r}")

    initial = PopulationState(
        y0=counts[0],
        y1=counts[1],
        y2=counts[2],
        phase=INITIAL,
        pulses_delivered=initial_pulses,
    )
    return RunConfig(params=params, schedule=schedule, initial=initial, output=output)


def write_config(config: RunConfig) -> str:
    """Serialize a configuration to canonical JSON; inverse of parse_config."""
    document: dict[str, object] = {
        key: getattr(config.params, key) for key in _PARAM_KEYS
    }
    document["pulses_per_week"] = config.schedule.pulses_per_week
    document["initial_counts"] = [config.initial.y0, config.initial.y1, config.initial.y2]
    document["initial_pulses"] = config.initial.pulses_delivered
    if config.output is not None:
        document["output"] = config.output
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())
