"""Model constants, population state, and the scalar model functions.

The population is split into three fractions: a slow compartment, a middle
compartment, and a fast compartment whose velocity is damped by accumulated
radiation pulses. Every function here is pure. ModelParams, built once per
course, is a frozen dataclass. PopulationState and VelocityVector, built
several times per simulated day, are slotted dataclasses: cheaper to build,
but mutable and unhashable. Nothing in the package mutates one after it is
built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameterError, InvalidStateError, digit_count, quote

# Record phases within a simulated course.
INITIAL = "initial"
POST_GROWTH = "post_growth"
POST_RADIATION = "post_radiation"
PHASES = (INITIAL, POST_GROWTH, POST_RADIATION)

# Damping periods: weekdays under active treatment versus the weekend gap.
RADIATION_PERIOD = "radiation"
WEEKEND = "weekend"
PERIODS = (RADIATION_PERIOD, WEEKEND)

# Tolerance for membership on the probability simplex.
SIMPLEX_TOL = 1e-9

# Length of the growth interval closing each course day (days), and the shortest
# integration step (days): at most 10**4 RK4 steps per growth day.
GROWTH_INTERVAL = 1.0
ODE_STEP_FLOOR = 1e-4


class ParamRow(NamedTuple):
    """The kind and range of one ModelParams field; a None bound leaves that side open."""

    kind: type  # int, float or bool
    low: float | None = None
    high: float | None = None
    strict: bool = False  # low itself lies outside the range

    def check(self, name: str, value: object) -> None:
        """Reject a value of the wrong kind, too large for a float, out of range or not finite."""
        kind, low, high, strict = self
        if type(value) is not float or kind is not float:  # a float in a float row needs neither
            # isinstance counts a bool as an int, so only a bool row may hold one.
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, kind)):
                wanted = {bool: "true or false", int: "an integer", float: "a number"}[kind]
                raise InvalidParameterError(f"{name} must be {wanted}, got {quote(value)}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                digits = f"{digit_count(value)} digits"
                raise InvalidParameterError(f"{name} is too large, got an integer of {digits}")
        if low is None:
            return
        if high is not None and not low <= value <= high:
            wanted = f"lie in [{low:g}, {high:g}]"
        elif not (value > low if strict else value >= low):
            wanted = f"be {'>' if strict else '>='} {low:g}"
        elif high is None and kind is float and not math.isfinite(value):  # [low, high] is finite
            wanted = "be finite"
        else:
            return
        raise InvalidParameterError(f"{name} must {wanted}, got {quote(value)}")


# Each ModelParams field's kind and range, in field order: the one place they live.
PARAM_TABLE = {
    "alpha": ParamRow(float, 0),
    "beta": ParamRow(float, 0),
    "dose": ParamRow(float, 0),
    "q_rad": ParamRow(float),  # q_rad, p_rad, theta: bounded in ModelParams.__post_init__
    "p_rad": ParamRow(float),
    "q_mix": ParamRow(float, 0, 1),
    "p_mix": ParamRow(float, 0, 1),
    "v0": ParamRow(float, 0),  # v0 = v1 = 0 is legal: radiation with growth off
    "v1": ParamRow(float, 0),
    "a": ParamRow(float, 0, strict=True),
    "theta": ParamRow(float),
    "weeks": ParamRow(int, 1, 520),  # one week to ten years
    "ode_step": ParamRow(float, ODE_STEP_FLOOR, GROWTH_INTERVAL),
    "integer_rounding": ParamRow(bool),
    "weekend_days": ParamRow(int, 0, 7),
    "pulses_per_week": ParamRow(int, 0, 7),
}


@dataclass(frozen=True)
class ModelParams:
    """All model constants for one simulation run; PARAM_TABLE gives each one's range."""

    alpha: float = 0.2  # linear survival coefficient (1/Gy)
    beta: float = 0.02  # quadratic survival coefficient (1/Gy^2)
    dose: float = 2.0  # dose per pulse (Gy)
    q_rad: float = 0.0  # per-pulse transfer probability, slow to middle
    p_rad: float = 0.0  # per-pulse transfer probability, middle to fast
    q_mix: float = 0.0  # per-division mutation rate, slow to middle
    p_mix: float = 0.0  # per-division mutation rate, middle to fast
    v0: float = 0.01  # slow-fraction growth velocity (1/day)
    v1: float = 0.016  # middle-fraction growth velocity (1/day)
    a: float = 5.0  # fast-to-middle velocity multiplier
    theta: float = 0.005  # threshold offset in the damping exponent
    weeks: int = 6  # course length in weeks
    ode_step: float = 0.01  # fixed integration step (days)
    integer_rounding: bool = True  # snap counts to whole cells after each stage
    weekend_days: int = 2  # growth-only days closing each week
    pulses_per_week: int = 5  # weekdays opening each week, one pulse each

    def __post_init__(self) -> None:
        for name, row in PARAM_TABLE.items():
            row.check(name, getattr(self, name))
        s = survival_fraction(self)
        if not s > 0:
            raise InvalidParameterError(
                f"the survival fraction exp(-(alpha*dose + beta*dose^2)) must be > 0, "
                f"got {s} for alpha={quote(self.alpha)}, beta={quote(self.beta)}, "
                f"dose={quote(self.dose)}"
            )
        for name in ("q_rad", "p_rad"):
            value = getattr(self, name)
            if not 0 <= value <= s:
                raise InvalidParameterError(
                    f"{name} must lie in [0, {s:.6f}] (the survival fraction), got {quote(value)}"
                )
        # psi <= exp(theta), since the subtracted pulse term is never negative.
        if not -math.inf < self.theta <= math.log(sys.float_info.max):
            raise InvalidParameterError(
                f"theta must be finite and small enough for exp(theta) to be "
                f"finite, got {quote(self.theta)}"
            )
        if not math.isfinite(self.a * self.v1 * math.exp(self.theta)):
            raise InvalidParameterError(
                f"a * v1 * exp(theta), the largest fast-fraction velocity, must be "
                f"finite, got a={quote(self.a)}, v1={quote(self.v1)}, theta={quote(self.theta)}"
            )


@dataclass(slots=True)
class PopulationState:
    """Cell counts of the three fractions at one instant of a course."""

    y0: float  # slow-fraction cell count
    y1: float  # middle-fraction cell count
    y2: float  # fast-fraction cell count
    pulses_delivered: int = 0  # radiation pulses applied so far

    def __post_init__(self) -> None:
        if not (self.y0 >= 0 and self.y1 >= 0 and self.y2 >= 0):
            for name in ("y0", "y1", "y2"):
                if not getattr(self, name) >= 0:
                    raise InvalidStateError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.pulses_delivered < 0:
            raise InvalidStateError(f"pulses_delivered must be >= 0, got {self.pulses_delivered}")

    def total(self) -> float:
        """Total cell count across the three fractions."""
        return self.y0 + self.y1 + self.y2

    def fractions(self) -> tuple[float, float, float] | None:
        """Counts normalized onto the simplex, or None for an empty population."""
        t = self.total()
        if t == 0:
            return None
        return (self.y0 / t, self.y1 / t, self.y2 / t)


@dataclass(slots=True)
class VelocityVector:
    """Per-fraction growth velocities in force for one growth interval."""

    v0: float  # slow-fraction velocity (1/day)
    v1: float  # middle-fraction velocity (1/day)
    v2: float  # fast-fraction velocity, damped by accumulated pulses (1/day)

    def __post_init__(self) -> None:
        if not (self.v0 >= 0 and self.v1 >= 0 and self.v2 >= 0):
            for name in ("v0", "v1", "v2"):
                if not getattr(self, name) >= 0:
                    raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)}")


def survival_fraction(params: ModelParams) -> float:
    """Surviving cell fraction after a single pulse of params.dose.

    Linear-quadratic form exp(-alpha*d - beta*d^2); equals 1 at zero dose.
    """
    d = params.dose
    return math.exp(-(params.alpha * d + params.beta * d * d))


def velocity_from_doubling_time(doubling_time: float) -> float:
    """Growth velocity ln(2)/T_d for a volume doubling time in days.

    Raises:
        InvalidParameterError: if the doubling time is not positive.
    """
    if not doubling_time > 0:
        raise InvalidParameterError(f"doubling time must be > 0, got {doubling_time}")
    return math.log(2) / doubling_time


def _check_simplex(x: tuple[float, float, float]) -> None:
    if min(x) < -SIMPLEX_TOL or abs(x[0] + x[1] + x[2] - 1.0) > SIMPLEX_TOL:
        raise InvalidStateError(f"fractions must lie on the simplex, got {x}")


def mean_velocity(x: tuple[float, float, float], v: VelocityVector) -> float:
    """Population mean growth velocity over the fraction triple x.

    Raises:
        InvalidStateError: if x is off the simplex beyond tolerance.
    """
    _check_simplex(x)
    return v.v0 * x[0] + v.v1 * x[1] + v.v2 * x[2]


def psi(params: ModelParams, pulses: int, period: str) -> float:
    """Damping factor for the fast-fraction velocity after `pulses` pulses.

    During the treatment period the exponent subtracts
    pulses * (sqrt(Q^2 + P^2)*d + sqrt(Q'^2 + P'^2)*d^2); over the weekend it
    subtracts pulses * sqrt(Q'^2 + P'^2). Strictly positive, nonincreasing in
    the pulse count.

    Args:
        pulses: radiation pulses delivered so far.
        period: RADIATION_PERIOD or WEEKEND.
    """
    if period not in PERIODS:
        raise InvalidParameterError(f"period must be one of {PERIODS}, got {period!r}")
    if pulses < 0:
        raise InvalidParameterError(f"pulses must be >= 0, got {pulses}")
    if period == RADIATION_PERIOD:
        d = params.dose
        per_pulse = math.hypot(params.q_rad, params.p_rad) * d
        per_division = math.hypot(params.q_mix, params.p_mix) * d * d
        subtrahend = pulses * (per_pulse + per_division)
    else:
        subtrahend = pulses * math.hypot(params.q_mix, params.p_mix)
    return math.exp(params.theta - subtrahend)


def v2_of(params: ModelParams, pulses: int, period: str) -> float:
    """Fast-fraction velocity a * v1 * psi at the given pulse count and period."""
    return params.a * params.v1 * psi(params, pulses, period)


def velocities_of(params: ModelParams, pulses: int, period: str) -> VelocityVector:
    """Velocity vector in force for a growth interval starting now."""
    return VelocityVector(params.v0, params.v1, v2_of(params, pulses, period))


def snap_count(value: float) -> float:
    """Nearest whole cell count, ties away from zero, floored at zero."""
    if value <= 0:
        return 0.0
    return float(math.floor(value + 0.5))


def fractions_to_counts(
    x: tuple[float, float, float], total: float, integer_rounding: bool
) -> tuple[float, float, float]:
    """Counts obtained by spreading `total` cells over the fraction triple.

    Each component is rounded independently to the nearest whole cell (ties
    away from zero) when integer_rounding is on; the summed total may then
    differ from the requested one by at most 1.5 cells.

    Raises:
        InvalidStateError: if x is off the simplex or total is negative.
    """
    _check_simplex(x)
    if total < 0:
        raise InvalidStateError(f"total must be >= 0, got {total}")
    counts = (x[0] * total, x[1] * total, x[2] * total)
    if integer_rounding:
        counts = (snap_count(counts[0]), snap_count(counts[1]), snap_count(counts[2]))
    return counts
