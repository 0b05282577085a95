"""Model constants, population state, and the scalar model functions.

The population is split into three fractions: a slow compartment, a middle
compartment, and a fast compartment whose velocity is damped by accumulated
radiation pulses. Every function here is pure. ModelParams, built once per
course, is a frozen dataclass. PopulationState, built once per pulse and
growth day, is a slotted dataclass: cheaper to build, but mutable and
unhashable. Nothing in the package mutates one after it is built.
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

# Tolerance for membership on the probability simplex.
SIMPLEX_TOL = 1e-9
# The largest float as an integer: PULSE_COUNT rejects a count above it as too large.
_INT_MAX = int(sys.float_info.max)

# Length of the growth interval closing each course day (days), and the least
# ode_step a config may set (days); the step is range-checked and changes nothing.
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
# A count of delivered pulses, in a state, a damping factor, a closed form or a config.
PULSE_COUNT = ParamRow(int, 0)


def check_transfer(name: str, value: object, s: float) -> None:
    """Reject a transfer probability outside [0, s]: past the survival fraction s
    the pulse operator would hold a negative entry."""
    ParamRow(float, 0, s).check(name, value)


def check_simplex(name: str, x: tuple[float, float, float]) -> None:
    """Reject a fraction triple with a negative or NaN component, or whose sum
    is more than SIMPLEX_TOL from 1."""
    x0, x1, x2 = x
    if not (x0 >= 0.0 and x1 >= 0.0 and x2 >= 0.0 and abs(x0 + x1 + x2 - 1.0) <= SIMPLEX_TOL):
        raise InvalidStateError(
            f"{name} must be nonnegative and sum to 1 within {SIMPLEX_TOL:g}, got {x}"
        )


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
    ode_step: float = 0.01  # accepted and range-checked; has no effect on results
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
        check_transfer("q_rad", self.q_rad, s)
        check_transfer("p_rad", self.p_rad, s)
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
        y0, y1, y2 = self.y0, self.y1, self.y2
        # Float bounds keep each comparison float to float, cheaper than int to float.
        if not (0.0 <= y0 < math.inf and 0.0 <= y1 < math.inf and 0.0 <= y2 < math.inf):
            for name, value in (("y0", y0), ("y1", y1), ("y2", y2)):
                if not value >= 0:
                    raise InvalidStateError(f"{name} must be >= 0, got {value}")
                if value == math.inf:
                    raise InvalidStateError(f"{name} must be finite, got {value}")
        n = self.pulses_delivered
        if not (type(n) is int and 0 <= n <= _INT_MAX):
            PULSE_COUNT.check("pulses_delivered", n)

    def total(self) -> float:
        """Total cell count across the three fractions."""
        return self.y0 + self.y1 + self.y2


def survival_fraction(params: ModelParams) -> float:
    """Surviving cell fraction after a single pulse of params.dose.

    Linear-quadratic form exp(-alpha*d - beta*d^2); equals 1 at zero dose.
    """
    d = params.dose
    return math.exp(-(params.alpha * d + params.beta * d * d))


def psi(params: ModelParams, pulses: int, treatment: bool) -> float:
    """Damping factor for the fast-fraction velocity after `pulses` pulses.

    On a treatment day the exponent subtracts
    pulses * (sqrt(Q^2 + P^2)*d + sqrt(Q'^2 + P'^2)*d^2); on a weekend day it
    subtracts pulses * sqrt(Q'^2 + P'^2). Strictly positive, nonincreasing in
    the pulse count.

    Args:
        pulses: radiation pulses delivered so far.
        treatment: True on a treatment day, False on a weekend day.

    Raises:
        InvalidParameterError: for pulses not a pulse count, or treatment not
            True or False.
    """
    if not (type(pulses) is int and 0 <= pulses <= _INT_MAX):
        PULSE_COUNT.check("pulses", pulses)
    if treatment is True:
        d = params.dose
        per_pulse = math.hypot(params.q_rad, params.p_rad) * d
        per_division = math.hypot(params.q_mix, params.p_mix) * d * d
        subtrahend = pulses * (per_pulse + per_division)
    elif treatment is False:
        subtrahend = pulses * math.hypot(params.q_mix, params.p_mix)
    else:  # not a bool: a string such as "weekend" would otherwise read as True
        ParamRow(bool).check("treatment", treatment)
    return math.exp(params.theta - subtrahend)


def v2_of(params: ModelParams, pulses: int, treatment: bool) -> float:
    """Fast-fraction velocity a * v1 * psi at the given pulse count, on a
    treatment day or a weekend day."""
    return params.a * params.v1 * psi(params, pulses, treatment)


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
        InvalidStateError: if x is off the simplex or total is negative or NaN.
    """
    x0, x1, x2 = x
    if not (
        x0 >= 0.0 and x1 >= 0.0 and x2 >= 0.0 and abs(x0 + x1 + x2 - 1.0) <= SIMPLEX_TOL
        and total >= 0
    ):
        check_simplex("x", x)
        raise InvalidStateError(f"total must be >= 0, got {total}")
    counts = (x0 * total, x1 * total, x2 * total)
    if integer_rounding:
        counts = (snap_count(counts[0]), snap_count(counts[1]), snap_count(counts[2]))
    return counts
