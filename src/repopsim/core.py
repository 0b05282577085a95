"""Exceptions and input rules, model constants, population state, and the scalar model functions.

The population is split into three fractions: a slow compartment, a middle
compartment, and a fast compartment whose velocity is damped by accumulated
radiation pulses. Every function here is pure. ModelParams, built once per
course, and PopulationState, a course's validated starting point, are checked
named tuples: immutable, and checked whether built by call, _make or _replace.
Within a course, counts travel as plain (y0, y1, y2) float triples.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class InvalidParameterError(SimulationError, ValueError):
    """A model parameter violates its documented range."""


class InvalidStateError(SimulationError, ValueError):
    """A population state violates a structural invariant."""


class NumericInstabilityError(SimulationError, ArithmeticError):
    """A growth day or a division has no finite result, or real-valued
    counts underflow to zero."""


class AlignmentError(SimulationError, ValueError):
    """Two trajectories share no common (day, phase) grid point."""


class ConfigError(SimulationError, ValueError):
    """A run configuration is malformed or inconsistent."""


class SchemaError(SimulationError, ValueError):
    """A data file does not match its expected column layout."""


def digit_count(n: int) -> int:
    """Decimal digits of abs(n), counted without str(), which refuses past 4,300 digits."""
    n = abs(n)
    # log10(2**(bits - 1)) with log10(2) rounded down: never more than the digits.
    count = 1 + max(n.bit_length() - 1, 0) * 30102999566 // 10**11
    while n >= 10**count:
        count += 1
    return count


def quote(value: object) -> str:
    """repr(value) for an error message, cut past 60 characters with its full length stated.

    A string is measured and cut before it is quoted; an integer, by its digits;
    any other value, as its repr.
    """
    if isinstance(value, int):  # a bool has one digit, so it takes the repr branch
        length = digit_count(value) + (value < 0)
        if length <= 60:
            return repr(value)
        shown = ("-" if value < 0 else "") + str(abs(value) // 10 ** (length - 60))
        return f"{shown}... ({length} characters)"
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    shown = repr(text[:60]) if isinstance(value, str) else text[:60]
    return f"{shown}... ({len(text)} characters)"


# The (y0, y1, y2) cell counts, or the (x0, x1, x2) fractions, of the three compartments.
Triple = tuple[float, float, float]

# Record phases within a simulated course.
INITIAL = "initial"
POST_GROWTH = "post_growth"
POST_RADIATION = "post_radiation"
PHASES = (INITIAL, POST_GROWTH, POST_RADIATION)

# Tolerance for membership on the probability simplex.
SIMPLEX_TOL = 1e-9
# The largest float. apply_pulse requires its cell counts to be exactly floats >= 0.0
# with a total <= COUNT_MAX, else calls check_counts: so a bool meets its rule.
COUNT_MAX = sys.float_info.max

# Length of the growth interval closing each course day (days).
GROWTH_INTERVAL = 1.0


class ParamRow(NamedTuple):
    """One input's kind, range, default and exception; a None bound leaves that side open,
    and a math.inf high bound admits infinity."""

    kind: type  # int, float or bool
    low: float | None = None
    high: float | None = None
    strict: bool = False  # low itself lies outside the range
    default: object = None  # a ModelParams field's default: only PARAM_TABLE's rows set one
    error: type = InvalidParameterError  # raised for a value the row rejects

    def check(self, name: str, value: object) -> None:
        """Reject a value of the wrong kind, too large for a float, out of range or not finite."""
        kind, low, high, strict, _, error = self
        if type(value) is not float or kind is not float:  # a float in a float row needs neither
            # isinstance counts a bool as an int, so only a bool row may hold one.
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, kind)):
                wanted = {bool: "true or false", int: "an integer", float: "a number"}[kind]
                raise error(f"{name} must be {wanted}, got {quote(value)}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                digits = f"{digit_count(value)} digits"
                raise error(f"{name} is too large, got an integer of {digits}")
        if low is None:
            return
        above = value > low if strict else value >= low
        if high is not None and high < math.inf and not (above and value <= high):
            wanted = f"lie in {'(' if strict else '['}{low:g}, {high:g}]"
        elif not above:
            wanted = f"be {'>' if strict else '>='} {low:g}"
        elif high is None and kind is float and not math.isfinite(value):  # a high bound has ruled
            wanted = "be finite"
        else:
            return
        raise error(f"{name} must {wanted}, got {quote(value)}")


# Each ModelParams field's kind, range and default, in field order: the one place they live.
PARAM_TABLE = {
    "alpha": ParamRow(float, 0, default=0.2),  # linear survival coefficient (1/Gy)
    "beta": ParamRow(float, 0, default=0.02),  # quadratic survival coefficient (1/Gy^2)
    "dose": ParamRow(float, 0, default=2.0),  # dose per pulse (Gy)
    # q_rad and p_rad have no range here: ModelParams.__new__ bounds them by the survival fraction.
    "q_rad": ParamRow(float, default=0.0),  # per-pulse transfer probability, slow to middle
    "p_rad": ParamRow(float, default=0.0),  # per-pulse transfer probability, middle to fast
    "q_mix": ParamRow(float, 0, 1, default=0.0),  # per-division mutation rate, slow to middle
    "p_mix": ParamRow(float, 0, 1, default=0.0),  # per-division mutation rate, middle to fast
    # v0 = v1 = 0 is legal: radiation with growth off.
    "v0": ParamRow(float, 0, default=0.01),  # slow-fraction growth velocity (1/day)
    "v1": ParamRow(float, 0, default=0.016),  # middle-fraction growth velocity (1/day)
    "a": ParamRow(float, 0, strict=True, default=5.0),  # fast-to-middle velocity multiplier
    # theta: threshold offset in the damping exponent, bounded so that exp(theta) is finite
    "theta": ParamRow(float, -math.inf, math.log(sys.float_info.max), strict=True, default=0.005),
    "weeks": ParamRow(int, 1, 520, default=6),  # course length in weeks: one week to ten years
    "integer_rounding": ParamRow(bool, default=True),  # snap counts to whole cells after each stage
    "weekend_days": ParamRow(int, 0, 7, default=2),  # growth-only days closing each week
    "pulses_per_week": ParamRow(int, 0, 7, default=5),  # weekdays opening each week, one pulse each
}
_KIND = tuple(row.kind for row in PARAM_TABLE.values())  # each field's kind, in field order
# A number within the floats, its range checked apart.
NUMBER = ParamRow(float)
# A count of delivered pulses, in a state, a closed form or a config.
PULSE_COUNT = ParamRow(int, 0)
# A number of cells: a total of a closed form or a config; as CELL_COUNT, one count of a state.
CELL_TOTAL = ParamRow(float, 0)
CELL_COUNT = CELL_TOTAL._replace(error=InvalidStateError)


def check_transfer(name: str, value: object, s: float) -> None:
    """Reject a transfer probability outside [0, s]: past the survival fraction s
    the pulse operator would hold a negative entry."""
    ParamRow(float, 0, s).check(name, value)


def check_counts(counts: Triple) -> None:
    """Reject a count CELL_COUNT rejects, naming y0, y1 or y2; then a total check_total rejects."""
    for name, value in zip(("y0", "y1", "y2"), counts):
        CELL_COUNT.check(name, value)
    check_total("counts", counts)


def check_total(name: str, counts: Triple) -> None:
    """Reject nonnegative counts whose total is NaN or too large for a float."""
    if not counts[0] + counts[1] + counts[2] <= COUNT_MAX:  # an integer sum compares exactly
        raise InvalidStateError(f"{name} must have a finite total, got {counts}")


def check_simplex(name: str, x: Triple) -> None:
    """Reject a fraction triple with a negative or NaN component, or whose sum
    is more than SIMPLEX_TOL from 1."""
    x0, x1, x2 = x
    if not (x0 >= 0.0 and x1 >= 0.0 and x2 >= 0.0 and abs(x0 + x1 + x2 - 1.0) <= SIMPLEX_TOL):
        raise InvalidStateError(
            f"{name} must be nonnegative and sum to 1 within {SIMPLEX_TOL:g}, got {x}"
        )


def _checked(cls: type) -> type:
    """Finish a checked named tuple: its _make, which _replace calls, builds through cls, so
    cls.__new__ checks every field, and an argument error names cls, not its fields class."""
    cls._make = classmethod(lambda kind, iterable: kind(*iterable))
    cls.__bases__[0].__new__.__qualname__ = f"{cls.__name__}.__new__"
    return cls


_ModelParamsFields = namedtuple(
    "_ModelParamsFields", PARAM_TABLE, defaults=[row.default for row in PARAM_TABLE.values()]
)


@_checked
class ModelParams(_ModelParamsFields):
    """All model constants for one run; PARAM_TABLE gives each one's kind, range and default."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ModelParams:
        self = super().__new__(cls, *args, **kwargs)
        for (name, row), value in zip(PARAM_TABLE.items(), self):
            row.check(name, value)
        if not all(map(isinstance, self, _KIND)):  # a valid int in a float field: store its float
            self = tuple.__new__(cls, (k(v) if type(v) is int else v for v, k in zip(self, _KIND)))
        s = survival_fraction(self)
        if not s > 0:
            raise InvalidParameterError(
                f"the survival fraction exp(-(alpha*dose + beta*dose^2)) must be > 0, "
                f"got {s} for alpha={quote(self.alpha)}, beta={quote(self.beta)}, "
                f"dose={quote(self.dose)}"
            )
        check_transfer("q_rad", self.q_rad, s)
        check_transfer("p_rad", self.p_rad, s)
        # psi <= exp(theta), since the subtracted pulse term is never negative; theta's
        # row, checked in the loop above, keeps exp(theta) itself finite.
        if not math.isfinite(self.a * self.v1 * math.exp(self.theta)):
            raise InvalidParameterError(
                f"a * v1 * exp(theta), the largest fast-fraction velocity, must be "
                f"finite, got a={quote(self.a)}, v1={quote(self.v1)}, theta={quote(self.theta)}"
            )
        return self


class _PopulationStateFields(NamedTuple):
    y0: float  # slow-fraction cell count
    y1: float  # middle-fraction cell count
    y2: float  # fast-fraction cell count
    pulses_delivered: int = 0  # radiation pulses applied so far


@_checked
class PopulationState(_PopulationStateFields):
    """A course's validated start: the three fractions' cell counts and the pulses delivered."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PopulationState:
        self = super().__new__(cls, *args, **kwargs)
        check_counts((self.y0, self.y1, self.y2))
        PULSE_COUNT.check("pulses_delivered", self.pulses_delivered)
        return self

    def total(self) -> float:
        """Total cell count across the three fractions."""
        return self.y0 + self.y1 + self.y2


def lq_exponent(params: ModelParams) -> float:
    """The linear-quadratic log kill alpha*d + beta*d^2 of one pulse of params.dose."""
    return params.alpha * params.dose + params.beta * params.dose * params.dose


def survival_fraction(params: ModelParams) -> float:
    """Surviving cell fraction exp(-lq_exponent) after a single pulse; 1 at zero dose."""
    return math.exp(-lq_exponent(params))


def _psis(params: ModelParams, pulses: range) -> list[tuple[float, float]]:
    """psi on a weekend day and a treatment day at each pulse count: its one formula, unchecked.

    psi, the damping factor of the fast-fraction velocity a * v1 * psi, is exp of theta minus
    the pulse count times a per-pulse loss: hypot(q_mix, p_mix) on a weekend day, and
    hypot(q_rad, p_rad)*d + hypot(q_mix, p_mix)*d^2 on a treatment day, with d the dose.
    Nonnegative (exp underflows to 0.0 after enough pulses), nonincreasing in the pulse count.
    """
    d, theta = params.dose, params.theta
    weekend = math.hypot(params.q_mix, params.p_mix)
    treatment = math.hypot(params.q_rad, params.p_rad) * d + weekend * d * d
    return [(math.exp(theta - n * weekend), math.exp(theta - n * treatment)) for n in pulses]


def _snap(y0: float, y1: float, y2: float) -> Triple:
    """Counts >= 0, each snapped to the nearest whole cell, ties away from zero; unchecked."""
    # (y + 0.5) // 1.0 is floor(y + 0.5) as a float, with no round trip through an int.
    return (y0 + 0.5) // 1.0, (y1 + 0.5) // 1.0, (y2 + 0.5) // 1.0
