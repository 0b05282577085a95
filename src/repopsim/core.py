"""Model constants, population state, and the scalar model functions.

The population is split into three fractions: a slow compartment, a middle
compartment, and a fast compartment whose velocity is damped by accumulated
radiation pulses. Every function here is pure. ModelParams, built once per
course, is a frozen dataclass. PopulationState, a course's validated starting
point, is a slotted dataclass: mutable and unhashable, but nothing in the
package mutates one after it is built. Within a course, counts travel as plain
(y0, y1, y2) float triples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidParameterError, InvalidStateError, digit_count, quote

# The (y0, y1, y2) cell counts, or the (x0, x1, x2) fractions, of the three compartments.
Triple = tuple[float, float, float]

# Record phases within a simulated course.
INITIAL = "initial"
POST_GROWTH = "post_growth"
POST_RADIATION = "post_radiation"
PHASES = (INITIAL, POST_GROWTH, POST_RADIATION)

# Tolerance for membership on the probability simplex.
SIMPLEX_TOL = 1e-9
# The largest float. Each per-day entry taking cell counts compares them with 0.0 and
# COUNT_MAX, float to float, cheaper than int to float, and calls check_counts if one fails.
COUNT_MAX = sys.float_info.max

# Length of the growth interval closing each course day (days).
GROWTH_INTERVAL = 1.0


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
    "integer_rounding": ParamRow(bool),
    "weekend_days": ParamRow(int, 0, 7),
    "pulses_per_week": ParamRow(int, 0, 7),
}
# A count of delivered pulses, in a state, a damping factor, a closed form or a config.
PULSE_COUNT = ParamRow(int, 0)
# A number of cells: one count of a state, or a total to spread over fractions
# in fractions_to_counts, a closed form or a config.
CELL_TOTAL = ParamRow(float, 0)


def check_transfer(name: str, value: object, s: float) -> None:
    """Reject a transfer probability outside [0, s]: past the survival fraction s
    the pulse operator would hold a negative entry."""
    ParamRow(float, 0, s).check(name, value)


def check_counts(counts: Triple) -> None:
    """Reject a cell count that CELL_TOTAL rejects, naming its component y0, y1
    or y2, as an InvalidStateError; then a total check_total rejects."""
    for name, value in zip(("y0", "y1", "y2"), counts):
        try:
            CELL_TOTAL.check(name, value)
        except InvalidParameterError as exc:
            raise InvalidStateError(str(exc)) from None
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

    @cached_property
    def pulse_losses(self) -> tuple[float, float]:
        """psi's exponent loss per delivered pulse, indexed by `treatment`:
        sqrt(Q'^2 + P'^2) on a weekend day, sqrt(Q^2 + P^2)*d + sqrt(Q'^2 + P'^2)*d^2
        on a treatment day. Computed on first use, so once per course, not per day."""
        d = self.dose
        per_division = math.hypot(self.q_mix, self.p_mix)
        return per_division, math.hypot(self.q_rad, self.p_rad) * d + per_division * d * d


@dataclass(slots=True)
class PopulationState:
    """A course's validated start: the three fractions' cell counts and the pulses delivered."""

    y0: float  # slow-fraction cell count
    y1: float  # middle-fraction cell count
    y2: float  # fast-fraction cell count
    pulses_delivered: int = 0  # radiation pulses applied so far

    def __post_init__(self) -> None:
        check_counts((self.y0, self.y1, self.y2))
        PULSE_COUNT.check("pulses_delivered", self.pulses_delivered)

    def total(self) -> float:
        """Total cell count across the three fractions."""
        return self.y0 + self.y1 + self.y2


def lq_exponent(params: ModelParams) -> float:
    """The linear-quadratic log kill alpha*d + beta*d^2 of one pulse of params.dose."""
    return params.alpha * params.dose + params.beta * params.dose * params.dose


def survival_fraction(params: ModelParams) -> float:
    """Surviving cell fraction exp(-lq_exponent) after a single pulse; 1 at zero dose."""
    return math.exp(-lq_exponent(params))


def psi(params: ModelParams, pulses: int, treatment: bool) -> float:
    """Damping factor for the fast-fraction velocity after `pulses` pulses.

    The exponent is theta - pulses * params.pulse_losses[treatment]. Strictly
    positive, nonincreasing in the pulse count.

    Args:
        pulses: radiation pulses delivered so far.
        treatment: True on a treatment day, False on a weekend day.

    Raises:
        InvalidParameterError: for pulses not a pulse count, or treatment not
            True or False.
    """
    PULSE_COUNT.check("pulses", pulses)
    if treatment is not True and treatment is not False:  # only a bool may pick a day's loss
        ParamRow(bool).check("treatment", treatment)
    return _psis(params, range(pulses, pulses + 1))[0][treatment]


def _psis(params: ModelParams, pulses: range) -> list[tuple[float, float]]:
    """psi on a weekend day and a treatment day at each pulse count: its one formula, unchecked."""
    theta, (weekend, treatment) = params.theta, params.pulse_losses
    return [(math.exp(theta - n * weekend), math.exp(theta - n * treatment)) for n in pulses]


def v2_of(params: ModelParams, pulses: int, treatment: bool) -> float:
    """Fast-fraction velocity a * v1 * psi at the given pulse count, on a
    treatment day or a weekend day."""
    return params.a * params.v1 * psi(params, pulses, treatment)


def snap_counts(counts: Triple) -> Triple:
    """Each count snapped to the nearest whole cell, ties away from zero.

    Raises:
        InvalidStateError: for counts check_counts rejects.
    """
    check_counts(counts)
    return _snap(*counts)


def _snap(y0: float, y1: float, y2: float) -> Triple:
    """snap_counts of (y0, y1, y2) unchecked, for a per-day caller's counts >= 0."""
    # (y + 0.5) // 1.0 is floor(y + 0.5) as a float, with no round trip through an int.
    return (y0 + 0.5) // 1.0, (y1 + 0.5) // 1.0, (y2 + 0.5) // 1.0


def fractions_to_counts(x: Triple, total: float, integer_rounding: bool) -> Triple:
    """Counts obtained by spreading `total` cells over the fraction triple.

    Each component is rounded independently to the nearest whole cell (ties
    away from zero) when integer_rounding is on; the summed total may then
    differ from the requested one by at most 1.5 cells.

    Raises:
        InvalidStateError: if x is off the simplex.
        InvalidParameterError: for a total CELL_TOTAL rejects.
    """
    check_simplex("x", x)
    CELL_TOTAL.check("total", total)
    x0, x1, x2 = x
    y0, y1, y2 = x0 * total, x1 * total, x2 * total
    return _snap(y0, y1, y2) if integer_rounding else (y0, y1, y2)
