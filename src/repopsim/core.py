"""Model constants, population state, and the scalar model functions.

The population is split into three fractions: a slow compartment, a middle
compartment, and a fast compartment whose velocity is damped by accumulated
radiation pulses. Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, InvalidStateError

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


@dataclass(frozen=True)
class ModelParams:
    """All model constants for one simulation run."""

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

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "dose"):
            if not getattr(self, name) >= 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.weeks < 1:
            raise InvalidParameterError(f"weeks must be >= 1, got {self.weeks}")
        if not self.ode_step > 0:
            raise InvalidParameterError(f"ode_step must be > 0, got {self.ode_step}")
        if self.weekend_days < 0:
            raise InvalidParameterError(f"weekend_days must be >= 0, got {self.weekend_days}")
        s = survival_fraction(self)
        for name in ("q_rad", "p_rad"):
            value = getattr(self, name)
            if not 0 <= value <= s:
                raise InvalidParameterError(
                    f"{name} must lie in [0, {s:.6f}] (the survival fraction), got {value}"
                )
        for name in ("q_mix", "p_mix"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {value}")
        # Zero velocities are legal so radiation can be studied with growth off.
        for name in ("v0", "v1"):
            if not getattr(self, name) >= 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.a > 0:
            raise InvalidParameterError(f"a must be > 0, got {self.a}")
        for name in ("v0", "v1", "a"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        # psi <= exp(theta), since the subtracted pulse term is never negative.
        try:
            math.exp(self.theta)
            valid_theta = math.isfinite(self.theta)
        except OverflowError:
            valid_theta = False
        if not valid_theta:
            raise InvalidParameterError(
                f"theta must be finite and small enough for exp(theta) to be "
                f"finite, got {self.theta}"
            )
        if not math.isfinite(self.a * self.v1 * math.exp(self.theta)):
            raise InvalidParameterError(
                f"a * v1 * exp(theta), the largest fast-fraction velocity, must be "
                f"finite, got a={self.a}, v1={self.v1}, theta={self.theta}"
            )


@dataclass(frozen=True)
class PopulationState:
    """Cell counts of the three fractions at one instant of a course."""

    y0: float  # slow-fraction cell count
    y1: float  # middle-fraction cell count
    y2: float  # fast-fraction cell count
    day: int = 0  # day index within the course (0 = not yet placed)
    phase: str = INITIAL  # which stage of the day produced this state
    pulses_delivered: int = 0  # radiation pulses applied so far

    def __post_init__(self) -> None:
        if not (self.y0 >= 0 and self.y1 >= 0 and self.y2 >= 0):
            for name in ("y0", "y1", "y2"):
                if not getattr(self, name) >= 0:
                    raise InvalidStateError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.phase not in PHASES:
            raise InvalidStateError(f"phase must be one of {PHASES}, got {self.phase!r}")
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


@dataclass(frozen=True)
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


def counts_to_fractions(state: PopulationState) -> tuple[float, float, float] | None:
    """Fractions of the three compartments, or None for an empty population."""
    return state.fractions()


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
