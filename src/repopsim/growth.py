"""Growth dynamics: fraction mixing on the simplex plus count division.

One growth interval proceeds in two stages. First the fraction triple evolves
under a replicator field with mutation flow between adjacent compartments,
integrated with a classical fixed-step fourth-order scheme. Then the counts
are rebuilt from the evolved fractions and each compartment divides by the
factor 2^(v_i * dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    POST_GROWTH,
    RADIATION_PERIOD,
    SIMPLEX_TOL,
    ModelParams,
    PopulationState,
    VelocityVector,
    fractions_to_counts,
    mean_velocity,
    snap_count,
    velocities_of,
)
from .errors import InvalidParameterError, InvalidStateError, NumericInstabilityError

# Components may transiently leave [0, 1] by at most this much.
_STABILITY_TOL = 1e-9
# Endpoint drift beyond this triggers proportional renormalization.
_RENORM_TOL = 1e-12

Triple = tuple[float, float, float]


@dataclass(frozen=True)
class ReplicatorField:
    """Right-hand-side data for one growth interval (v2 frozen throughout)."""

    v: VelocityVector  # velocities in force for the interval
    q_mix: float  # slow-to-middle mutation rate
    p_mix: float  # middle-to-fast mutation rate

    def __post_init__(self) -> None:
        for name in ("q_mix", "p_mix"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {value}")


def replicator_rhs(field: ReplicatorField, x: Triple) -> Triple:
    """Time derivative of the fraction triple under the replicator field.

    The three components sum to Phi * (1 - sum(x)), hence to zero on the
    simplex, which is what keeps the integration on the simplex without any
    forced renormalization.

    Raises:
        InvalidStateError: if x is off the simplex beyond tolerance.
    """
    phi = mean_velocity(x, field.v)
    v = field.v
    return (
        v.v0 * x[0] * (1.0 - field.q_mix) - x[0] * phi,
        v.v1 * x[1] * (1.0 - field.p_mix) + v.v0 * x[0] * field.q_mix - x[1] * phi,
        v.v2 * x[2] + v.v1 * x[1] * field.p_mix - x[2] * phi,
    )


def integrate_growth(
    field: ReplicatorField,
    x: Triple,
    duration: float,
    step: float,
    renormalize: bool = True,
) -> Triple:
    """Fraction triple after `duration` days of mixing under the field.

    Classical fixed-step fourth-order integration. The endpoint is projected
    back onto the simplex proportionally only if its drift exceeds 1e-12;
    with renormalize off the raw endpoint is returned.

    The loop is replicator_rhs unrolled over scalar locals: every stage
    evaluates the field with the same float operations in the same order,
    so the result equals a plain RK4 composed from replicator_rhs bit for
    bit, and every stage point gets the simplex test of mean_velocity.

    Raises:
        InvalidParameterError: for a nonpositive duration or step, or a step
            exceeding the duration.
        NumericInstabilityError: if a stage point leaves the simplex by more
            than 1e-9, or any endpoint component leaves [0, 1] by more than
            1e-9, naming the offending step.
    """
    if not duration > 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    if not 0 < step <= duration:
        raise InvalidParameterError(f"step must lie in (0, duration], got {step}")
    n = max(1, round(duration / step))
    h = duration / n
    hh = 0.5 * h
    h6 = h / 6.0
    v0, v1, v2 = field.v.v0, field.v.v1, field.v.v2
    q, p = field.q_mix, field.p_mix
    cq, cp = 1.0 - q, 1.0 - p
    lo, tol = -SIMPLEX_TOL, SIMPLEX_TOL
    out_lo, out_hi = -_STABILITY_TOL, 1.0 + _STABILITY_TOL
    x0, x1, x2 = x
    for i in range(n):
        # Stage k1 at x. Each stage point is tested as mean_velocity tests
        # it; `off < lo` is the lower half of |sum - 1| > tol.
        off = x0 + x1 + x2 - 1.0
        if x0 < lo or x1 < lo or x2 < lo or off > tol or off < lo:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * x0, v1 * x1, v2 * x2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - x0 * phi
        dx1 = a1 * cp + a0 * q - x1 * phi
        dx2 = a2 + a1 * p - x2 * phi
        s0, s1, s2 = dx0, dx1, dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k2 at x + h/2 * k1.
        off = y0 + y1 + y2 - 1.0
        if y0 < lo or y1 < lo or y2 < lo or off > tol or off < lo:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k3 at x + h/2 * k2.
        off = y0 + y1 + y2 - 1.0
        if y0 < lo or y1 < lo or y2 < lo or off > tol or off < lo:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + h * dx0, x1 + h * dx1, x2 + h * dx2
        # Stage k4 at x + h * k3.
        off = y0 + y1 + y2 - 1.0
        if y0 < lo or y1 < lo or y2 < lo or off > tol or off < lo:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        # x + h/6 * (((k1 + 2 k2) + 2 k3) + k4), summed in that order.
        x0, x1, x2 = x0 + h6 * (s0 + dx0), x1 + h6 * (s1 + dx1), x2 + h6 * (s2 + dx2)
        if (
            x0 < out_lo or x1 < out_lo or x2 < out_lo
            or x0 > out_hi or x1 > out_hi or x2 > out_hi
        ):
            raise NumericInstabilityError(
                f"component left [0, 1] at step {i + 1} of {n} "
                f"(t={(i + 1) * h:.4f}): {(x0, x1, x2)}"
            )
    if renormalize and abs(x0 + x1 + x2 - 1.0) > _RENORM_TOL:
        total = x0 + x1 + x2
        return (x0 / total, x1 / total, x2 / total)
    return (x0, x1, x2)


def _stage_error(i: int, n: int, h: float) -> NumericInstabilityError:
    return NumericInstabilityError(
        f"stage point left the simplex at step {i + 1} of {n} (t={(i + 1) * h:.4f})"
    )


def apply_division(
    state: PopulationState,
    v: VelocityVector,
    duration: float,
    integer_rounding: bool = False,
) -> PopulationState:
    """Each compartment multiplied by its division factor 2^(v_i * duration).

    Raises:
        InvalidParameterError: for a nonpositive duration.
        NumericInstabilityError: if a divided count is too large for a float.
    """
    if not duration > 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    try:
        y0 = state.y0 * 2.0 ** (v.v0 * duration)
        y1 = state.y1 * 2.0 ** (v.v1 * duration)
        y2 = state.y2 * 2.0 ** (v.v2 * duration)
    except OverflowError:
        y0 = y1 = y2 = math.inf
    if y0 + y1 + y2 == math.inf:
        raise NumericInstabilityError(
            f"cell counts overflow dividing for {duration} days at velocities {(v.v0, v.v1, v.v2)}"
        )
    if integer_rounding:
        y0, y1, y2 = snap_count(y0), snap_count(y1), snap_count(y2)
    return PopulationState(y0, y1, y2, state.day, POST_GROWTH, state.pulses_delivered)


@dataclass(frozen=True)
class GrowthStep:
    """Outcome of one growth interval, with integrator diagnostics."""

    state: PopulationState  # post-division population
    phi: float  # mean velocity at the end of the mixing stage
    v2: float  # fast-fraction velocity frozen for the interval
    drift: float  # raw |sum(x) - 1| at the integrator endpoint
    renormalized: bool  # whether the simplex guard fired


def growth_day_detail(
    state: PopulationState,
    params: ModelParams,
    pulses: int,
    period: str = RADIATION_PERIOD,
    interval: float = 1.0,
) -> GrowthStep:
    """One growth interval with the recorded mean velocity and diagnostics.

    Stages: freeze the velocity vector from the pulse count and period, evolve
    the fractions, rebuild counts from the evolved fractions, then divide.

    Raises:
        InvalidStateError: for an empty population.
    """
    total = state.total()
    x = state.fractions()
    if x is None:
        raise InvalidStateError("cannot grow an empty population")
    v = velocities_of(params, pulses, period)
    field = ReplicatorField(v, params.q_mix, params.p_mix)
    x_end = integrate_growth(field, x, interval, params.ode_step, renormalize=False)
    drift = abs(x_end[0] + x_end[1] + x_end[2] - 1.0)
    renormalized = drift > _RENORM_TOL
    if renormalized:
        s = x_end[0] + x_end[1] + x_end[2]
        x_end = (x_end[0] / s, x_end[1] / s, x_end[2] / s)
    phi = mean_velocity(x_end, v)
    mixed = fractions_to_counts(x_end, total, params.integer_rounding)
    intermediate = PopulationState(*mixed, state.day, state.phase, state.pulses_delivered)
    divided = apply_division(intermediate, v, interval, params.integer_rounding)
    return GrowthStep(divided, phi, v.v2, drift, renormalized)


def growth_day(
    state: PopulationState,
    params: ModelParams,
    pulses: int,
    period: str = RADIATION_PERIOD,
    interval: float = 1.0,
) -> PopulationState:
    """Population after one growth interval (mixing, count rebuild, division)."""
    return growth_day_detail(state, params, pulses, period, interval).state
