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
    GROWTH_INTERVAL,
    PARAM_TABLE,
    RADIATION_PERIOD,
    SIMPLEX_TOL,
    ModelParams,
    PopulationState,
    VelocityVector,
    _check_simplex,
    mean_velocity,
    snap_count,
    velocities_of,
)
from .errors import InvalidParameterError, InvalidStateError, NumericInstabilityError

# Components may transiently leave [0, 1] by at most this much.
_STABILITY_TOL = 1e-9
# Endpoint drift beyond this triggers proportional renormalization.
_RENORM_TOL = 1e-12
# The bound under which integrate_growth skips its stage-point sum tests: the
# largest h * v_i, the most steps, the input's |sum - 1| and the rounding one
# step adds to |sum - 1| (2**-53 is the unit roundoff).
_SUM_BOUND_HV = 0.5
_SUM_BOUND_STEPS = 10**4
_SUM_BOUND_DRIFT = 1e-10
_SUM_BOUND_ROUNDING = 32 * 2.0**-53

Triple = tuple[float, float, float]


@dataclass(slots=True)
class ReplicatorField:
    """Right-hand-side data for one growth interval (v2 frozen throughout)."""

    v: VelocityVector  # velocities in force for the interval
    q_mix: float  # slow-to-middle mutation rate
    p_mix: float  # middle-to-fast mutation rate

    def __post_init__(self) -> None:
        q, p = self.q_mix, self.p_mix
        if type(q) is float and type(p) is float and 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0:
            return  # what PARAM_TABLE accepts on every growth day, without the lookups
        for name in ("q_mix", "p_mix"):
            PARAM_TABLE[name].check(name, getattr(self, name))


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


def integrate_growth(field: ReplicatorField, x: Triple, duration: float, step: float) -> Triple:
    """Fraction triple after `duration` days of mixing under the field.

    Classical fixed-step fourth-order integration. The raw endpoint is
    returned; growth_day_detail projects it back onto the simplex.

    The loop is replicator_rhs unrolled over scalar locals: every stage
    evaluates the field with the same float operations in the same order,
    so the result equals a plain RK4 composed from replicator_rhs bit for
    bit. It also raises where that RK4 raises, with the same message: each
    stage point gets the simplex test of mean_velocity, except the parts
    shown below to be unable to fire. The components of step 1's first stage
    point are tested once before the loop, and those of each later step's
    first stage point by the endpoint test of the step before. The sum tests
    are skipped while the written bound holds.

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
    # The components of step 1's first stage point. Every later step starts
    # from an endpoint whose `x_i < out_lo` test is this one, since
    # _STABILITY_TOL == SIMPLEX_TOL.
    if x0 < lo or x1 < lo or x2 < lo:
        raise _stage_error(0, n, h)
    # Skip the stage-point sum tests when this bound holds: each h*v_i in
    # [0, C], q and p in [0, 1], n <= N_MAX and the input's computed
    # |x0 + x1 + x2 - 1| <= M, with C = _SUM_BOUND_HV = 1/2, N_MAX =
    # _SUM_BOUND_STEPS = 10**4 and M = _SUM_BOUND_DRIFT = 1e-10. A NaN or
    # inf in v, q, p or x fails a comparison and keeps the tests on.
    #
    # Why no sum test can then fire. Write u = 2**-53, t = SIMPLEX_TOL = 1e-9,
    # V = max v_i and e(y) = y0 + y1 + y2 - 1 for a point y. Rounding is
    # bounded as in Higham, Accuracy and Stability of Numerical Algorithms
    # (2002), ch. 3; underflow adds at most 2**-1074 per operation. By
    # induction over the stage points: let |e| <= t at every earlier one.
    # Each point's components are tested >= -t before its phi is formed, so
    # by 3 below they sum in absolute value to under 1.01.
    # 1. Each column of the mixing matrix sums to its velocity, so the field's
    #    components sum to -phi(y) * e(y) exactly. As computed, with
    #    cq = fl(1 - q) and phi^ the computed phi: sum(k) = -phi^ e(y) + r,
    #    |r| <= 10uV, and sum|k_i| <= 2.05V.
    # 2. Components >= -t give -V(3t + 3u) <= phi^ <= 1.0001V. So with
    #    hV <= 1/2, c * phi^ lies in [-eps, 0.5001] for c = h/2 or h, where
    #    eps = 3.01tC.
    # 3. A stage point x + c*k(z), z the stage point before, has
    #    e = e(x) - c phi^(z) e(z) + w with |w| <= 8u. Unrolled over the
    #    stages, e_j = g_j e(x) + (at most 14u), with g_1 = 1 and every g_j
    #    in [0.49, 1 + 2eps]: the step's input deviation times a factor in
    #    [0, 1], up to eps.
    # 4. The endpoint has e(x') = F e(x) + (at most 16u), with
    #    F = 1 - (h/6) sum_j w_j phi^_j g_j in [0.49, 1 + 2eps]; in exact
    #    arithmetic F lies in [1 - hV, 1].
    # 5. Take the per-step rounding as delta = _SUM_BOUND_ROUNDING = 32u,
    #    and one more delta for the input's computed sum (3u), the last
    #    stage (14u) and the test's own sum (3u). After at most N_MAX steps
    #    every stage point has
    #    |e| <= (M + (N_MAX + 1) delta)(1 + 7tC)**(N_MAX + 1) < 1.4e-10 < t,
    #    which tests/test_growth.py asserts from these constants. So the
    #    induction holds, and no sum test fires.
    # The component tests stay: no proof is written here that every computed
    # stage point stays >= 0.
    test_sums = not (
        0.0 <= v0 and 0.0 <= v1 and 0.0 <= v2
        and h * v0 <= _SUM_BOUND_HV and h * v1 <= _SUM_BOUND_HV and h * v2 <= _SUM_BOUND_HV
        and 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0
        and n <= _SUM_BOUND_STEPS
        and abs(x0 + x1 + x2 - 1.0) <= _SUM_BOUND_DRIFT
    )
    for i in range(n):
        # Stage k1 at x. The sum is tested as mean_velocity tests it.
        if test_sums and abs(x0 + x1 + x2 - 1.0) > tol:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * x0, v1 * x1, v2 * x2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - x0 * phi
        dx1 = a1 * cp + a0 * q - x1 * phi
        dx2 = a2 + a1 * p - x2 * phi
        s0, s1, s2 = dx0, dx1, dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k2 at x + h/2 * k1.
        if y0 < lo or y1 < lo or y2 < lo or (test_sums and abs(y0 + y1 + y2 - 1.0) > tol):
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k3 at x + h/2 * k2.
        if y0 < lo or y1 < lo or y2 < lo or (test_sums and abs(y0 + y1 + y2 - 1.0) > tol):
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + h * dx0, x1 + h * dx1, x2 + h * dx2
        # Stage k4 at x + h * k3.
        if y0 < lo or y1 < lo or y2 < lo or (test_sums and abs(y0 + y1 + y2 - 1.0) > tol):
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
    return PopulationState(y0, y1, y2, state.pulses_delivered)


@dataclass(slots=True)
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
    period: str = RADIATION_PERIOD,
) -> GrowthStep:
    """One growth interval with the recorded mean velocity and diagnostics.

    Stages: freeze the velocity vector from the state's pulse count and the
    period, evolve the fractions, project an endpoint that drifted more than
    1e-12 from the simplex back onto it proportionally, rebuild counts from
    the fractions, then divide.

    Raises:
        InvalidStateError: for an empty population.
    """
    y0, y1, y2, pulses = state.y0, state.y1, state.y2, state.pulses_delivered
    total = y0 + y1 + y2
    if total == 0:
        raise InvalidStateError("cannot grow an empty population")
    v = velocities_of(params, pulses, period)
    field = ReplicatorField(v, params.q_mix, params.p_mix)
    x = (y0 / total, y1 / total, y2 / total)
    x_end = integrate_growth(field, x, GROWTH_INTERVAL, params.ode_step)
    drift = abs(x_end[0] + x_end[1] + x_end[2] - 1.0)
    renormalized = drift > _RENORM_TOL
    if renormalized:
        s = x_end[0] + x_end[1] + x_end[2]
        x_end = (x_end[0] / s, x_end[1] / s, x_end[2] / s)
    # mean_velocity and fractions_to_counts, inlined, with one simplex test.
    _check_simplex(x_end)
    x0, x1, x2 = x_end
    phi = v.v0 * x0 + v.v1 * x1 + v.v2 * x2
    if total < 0:
        raise InvalidStateError(f"total must be >= 0, got {total}")
    c0, c1, c2 = x0 * total, x1 * total, x2 * total
    if params.integer_rounding:
        c0, c1, c2 = snap_count(c0), snap_count(c1), snap_count(c2)
    # Built for its check: in real mode an endpoint component just below 0
    # gives a negative count, reported here before division scales it.
    intermediate = PopulationState(c0, c1, c2, pulses)
    divided = apply_division(intermediate, v, GROWTH_INTERVAL, params.integer_rounding)
    return GrowthStep(divided, phi, v.v2, drift, renormalized)
