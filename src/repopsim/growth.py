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
    SIMPLEX_TOL,
    ModelParams,
    PopulationState,
    fractions_to_counts,
    snap_count,
)
from .errors import InvalidParameterError, InvalidStateError, NumericInstabilityError

# Endpoint drift beyond this triggers proportional renormalization.
_RENORM_TOL = 1e-12
# The most RK4 steps one integrate_growth call takes: 100 days at ODE_STEP_FLOOR.
_MAX_STEPS = 10**6
# The bound under which integrate_growth runs no test in its loop: the largest
# h * v_i, the most steps, the input's |sum - 1| and the rounding one step adds
# to |sum - 1| (2**-53 is the unit roundoff).
_BOUND_HV = 1 / 64
_BOUND_STEPS = 10**4
_BOUND_DRIFT = 1e-10
_BOUND_ROUNDING = 32 * 2.0**-53
# The kinds of mixing rate that skip the parameter table's kind check; a bool
# or any other kind meets the check and its message.
_RATE_KINDS = (float, int)

Triple = tuple[float, float, float]
# (v0, v1, v2, q_mix, p_mix): the velocities and mutation rates of one growth interval.
Rates = tuple[float, float, float, float, float]


def integrate_growth(rates: Rates, x: Triple, duration: float, step: float) -> Triple:
    """Fraction triple after `duration` days of mixing under the replicator
    field with velocities (v0, v1, v2) and mutation rates q_mix, p_mix.

    Classical fixed-step fourth-order integration. The raw endpoint is
    returned; growth_day_detail projects it back onto the simplex.

    The loop is replicator_rhs of tests/test_growth.py unrolled over scalar
    locals: every stage evaluates the field with the same float operations
    in the same order, so the result equals a plain RK4 composed from
    replicator_rhs bit for bit, and raises where that RK4 raises, with the
    same message. Within a written bound (every h*v_i at most 1/64, at most
    10**4 steps, an input >= 0 with sum within 1e-10 of 1) the loop tests
    nothing: the comment above the flag proves that no test could fire.
    Outside it the rates are checked once, each stage point gets the simplex
    test and each endpoint the [0, 1] test, which stands in for the next
    step's first component test.

    Raises:
        InvalidParameterError: for a duration not finite and > 0, a step
            outside (0, duration], more than 10**6 steps, a negative or NaN
            velocity, or a q_mix or p_mix outside [0, 1].
        NumericInstabilityError: if a stage point leaves the simplex by more
            than 1e-9, or any endpoint component leaves [0, 1] by more than
            1e-9, naming the offending step.
    """
    if not 0 < duration < math.inf:
        raise InvalidParameterError(f"duration must be finite and > 0, got {duration}")
    if not 0 < step <= duration:
        raise InvalidParameterError(f"step must lie in (0, duration], got {step}")
    if not duration / step < _MAX_STEPS + 0.5:
        raise InvalidParameterError(
            f"duration / step must round to at most {_MAX_STEPS} steps, got {duration} / {step}"
        )
    n = max(1, round(duration / step))
    h = duration / n
    hh = 0.5 * h
    h6 = h / 6.0
    v0, v1, v2, q, p = rates
    lo, hi, tol = -SIMPLEX_TOL, 1.0 + SIMPLEX_TOL, SIMPLEX_TOL
    x0, x1, x2 = x
    # `checked` is off while this bound holds: each h*v_i in [0, C], q and p
    # in [0, 1], n <= N_MAX, each input component >= 0 and the input's
    # computed |x0 + x1 + x2 - 1| <= M, with C = _BOUND_HV = 1/64, N_MAX =
    # _BOUND_STEPS = 10**4 and M = _BOUND_DRIFT = 1e-10. A NaN or inf in v,
    # q, p or x fails a comparison and keeps the tests on. While it is off
    # the loop tests nothing, and no test could fire: part 1 shows that every
    # stage point's sum stays within 1.4e-10 of 1, part 2 that every stage
    # point and endpoint component is >= 0, so none exceeds its point's sum.
    # The two parts hold jointly, by induction over the points in the order
    # the loop forms them.
    #
    # Write u = 2**-53, s = 2**-1074 (the least positive float), t =
    # SIMPLEX_TOL = 1e-9, V = max v_i and e(y) = y0 + y1 + y2 - 1 for a point
    # y. fl rounds to nearest; rounding is bounded as in Higham, Accuracy and
    # Stability of Numerical Algorithms (2002), ch. 2-3.
    #
    # Part 1: the sums. Let |e| <= t at every earlier point. Each point's
    # components are >= 0 by part 2, so they sum in absolute value to under
    # 1.01; underflow adds at most s per operation.
    # 1. Each column of the mixing matrix sums to its velocity, so the field's
    #    components sum to -phi(y) * e(y) exactly. As computed, with
    #    cq = fl(1 - q) and phi^ the computed phi: sum(k) = -phi^ e(y) + r,
    #    |r| <= 10uV, and sum|k_i| <= 2.05V.
    # 2. Components >= -t give -V(3t + 3u) <= phi^ <= 1.0001V. So with
    #    hV <= C <= 1/2, c * phi^ lies in [-eps, 0.5001] for c = h/2 or h,
    #    where eps = 3.01tC.
    # 3. A stage point x + c*k(z), z the stage point before, has
    #    e = e(x) - c phi^(z) e(z) + w with |w| <= 8u. Unrolled over the
    #    stages, e_j = g_j e(x) + (at most 14u), with g_1 = 1 and every g_j
    #    in [0.49, 1 + 2eps]: the step's input deviation times a factor in
    #    [0, 1], up to eps.
    # 4. The endpoint has e(x') = F e(x) + (at most 16u), with
    #    F = 1 - (h/6) sum_j w_j phi^_j g_j in [0.49, 1 + 2eps]; in exact
    #    arithmetic F lies in [1 - hV, 1].
    # 5. Take the per-step rounding as delta = _BOUND_ROUNDING = 32u, and one
    #    more delta for the input's computed sum (3u), the last stage (14u)
    #    and the sum test's own sum (3u). After at most N_MAX steps every
    #    stage point has
    #    |e| <= (M + (N_MAX + 1) delta)(1 + 7tC)**(N_MAX + 1) < 1.4e-10 < t.
    #
    # Part 2: the components. At a point z the loop forms a_i = fl(v_i z_i),
    # phi^ = fl(fl(a0 + a1) + a2), N_i = fl(z_i phi^), the inflows
    # I_1 = fl(a0 q) and I_2 = fl(a1 p), the positive parts P_0 = fl(a0 cq),
    # P_1 = fl(fl(a1 cp) + I_1) and P_2 = fl(a2 + I_2), and k_i = fl(P_i - N_i).
    # From a step's input x = y_1 it forms y_j = fl(x + fl(c_j k(y_{j-1}))),
    # with c_2 = c_3 = hh <= h and c_4 = h, and the endpoint from all four k.
    # For real r >= 0:
    #   R1. fl is monotone and fl(-r) = -fl(r);
    #   R2. fl(r) <= 2r, and fl(r) = 0 if r <= s/2;
    #   R3. r(1 - u) - s/2 <= fl(r) <= r(1 + u) + s/2;
    #   R4. a sum or difference of two floats rounds with relative error <= u;
    #   R5. floats below 2**-1022 are multiples of s.
    # At z >= 0, with sum(z) < 1 + 1.4e-10, h*v_i <= C(1 + 2u) (the flag
    # tests the rounded product) and h*s <= 2**-50, the computed phi^ has
    # h phi^ <= C1 = 1.001C. Then:
    #   B1. h N_i <= 2 C1 z_i (R2);
    #   B2. P_0 <= 2 v0 z_0 and P_i <= (1 + u)(2 v_i z_i + I_i) (R2; cq, cp <= 1);
    #   B3. a stage point y_j has y_j,i = fl(x_i + D_i), where
    #       D_i = fl(c_j k_i(y_{j-1})) <= 2 c_j P_i(y_{j-1}), so
    #       y_j,i <= (1 + u)(x_i + D_i) (R1, R2, R4).
    # Claim Q: every stage point z has h (N_i(z) - P_i(z)) <= x_i / 5.
    # Q gives the lemma. With Q at y_{j-1}, c_j k_i >= -(1 + u) x_i/5 (R4),
    # so fl(c_j k_i) >= -x_i (R1) and y_j,i >= 0; and if h (N_i - P_i) <= g x_i
    # there, y_j,i >= (1 - 2g)(1 - 2u) x_i (R2). At the endpoint the weighted
    # sum of the four k_i is >= -6(1 + u)**4 x_i/(5h) as computed, and
    # h6 <= h/6 + s/2 <= 2h/3 (h >= s), so its product with h6 is >= -0.81 x_i
    # and the endpoint component is >= 0.
    # Proof of Q. At x, B1 gives h N_i <= 2 C1 x_i. At z = y_j, j >= 2, with Q
    # at the earlier points and w = y_{j-1}, there are two cases.
    # a. D_i <= 4 x_i. Then z_i <= 5(1 + u) x_i and h N_i(z) <= 10 C1 (1 + u)
    #    x_i < x_i/5. Component 0 is always here: B2 and B3 give D_0 <= 4 C1 w_0,
    #    so every stage point has z_0 <= 1.07 x_0, D_0 <= 0.07 x_0 and
    #    h N_0 <= 0.03348 x_0, hence z_0 >= 0.933 x_0.
    # b. D_i > 4 x_i, for i = 1 or 2. Then D_i >= s, so c_j k_i(w) > s/2 and
    #    PI = P_i(w) > s/(2h) (R2). As z_i < 1.25(1 + u) D_i <= 2.5(1 + u) h PI,
    #    phi^ z_i <= 0.0392 PI, so N_i(z) <= 0.0783 PI (B1), and N_i(z) = 0
    #    unless PI >= 13s (R5). It is enough that N_i(z) <= I_i(z) <= P_i(z).
    #    Let Im and Pm be the largest I_i and P_i at y_1 .. y_{j-1}. Each of these
    #    points has component i <= (1 + u)(x_i + 2h Pm) (B3), and x_i < h PI/2
    #    as D_i <= 2h PI, so B2 gives Pm <= (1 + u) Im + 5 C1 (1 + u)**2 Pm,
    #    and Pm <= 1.085 Im. With PI <= Pm, PI >= 13s and PI > s/(2h), it is
    #    enough that Im >= 12s and Im > 0.46 s/h give I_i(z) >= 0.085 Im.
    #    Two facts give it.
    #    U: every y_m, m >= 2, has component i <= 1.07 x_i + 2.2 c_m Im_m,
    #       with Im_m the largest I_i before y_m (by induction from B2 and B3;
    #       the c_m do not decrease).
    #    G: for G(a) = fl(fl(v a) b) with v >= 0 and b in [0, 1],
    #       a' >= kappa a - E with kappa <= 1 gives
    #       G(a') >= kappa (1 - 4u) G(a) - (kappa + 1) s - v E (R3, four times).
    #    i = 1: I_1 = G(z_0) with v = v0 and b = q. Case a puts z_0 in
    #       [0.933, 1.07] x_0 at every stage point, so kappa = 0.871 between
    #       any two, and I_1(z) >= 0.871 (1 - 4u) Im - 1.871s >= 0.71 Im.
    #    i = 2: I_2 = G(z_1) with v = v1 and b = p. Take w' before z with
    #       I_2(w') = Im. As
    #       fl(A - B) >= (1 - u) A - (1 + u) B - s/2 for A, B >= 0, and
    #       P_1 >= I_1, B1 with U and the case i = 1 give
    #       z_1 >= 0.966 x_1 + c_j (0.802 Im1 - 1.872s) - s/2, with Im1 the
    #       largest I_1 at any stage point, while U gives
    #       w'_1 <= 1.07 x_1 + 2.2 c_j Im1. So z_1 >= 0.364 w'_1 - E, with
    #       E = 1.872 h s + s/2 and v1 E <= 0.03s + C1 s/(2h) <= 0.03s + 0.017 Im.
    #       By G, I_2(z) >= 0.364 (1 - 4u) Im - 1.394s - 0.017 Im >= 0.23 Im.
    # tests/test_growth.py asserts each of these constants from C, M, N_MAX
    # and delta.
    rates_ok = (
        type(q) in _RATE_KINDS and type(p) in _RATE_KINDS
        and 0.0 <= v0 and 0.0 <= v1 and 0.0 <= v2 and 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0
    )
    checked = not (
        rates_ok
        and h * v0 <= _BOUND_HV and h * v1 <= _BOUND_HV and h * v2 <= _BOUND_HV
        and n <= _BOUND_STEPS
        and 0.0 <= x0 and 0.0 <= x1 and 0.0 <= x2
        and abs(x0 + x1 + x2 - 1.0) <= _BOUND_DRIFT
    )
    if checked:
        if not rates_ok:
            _check_velocities((v0, v1, v2))
            for name, rate in (("q_mix", q), ("p_mix", p)):
                PARAM_TABLE[name].check(name, rate)
        # The components of step 1's first stage point. Every later step
        # starts from an endpoint whose `x_i < lo` test is this one.
        if x0 < lo or x1 < lo or x2 < lo:
            raise _stage_error(0, n, h)
    cq, cp = 1.0 - q, 1.0 - p
    for i in range(n):
        # Stage k1 at x. Its components were tested at the previous endpoint.
        if checked and abs(x0 + x1 + x2 - 1.0) > tol:
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * x0, v1 * x1, v2 * x2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - x0 * phi
        dx1 = a1 * cp + a0 * q - x1 * phi
        dx2 = a2 + a1 * p - x2 * phi
        s0, s1, s2 = dx0, dx1, dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k2 at x + h/2 * k1.
        if checked and (y0 < lo or y1 < lo or y2 < lo or abs(y0 + y1 + y2 - 1.0) > tol):
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + hh * dx0, x1 + hh * dx1, x2 + hh * dx2
        # Stage k3 at x + h/2 * k2.
        if checked and (y0 < lo or y1 < lo or y2 < lo or abs(y0 + y1 + y2 - 1.0) > tol):
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        s0, s1, s2 = s0 + 2.0 * dx0, s1 + 2.0 * dx1, s2 + 2.0 * dx2
        y0, y1, y2 = x0 + h * dx0, x1 + h * dx1, x2 + h * dx2
        # Stage k4 at x + h * k3.
        if checked and (y0 < lo or y1 < lo or y2 < lo or abs(y0 + y1 + y2 - 1.0) > tol):
            raise _stage_error(i, n, h)
        a0, a1, a2 = v0 * y0, v1 * y1, v2 * y2
        phi = a0 + a1 + a2
        dx0 = a0 * cq - y0 * phi
        dx1 = a1 * cp + a0 * q - y1 * phi
        dx2 = a2 + a1 * p - y2 * phi
        # x + h/6 * (((k1 + 2 k2) + 2 k3) + k4), summed in that order.
        x0, x1, x2 = x0 + h6 * (s0 + dx0), x1 + h6 * (s1 + dx1), x2 + h6 * (s2 + dx2)
        if checked and (x0 < lo or x1 < lo or x2 < lo or x0 > hi or x1 > hi or x2 > hi):
            raise NumericInstabilityError(
                f"component left [0, 1] at step {i + 1} of {n} "
                f"(t={(i + 1) * h:.4f}): {(x0, x1, x2)}"
            )
    return (x0, x1, x2)


def _stage_error(i: int, n: int, h: float) -> NumericInstabilityError:
    return NumericInstabilityError(
        f"stage point left the simplex at step {i + 1} of {n} (t={(i + 1) * h:.4f})"
    )


def _check_velocities(v: Triple) -> None:
    for name, value in zip(("v0", "v1", "v2"), v):
        if not value >= 0:
            raise InvalidParameterError(f"{name} must be >= 0, got {value}")


def apply_division(
    counts: Triple, v: Triple, duration: float, integer_rounding: bool = False
) -> Triple:
    """Each count multiplied by its division factor 2^(v_i * duration), for
    the velocities v = (v0, v1, v2).

    Raises:
        InvalidParameterError: for a nonpositive duration or a negative or
            NaN velocity.
        NumericInstabilityError: if a divided count is too large for a float.
    """
    if not duration > 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    v0, v1, v2 = v
    if not (v0 >= 0 and v1 >= 0 and v2 >= 0):
        _check_velocities(v)
    try:
        y0 = counts[0] * 2.0 ** (v0 * duration)
        y1 = counts[1] * 2.0 ** (v1 * duration)
        y2 = counts[2] * 2.0 ** (v2 * duration)
    except OverflowError:
        y0 = y1 = y2 = math.inf
    if y0 + y1 + y2 == math.inf:
        raise NumericInstabilityError(
            f"cell counts overflow dividing for {duration} days at velocities {(v0, v1, v2)}"
        )
    if integer_rounding:
        return snap_count(y0), snap_count(y1), snap_count(y2)
    return y0, y1, y2


@dataclass(slots=True)
class GrowthStep:
    """Outcome of one growth interval, with integrator diagnostics."""

    state: PopulationState  # post-division population
    phi: float  # mean velocity at the end of the mixing stage
    drift: float  # raw |sum(x) - 1| at the integrator endpoint
    renormalized: bool  # whether the simplex guard fired


def growth_day_detail(state: PopulationState, params: ModelParams, v2: float) -> GrowthStep:
    """One growth interval with the recorded mean velocity and diagnostics.

    Stages: evolve the fractions under the velocities (params.v0, params.v1,
    v2), with v2 frozen for the interval, project an endpoint that drifted
    more than 1e-12 from the simplex back onto it proportionally, rebuild
    counts from the fractions, then divide.

    Raises:
        InvalidStateError: for an empty population, or a negative rebuilt
            count.
    """
    y0, y1, y2 = state.y0, state.y1, state.y2
    total = y0 + y1 + y2
    if total == 0:
        raise InvalidStateError("cannot grow an empty population")
    v0, v1 = params.v0, params.v1
    x = (y0 / total, y1 / total, y2 / total)
    rates = (v0, v1, v2, params.q_mix, params.p_mix)
    x_end = integrate_growth(rates, x, GROWTH_INTERVAL, params.ode_step)
    drift = abs(x_end[0] + x_end[1] + x_end[2] - 1.0)
    renormalized = drift > _RENORM_TOL
    if renormalized:
        s = x_end[0] + x_end[1] + x_end[2]
        x_end = (x_end[0] / s, x_end[1] / s, x_end[2] / s)
    counts = fractions_to_counts(x_end, total, params.integer_rounding)
    phi = v0 * x_end[0] + v1 * x_end[1] + v2 * x_end[2]
    # In real mode an endpoint component just below 0 gives a negative count,
    # reported here before division scales it.
    if not (counts[0] >= 0 and counts[1] >= 0 and counts[2] >= 0):
        PopulationState(*counts)  # raises InvalidStateError naming the count
    divided = apply_division(counts, (v0, v1, v2), GROWTH_INTERVAL, params.integer_rounding)
    return GrowthStep(PopulationState(*divided, state.pulses_delivered), phi, drift, renormalized)
