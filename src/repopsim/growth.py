"""Growth dynamics: fraction mixing on the simplex plus count division.

One growth interval proceeds in two stages. First the fraction triple evolves
under a replicator field with mutation flow between adjacent compartments,
computed exactly as the normalized matrix exponential of the linear field it
projects. Then the counts are rebuilt from the evolved fractions and each
compartment divides by the factor 2^v_i over the one-day interval.
"""

from __future__ import annotations

import math

from .core import GROWTH_INTERVAL, PARAM_TABLE, InvalidStateError, ModelParams
from .core import NumericInstabilityError, ParamRow, Triple, _snap

# A span of growth in days: finite and > 0.
_DURATION = ParamRow(float, 0, strict=True)
_VELOCITY = ParamRow(float, 0, math.inf)  # a velocity: >= 0, infinity included
_FRACTION = _VELOCITY._replace(error=InvalidStateError)  # a fraction: >= 0
# The widest spread of three exponents whose second divided difference comes
# from its series; past it, dividing by the spread loses at most a few units.
_SERIES_SPREAD = 0.5

# (v0, v1, v2, q_mix, p_mix): the velocities and mutation rates of one growth interval.
Rates = tuple[float, float, float, float, float]


def integrate_growth(rates: Rates, x: Triple, duration: float, step: float) -> Triple:
    """Fraction triple after `duration` days of mixing under the replicator
    field with velocities (v0, v1, v2) and mutation rates q_mix, p_mix.

    The field projects y' = A y, A = [[v0(1-q),0,0],[v0 q, v1(1-p),0],
    [0, v1 p, v2]], onto the simplex, so the day ends exactly at
    normalize(exp(tA) x), t = duration. exp(tA) has the diagonal exp(d_i),
    d = t diag(A), and below it t c1 f[d0,d1], t c2 f[d1,d2] and
    t^2 c1 c2 f[d0,d1,d2], the f being divided differences of exp. The
    diagonal is shifted by its largest entry among the compartments that hold
    or receive cells, so no exponential exceeds 1 and none that would
    overflow is used. Every term is >= 0 and their sum s is checked finite
    and > 0, so any nonnegative x, on the simplex or off it, with a nonzero
    result ends at a point that is nonnegative and sums to 1 within a few
    units of 2^-53: callers need not check it again. `step`, once a config's
    ode_step, is range-checked and changes nothing: it stays because the
    benchmark's tracer reads it.

    Raises:
        InvalidParameterError: for a duration not finite and > 0, a step not
            a number or outside (0, duration], a velocity not a number (a
            bool included), too large for a float, negative or NaN, or a q_mix
            or p_mix not a number (a bool included) or outside [0, 1].
        InvalidStateError: naming `fractions`, for a component of x not a
            number (a bool included), too large for a float, negative or NaN.
        NumericInstabilityError: if exp(tA) x is not finite or sums to zero.
    """
    if not (type(duration) is float and 0.0 < duration < math.inf):
        _DURATION.check("duration", duration)
        duration = float(duration)  # a valid int, so no product below is int by int
    if not (type(step) is float and 0.0 < step <= duration):
        ParamRow(float, 0, duration, strict=True).check("step", step)
    v0, v1, v2, q, p = rates
    x0, x1, x2 = x
    if not (
        type(v0) is float and type(v1) is float and type(v2) is float and type(q) is float
        and type(p) is float and type(x0) is float and type(x1) is float and type(x2) is float
        and 0.0 <= v0 and 0.0 <= v1 and 0.0 <= v2 and 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0
        and 0.0 <= x0 and 0.0 <= x1 and 0.0 <= x2
    ):
        _check_mixing(rates, x)
    c1, c2 = duration * v0 * q, duration * v1 * p
    d0, d1, d2 = duration * v0 * (1.0 - q), duration * v1 * (1.0 - p), duration * v2
    if not (x0 > 0.0 and x1 > 0.0 and x2 > 0.0):
        # A compartment that neither holds nor receives cells stays empty, so
        # its diagonal entry takes the shift's value, whatever its velocity.
        in1 = x1 > 0.0 or (x0 > 0.0 and c1 > 0.0)
        in2 = x2 > 0.0 or (in1 and c2 > 0.0)
        top = max(
            d0 if x0 > 0.0 else -math.inf, d1 if in1 else -math.inf, d2 if in2 else -math.inf
        )
        d0, d1, d2 = d0 if x0 > 0.0 else top, d1 if in1 else top, d2 if in2 else top
    top = d1 if d1 > d0 else d0  # max(d0, d1, d2), without a builtin call a day
    top = d2 if d2 > top else top
    d0, d1, d2 = d0 - top, d1 - top, d2 - top
    e0, e1, e2 = math.exp(d0), math.exp(d1), math.exp(d2)
    y0, y1, y2 = e0 * x0, e1 * x1, e2 * x2
    if c1 > 0.0:
        y1 += c1 * (_first_difference(d0, e0, d1, e1) * x0)
    if c2 > 0.0:
        inflow = _first_difference(d1, e1, d2, e2) * x1
        if c1 > 0.0:
            inflow += c1 * (_second_difference(d0, e0, d1, e1, d2, e2) * x0)
        y2 += c2 * inflow
    s = y0 + y1 + y2
    if not 0.0 < s < math.inf:
        raise NumericInstabilityError(
            f"growth over {duration} days from {x} at rates {rates} "
            f"has no finite nonzero endpoint (sum {s})"
        )
    return (y0 / s, y1 / s, y2 / s)


def _first_difference(a: float, ea: float, b: float, eb: float) -> float:
    """f[a, b] of exp from ea = exp(a) and eb = exp(b), for a, b <= 0, as
    exp(max) * expm1(d) / d with d = min - max: it neither overflows nor cancels."""
    if a > b:
        a, ea, b, eb = b, eb, a, ea
    d = a - b
    return eb if d == 0.0 else eb * (math.expm1(d) / d)


def _second_difference(a: float, ea: float, b: float, eb: float, c: float, ec: float) -> float:
    """f[a, b, c] of exp from the three exponentials, for a, b, c <= 0.

    Ordered as a <= b <= c with spread w = c - a, it is exp(a) times
    sum_k h_k(b - a, w) / (k + 2)! up to _SERIES_SPREAD, h_k being the
    complete homogeneous polynomial of degree k: no term is negative, so
    nothing cancels and equal points need no case of their own. A wider
    spread divides the difference of the adjacent first differences by w.
    Equal points carry equal exponentials, so how ties are ordered is moot.
    """
    if a > b:
        a, ea, b, eb = b, eb, a, ea
    if b > c:
        b, eb, c, ec = c, ec, b, eb
        if a > b:
            a, ea, b, eb = b, eb, a, ea
    w = c - a
    if w > _SERIES_SPREAD:
        return (_first_difference(b, eb, c, ec) - _first_difference(a, ea, b, eb)) / w
    u = b - a
    # term is h_k(u, w) / (k + 2)! and power is w**k / (k + 2)!, from k = 0.
    term = power = total = 0.5
    n = 2.0  # a float, so no division below converts an int
    while term > total * 2.0**-56:
        n += 1.0
        power = power * w / n
        term = u * term / n + power
        total += term
    return ea * total


def _check_mixing(rates: Rates, x: Triple) -> None:
    """Reject integrate_growth's rates, then its fractions, as its docstring lists."""
    for name, value in zip(("v0", "v1", "v2"), rates):
        _VELOCITY.check(name, value)
    for name, rate in zip(("q_mix", "p_mix"), rates[3:]):
        PARAM_TABLE[name].check(name, rate)
    for value in x:
        _FRACTION.check("fractions", value)


def apply_division(counts: Triple, v: Triple, integer_rounding: bool) -> Triple:
    """Each count multiplied by its division factor 2^v_i over one growth
    interval, for the velocities v = (v0, v1, v2): growth_day_detail's last
    step, taking its floats unchecked.

    Raises:
        NumericInstabilityError: if a divided count is too large for a float,
            or an infinite velocity meets an empty compartment.
    """
    y0, y1, y2 = counts
    v0, v1, v2 = v
    try:
        y0, y1, y2 = y0 * 2.0**v0, y1 * 2.0**v1, y2 * 2.0**v2
    except OverflowError:  # a factor past the floats
        y0 = y1 = y2 = math.inf
    if not y0 + y1 + y2 < math.inf:  # also NaN, from an infinite factor times a zero count
        raise NumericInstabilityError(f"cell counts overflow dividing for a day at velocities {v}")
    return _snap(y0, y1, y2) if integer_rounding else (y0, y1, y2)


def growth_day_detail(counts: Triple, params: ModelParams, v2: float) -> tuple[Triple, float]:
    """One growth interval of the (y0, y1, y2) counts, returned as the divided
    counts and the mean velocity phi at the mixing endpoint.

    Stages: evolve the fractions under the velocities (params.v0, params.v1,
    v2), with v2 frozen for the interval, rebuild counts from the endpoint,
    then divide. v2 is the fast-fraction velocity a * v1 * psi at the pulses
    delivered so far (see core._psis): the value a course's records carry.
    simulate_course's step, taking its floats unchecked: counts >= 0 with a
    finite total > 0 and v2 >= 0. integrate_growth checks the day's rates.

    Raises:
        NumericInstabilityError: if the mixing endpoint is not finite or sums
            to zero, or a divided count is too large for a float.
    """
    y0, y1, y2 = counts
    total = y0 + y1 + y2
    v0, v1 = params.v0, params.v1
    x = (y0 / total, y1 / total, y2 / total)
    rates = (v0, v1, v2, params.q_mix, params.p_mix)
    x0, x1, x2 = integrate_growth(rates, x, GROWTH_INTERVAL, GROWTH_INTERVAL)
    # Counts spread over the endpoint, which integrate_growth keeps on the simplex.
    y0, y1, y2 = x0 * total, x1 * total, x2 * total
    counts = _snap(y0, y1, y2) if params.integer_rounding else (y0, y1, y2)
    phi = v0 * x0 + v1 * x1 + v2 * x2
    return apply_division(counts, (v0, v1, v2), params.integer_rounding), phi
