"""Replicator mixing, the exact growth day, and the division step."""

from __future__ import annotations

import decimal
import math
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    NumericInstabilityError,
    PopulationState,
    apply_division,
    growth_day_detail,
    integrate_growth,
    load_config,
    simulate_course,
    v2_of,
)
from repopsim import growth
from repopsim.core import PARAM_TABLE, check_simplex

from .conftest import (
    REFERENCE_COUNTS,
    decimal_growth_day,
    euler_mix,
    mean_velocity,
    random_simplex_points,
    reference_initial,
)

PAPER_V = (0.01, 0.016, 0.0804010016687521)


def simplex_points(rng: random.Random, count: int):
    return random_simplex_points(rng, count)


def replicator_rhs(rates, x):
    """Time derivative of the fraction triple under the replicator field
    with rates (v0, v1, v2, q_mix, p_mix).

    The field whose exact flow integrate_growth computes. The three
    components sum to Phi * (1 - sum(x)), hence to zero on the simplex,
    which is what keeps the integration on the simplex without any forced
    renormalization.

    Raises:
        InvalidStateError: if x is off the simplex beyond tolerance.
    """
    v0, v1, v2, q_mix, p_mix = rates
    phi = mean_velocity(x, (v0, v1, v2))
    return (
        v0 * x[0] * (1.0 - q_mix) - x[0] * phi,
        v1 * x[1] * (1.0 - p_mix) + v0 * x[0] * q_mix - x[1] * phi,
        v2 * x[2] + v1 * x[1] * p_mix - x[2] * phi,
    )


def rk4_from_rhs(rates, x, duration, step):
    """Plain fixed-step RK4 composed from replicator_rhs: the oracle that
    integrate_growth once unrolled, now checked against its exact day."""
    n = max(1, round(duration / step))
    h = duration / n
    for _ in range(n):
        k1 = replicator_rhs(rates, x)
        k2 = replicator_rhs(rates, tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1)))
        k3 = replicator_rhs(rates, tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2)))
        k4 = replicator_rhs(rates, tuple(xi + h * ki for xi, ki in zip(x, k3)))
        x = tuple(
            xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        )
    return x


class TestReplicatorRhs:
    def test_fast_corner_is_fixed_point(self):
        rates = (*PAPER_V, 0.3, 0.7)
        dx = replicator_rhs(rates, (0.0, 0.0, 1.0))
        assert dx == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_slow_corner_leaks_through_mixing(self):
        rates = (0.01, 0.016, 0.08, 0.1, 0.0)
        dx = replicator_rhs(rates, (1.0, 0.0, 0.0))
        assert dx == pytest.approx((-0.001, 0.001, 0.0), abs=1e-15)

    def test_interior_point_sums_to_zero(self):
        rates = (*PAPER_V, 0.0, 0.0)
        dx = replicator_rhs(rates, (0.6, 0.34, 0.06))
        assert abs(sum(dx)) <= 1e-14
        assert dx[2] > 0.0

    @settings(deadline=None)
    @given(data=st.data())
    def test_components_sum_to_zero_on_simplex(self, data):
        a = data.draw(st.floats(min_value=0.0, max_value=1.0))
        b = data.draw(st.floats(min_value=0.0, max_value=1.0))
        lo, hi = min(a, b), max(a, b)
        x = (lo, hi - lo, 1.0 - hi)
        q = data.draw(st.floats(min_value=0.0, max_value=1.0))
        p = data.draw(st.floats(min_value=0.0, max_value=1.0))
        rates = (*PAPER_V, q, p)
        assert abs(sum(replicator_rhs(rates, x))) <= 1e-14

    def test_rejects_off_simplex_input(self):
        rates = (*PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            replicator_rhs(rates, (0.5, 0.5, 0.5))


class TestIntegrateGrowth:
    def test_rejects_mixing_rate_outside_unit_interval(self):
        with pytest.raises(InvalidParameterError, match=r"^q_mix must lie in \[0, 1\], got 1.5$"):
            integrate_growth((*PAPER_V, 1.5, 0.0), (0.6, 0.34, 0.06), 1.0, 0.01)

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0, 0, 1, 0.5, 1.5, -1e-300, 2, True, "0.5", None, math.nan, math.inf],
    )
    def test_mixing_rate_checked_as_the_parameter_table_checks_it(self, value):
        # A float or int rate in [0, 1] lies inside the bound and meets no
        # check; every other value meets the table's check and message.
        for name in ("q_mix", "p_mix"):
            try:
                PARAM_TABLE[name].check(name, value)
            except InvalidParameterError as exc:
                want = str(exc)
            else:
                want = None
            rates = {"q_mix": 0.5, "p_mix": 0.5, name: value}
            try:
                integrate_growth(
                    (*PAPER_V, rates["q_mix"], rates["p_mix"]), (0.6, 0.34, 0.06), 1.0, 0.01
                )
            except InvalidParameterError as exc:
                got = str(exc)
            else:
                got = None
            assert got == want

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_negative_velocity_message_names_the_component(self, index, bad):
        v = [0.01, 0.016, 0.08]
        v[index] = bad
        with pytest.raises(InvalidParameterError, match=f"^v{index} must be >= 0, got {bad}$"):
            integrate_growth((*v, 0.0, 0.0), (0.6, 0.34, 0.06), 1.0, 0.01)

    def test_fast_corner_preserved(self):
        rates = (*PAPER_V, 0.2, 0.3)
        out = integrate_growth(rates, (0.0, 0.0, 1.0), duration=1.0, step=0.01)
        assert out == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_equal_velocities_freeze_fractions(self):
        rates = (0.02, 0.02, 0.02, 0.0, 0.0)
        x = (0.6, 0.34, 0.06)
        out = integrate_growth(rates, x, duration=1.0, step=0.01)
        assert out == pytest.approx(x, abs=1e-10)

    def test_against_small_step_euler(self):
        rates = (*PAPER_V, 0.0, 0.0)
        x = (0.6, 0.34, 0.06)
        out = integrate_growth(rates, x, duration=1.0, step=0.01)
        assert out[2] > x[2]
        oracle = euler_mix([x], PAPER_V, 0.0, 0.0, 1.0, 1e-5)
        for got, want in zip(out, oracle[0]):
            assert abs(got - want) <= 1e-6

    def test_slow_corner_stationary_only_without_mixing(self):
        x = (1.0, 0.0, 0.0)
        frozen = (*PAPER_V, 0.0, 0.0)
        out = integrate_growth(frozen, x, duration=1.0, step=0.01)
        assert out == pytest.approx(x, abs=1e-12)
        leaky = (*PAPER_V, 0.1, 0.0)
        moved = integrate_growth(leaky, x, duration=1.0, step=0.01)
        assert moved[0] < 1.0 - 1e-5
        assert moved[1] > 1e-5

    def test_monotone_selection_without_mixing(self):
        rng = random.Random(7)
        rates = (*PAPER_V, 0.0, 0.0)
        for x in simplex_points(rng, 10):
            previous = x[2]
            for _ in range(5):
                x = integrate_growth(rates, x, duration=1.0, step=0.01)
                assert x[2] >= previous - 1e-12
                previous = x[2]

    def test_simplex_drift_stays_tiny(self):
        rates = (*PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06)
        for _ in range(10):
            x = integrate_growth(rates, x, duration=1.0, step=0.01)
        assert abs(sum(x) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "duration, step", [(0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, 2.0)]
    )
    def test_rejects_bad_spans(self, duration, step):
        rates = (*PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            integrate_growth(rates, (0.6, 0.34, 0.06), duration, step)

    def test_rejects_an_infinite_duration(self):
        rates = (*PAPER_V, 0.0, 0.0)
        message = "^duration must be finite, got inf$"
        with pytest.raises(InvalidParameterError, match=message):
            integrate_growth(rates, (0.6, 0.34, 0.06), math.inf, 1.0)

    def test_infinite_velocity_fails_instead_of_returning_nan(self):
        # inf - inf in the shifted diagonal is NaN, which the endpoint test catches.
        rates = (0.01, 0.016, float("inf"), 0.0, 0.0)
        with pytest.raises(NumericInstabilityError, match="no finite nonzero endpoint"):
            integrate_growth(rates, (0.0, 0.5, 0.5), duration=1.0, step=0.5)

    @pytest.mark.parametrize(
        "x", [(-1e-12, 0.5, 0.5 + 1e-12), (math.nan, 0.5, 0.5), (0.5, 1.0, -0.5)]
    )
    def test_negative_or_nan_fraction_is_invalid_state(self, x):
        with pytest.raises(InvalidStateError, match="^fractions must be >= 0"):
            integrate_growth((*PAPER_V, 0.1, 0.1), x, 1.0, 0.01)

    def test_empty_input_has_no_endpoint(self):
        with pytest.raises(NumericInstabilityError, match="no finite nonzero endpoint"):
            integrate_growth((*PAPER_V, 0.1, 0.1), (0.0, 0.0, 0.0), 1.0, 0.01)

    @pytest.mark.parametrize("step", [1.0, 0.5, 0.01, 1e-300])
    def test_step_does_not_change_the_result(self, step):
        rates = (*PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06)
        assert integrate_growth(rates, x, 1.0, step) == integrate_growth(rates, x, 1.0, 1.0)

    @pytest.mark.parametrize(
        "duration, step", [(1e308, 1e-10), (1e6, 1e-4), (1.0, 1 / (10**6 + 1))]
    )
    def test_huge_duration_to_step_ratios_cost_one_day(self, duration, step):
        # Under RK4 these asked for 1e318, 1e10 and 1000001 steps.
        rates = (*PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06)
        got = integrate_growth(rates, x, duration, step)
        assert got == integrate_growth(rates, x, duration, duration)
        assert all(c >= 0.0 for c in got) and abs(sum(got) - 1.0) <= 4 * U

    @pytest.mark.parametrize("x", [(0.5, 0.5, 0.5), (0.2, 0.2, 0.2)])
    def test_off_simplex_input_ends_where_its_projection_does(self, x):
        # exp(A) is linear, so a start off the simplex by a positive factor
        # ends at the same point as its projection onto the simplex.
        rates = (*PAPER_V, 0.1, 0.1)
        got = integrate_growth(rates, x, 1.0, 0.01)
        want = integrate_growth(rates, (1 / 3, 1 / 3, 1 / 3), 1.0, 0.01)
        assert got == pytest.approx(want, rel=8 * U, abs=0.0)

    @pytest.mark.parametrize("x", [(0.5, 0.3, 0.2), (0.6, 0.34, 0.06), (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("v", [2.0**-6, 0.5, 5.0, 1e300])
    def test_equal_velocities_without_mixing_keep_the_fractions(self, v, x):
        # Equal diagonal entries shift to 0, so exp(A) x is x itself and only
        # the normalization rounds.
        got = integrate_growth((v, v, v, 0.0, 0.0), x, 1.0, 1.0)
        assert got == tuple(c / sum(x) for c in x)


# Unit roundoff of a double.
U = 2.0**-53


def seeded_field(rng: random.Random, i: int):
    """Rates and a start point: random, with every fifth field's two first
    diagonal entries equal, every third v2 at or within 1e-9 of v1(1-p), q
    and p often exactly 0 or 1, and every seventh start a simplex vertex."""
    q = rng.choice([0.0, 1.0, rng.random(), rng.random()])
    p = rng.choice([0.0, 1.0, rng.random(), rng.random()])
    v0, v1, v2 = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 2)
    if i % 5 == 0:
        v0, q = v1, p  # v0(1-q) = v1(1-p) in floating point too
    if i % 3 == 0:
        v2 = v1 * (1.0 - p) * (1.0 + rng.choice([0.0, 1e-9, -1e-9, 1e-13]))
    if i % 7 == 0:
        x = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[rng.randrange(3)]
    else:
        x = random_simplex_points(rng, 1)[0]
    return (v0, v1, v2, q, p), x


# A velocity: zero, subnormal, huge, or any in between.
_VELOCITY = st.sampled_from([0.0, 5e-324, 1e300]) | st.floats(0.0, 1e300)
# A mixing rate: either end of [0, 1], or any in between.
_RATE = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def growth_rates(draw):
    """(v0, v1, v2, q_mix, p_mix): any velocities up to 1e300, or velocities
    whose diagonal entries spread about growth._SERIES_SPREAD, on either side."""
    if draw(st.booleans()):
        return (draw(_VELOCITY), draw(_VELOCITY), draw(_VELOCITY), draw(_RATE), draw(_RATE))
    edge = growth._SERIES_SPREAD
    at_edge = st.sampled_from([edge * (1 - 1e-12), edge, edge * (1 + 1e-12)])
    spread = draw(at_edge | st.floats(0.0, 4 * edge))
    low = draw(st.floats(0.0, 100.0))
    middle = low + draw(st.floats(0.0, 1.0)) * spread
    d0, d1, d2 = draw(st.permutations([low, middle, low + spread]))
    q, p = draw(st.floats(0.0, 0.99)), draw(st.floats(0.0, 0.99))
    return (d0 / (1.0 - q), d1 / (1.0 - p), d2, q, p)


class TestExactDay:
    """integrate_growth against a 50-digit reference, against RK4, and on extreme inputs."""

    def test_within_a_few_units_of_a_decimal_reference(self):
        # Per component, in units of U: 3 for the shifted diagonal and its
        # exponentials, 5 for a first difference (expm1, a division and a
        # product), 6 for the second difference's series or its division by
        # the spread, 4 for the products and sums that build the endpoint and
        # 3 for its normalization. Every term is >= 0, so no sum amplifies an
        # error; 3 * max(d) more covers the rounding of the diagonal entries,
        # which the exponentials scale by their size.
        rng = random.Random(16)
        for i in range(2400):
            rates, x = seeded_field(rng, i)
            got = integrate_growth(rates, x, 1.0, 0.01)
            want = decimal_growth_day(rates, x)
            bound = (21 + 3 * max(rates[:3])) * U
            for g, w in zip(got, want):
                assert abs(decimal.Decimal(g) - w) <= decimal.Decimal(bound) * w, (rates, x)

    def test_agrees_with_rk4_at_step_0_01(self):
        # Velocities of the paper's size, where RK4's own error at step 0.01
        # stays far below 1e-12.
        rng = random.Random(9)
        for _ in range(200):
            rates = (rng.uniform(0, 0.05), rng.uniform(0, 0.05), rng.uniform(0, 0.2))
            rates += (rng.random(), rng.random())
            x = random_simplex_points(rng, 1)[0]
            got = integrate_growth(rates, x, 1.0, 0.01)
            want = rk4_from_rhs(rates, x, 1.0, 0.01)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    @settings(deadline=None, max_examples=400)
    @given(
        v=st.tuples(*[st.sampled_from([0.0, 5e-324, 1e-310, 1e300]) | st.floats(0.0, 1e300)] * 3),
        q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        ab=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2),
    )
    def test_extreme_inputs_give_a_simplex_point_or_numeric_instability(self, v, q, p, ab):
        lo, hi = sorted(ab)
        x = (lo, hi - lo, 1.0 - hi)
        try:
            got = integrate_growth((*v, q, p), x, 1.0, 1.0)
        except NumericInstabilityError:
            return
        assert all(math.isfinite(c) and c >= 0.0 for c in got)
        assert abs(sum(got) - 1.0) <= 4 * U

    @settings(deadline=None, max_examples=400)
    @given(
        rates=growth_rates(),
        x=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e300)] * 3),
    )
    def test_every_endpoint_passes_check_simplex_or_raises_numeric_instability(self, rates, x):
        # x is any nonnegative triple, on the simplex or off it, empty
        # compartments included: the endpoint is normalized, so no caller
        # checks it again.
        try:
            got = integrate_growth(rates, x, 1.0, 1.0)
        except NumericInstabilityError:
            return
        check_simplex("endpoint", got)

    @settings(deadline=None, max_examples=200)
    @given(
        v2=st.sampled_from([0.0, 5e-324, 1.0, 1e300]) | st.floats(0.0, 1e300),
        x0=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
    )
    def test_an_empty_fast_compartment_with_no_inflow_takes_no_part(self, v2, x0, q):
        # p = 0 cuts the fast compartment off, so whatever v2 is, the day is
        # the day of the two other compartments: the answer RK4 gave too.
        x = (x0, 1.0 - x0, 0.0)
        got = integrate_growth((0.01, 0.016, v2, q, 0.0), x, 1.0, 0.01)
        want = integrate_growth((0.01, 0.016, 0.0, q, 0.0), x, 1.0, 0.01)
        assert got == want
        assert got[2] == 0.0

    @pytest.mark.parametrize("vertex", [0, 1, 2])
    def test_a_vertex_with_a_huge_velocity_and_no_outflow_stays_put(self, vertex):
        x = tuple(float(i == vertex) for i in range(3))
        v = [0.01, 0.016, 0.08]
        v[vertex] = 1e300
        assert integrate_growth((*v, 0.0, 0.0), x, 1.0, 0.01) == x

    @pytest.mark.parametrize("order", ["rising", "falling"])
    @pytest.mark.parametrize(
        "spread", [0.0, 1e-300, 1e-9, 0.25, 0.5, 0.5 * (1 + 1e-12), 0.75, 5.0, 50.0, 500.0]
    )
    def test_second_difference_on_both_sides_of_the_series_spread(self, spread, order):
        # Diagonal entries 1, 1 + spread/3 and 1 + spread, or the reverse,
        # with q = p = 1/2 so both inflows carry cells: the second difference
        # comes from its series up to growth._SERIES_SPREAD and from the
        # division by the spread past it. The bound is the decimal test's.
        diagonal = [1.0, 1.0 + spread / 3, 1.0 + spread]
        if order == "falling":
            diagonal.reverse()
        rates = (2 * diagonal[0], 2 * diagonal[1], diagonal[2], 0.5, 0.5)
        x = (0.6, 0.34, 0.06)
        got = integrate_growth(rates, x, 1.0, 1.0)
        want = decimal_growth_day(rates, x)
        bound = decimal.Decimal((21 + 3 * max(rates[:3])) * U)
        for g, w in zip(got, want):
            assert abs(decimal.Decimal(g) - w) <= bound * w

    @pytest.mark.parametrize("name", ["baseline.json", "mixing.json", None])
    def test_shipped_courses_match_the_decimal_day(self, name, monkeypatch):
        # Every growth day of the two shipped configs and of the course
        # `check` runs (ModelParams() from the reference population), within
        # the decimal test's bound of the 50-digit day from the same start.
        if name is None:
            params, initial = ModelParams(), reference_initial()
        else:
            config = load_config(str(resources.files("repopsim").joinpath("data", name)))
            params, initial = config.params, config.initial
        days = []

        def integrate(rates, x, duration, step):
            got = integrate_growth(rates, x, duration, step)
            days.append((rates, x, duration, got))
            return got

        monkeypatch.setattr(growth, "integrate_growth", integrate)
        simulate_course(params, initial)
        assert days
        for rates, x, duration, got in days:
            want = decimal_growth_day(rates, x, duration)
            bound = decimal.Decimal((21 + 3 * duration * max(rates[:3])) * U)
            for g, w in zip(got, want):
                assert abs(decimal.Decimal(g) - w) <= bound * w, (rates, x)


class TestApplyDivision:
    @pytest.mark.parametrize("integer_rounding", [False, True])
    def test_negative_count_is_rejected(self, integer_rounding):
        # The counts obey check_counts' rule, as apply_pulse's do; a negative
        # count once came back divided, and negative.
        with pytest.raises(InvalidStateError, match=r"^y0 must be >= 0, got -5\.0$"):
            apply_division((-5.0, 1, 1), (0.01, 0.016, 0.08), integer_rounding)

    def test_zero_velocities_is_identity_on_counts(self):
        state = (100.0, 100.0, 100.0)
        out = PopulationState(*apply_division(state, (0.0, 0.0, 0.0)))
        assert (out.y0, out.y1, out.y2) == (100.0, 100.0, 100.0)

    def test_doubling_factors(self):
        state = (100.0, 100.0, 100.0)
        v = (0.01, 0.016, 0.08)
        out = PopulationState(*apply_division(state, v))
        expected = tuple(100.0 * 2.0**rate for rate in (0.01, 0.016, 0.08))
        assert (out.y0, out.y1, out.y2) == pytest.approx(expected, rel=1e-15)
        assert out.y0 == pytest.approx(100.69555500567189, rel=1e-12)
        snapped = PopulationState(*apply_division(state, v, integer_rounding=True))
        assert (snapped.y0, snapped.y1, snapped.y2) == (101.0, 101.0, 106.0)

    @settings(deadline=None)
    @given(
        y0=st.floats(min_value=0.0, max_value=1e9),
        y1=st.floats(min_value=0.0, max_value=1e9),
        y2=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_total_is_sum_of_scaled_components(self, y0, y1, y2):
        v = (0.01, 0.016, 0.08)
        out = PopulationState(*apply_division((y0, y1, y2), v))
        expected = y0 * 2.0**0.01 + y1 * 2.0**0.016 + y2 * 2.0**0.08
        assert out.total() == pytest.approx(expected, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_negative_velocity_message_names_the_component(self, index, bad):
        v = [0.01, 0.016, 0.08]
        v[index] = bad
        with pytest.raises(InvalidParameterError, match=f"^v{index} must be >= 0, got {bad}$"):
            apply_division((1.0, 1.0, 1.0), tuple(v))

    @pytest.mark.parametrize("integer_rounding", [False, True])
    @pytest.mark.parametrize(
        "state, v",
        [
            # 2^v2 is beyond float range although the fast compartment is empty.
            ((0.0, 1000.0, 0.0), (0.01, 100.0, 1e302)),
            # Every factor is finite but the counts overflow.
            ((1e300, 1e308, 0.0), (0.01, 5.0, 25.0)),
            # An infinite factor times an empty compartment is NaN, not inf.
            ((1000.0, 1000.0, 0.0), (0.01, 0.016, math.inf)),
            ((0.0, 1000.0, 1000.0), (math.inf, 0.016, 0.08)),
        ],
    )
    def test_overflowing_counts_are_numeric_instability(self, state, v, integer_rounding):
        with pytest.raises(NumericInstabilityError, match="cell counts overflow"):
            apply_division(state, v, integer_rounding)


class TestGrowthDay:
    def test_degenerate_parameters_are_identity(self):
        params = ModelParams(v0=0.0, v1=0.0, a=1.0, theta=0.0, integer_rounding=False)
        out, _, _ = growth_day_detail((100.0, 50.0, 25.0), params, v2_of(params, 0, True))
        assert out == pytest.approx((100.0, 50.0, 25.0), rel=1e-12)

    def test_first_reference_day_total(self, golden):
        params = ModelParams(weeks=7)
        out, _, _ = growth_day_detail(REFERENCE_COUNTS, params, v2_of(params, 1, True))
        row = next(r for r in golden if r.day == 1 and r.phase == "post_growth")
        target = row.y0 + row.y1 + row.y2
        assert target == 625950700.0
        assert abs(sum(out) - target) / target <= 0.005

    def test_division_ratio_tracks_mean_velocity(self):
        # Over one day the total multiplies by roughly 2**phi; the gap is
        # only the spread between per-component doubling and the mean rate.
        params = ModelParams(weeks=7)
        out, phi, _ = growth_day_detail(REFERENCE_COUNTS, params, v2_of(params, 1, True))
        ratio = sum(out) / sum(REFERENCE_COUNTS)
        assert ratio == pytest.approx(2.0**phi, rel=1e-3)
        assert ratio == pytest.approx(625950700.0 / 618783392.0, rel=1e-3)

    def test_symmetric_velocities_scale_total_only(self):
        params = ModelParams(
            v0=0.02, v1=0.02, a=1.0, theta=0.0, integer_rounding=False
        )
        assert v2_of(params, 0, True) == pytest.approx(0.02, rel=1e-15)
        out, _, _ = growth_day_detail((600.0, 340.0, 60.0), params, v2_of(params, 0, True))
        before = (600.0 / 1000.0, 340.0 / 1000.0, 60.0 / 1000.0)
        after = tuple(c / sum(out) for c in out)
        assert after == pytest.approx(before, abs=1e-9)
        assert sum(out) == pytest.approx(1000.0 * 2.0**0.02, rel=1e-10)

    def test_detail_reports_phi_and_drift(self):
        params = ModelParams(weeks=7, integer_rounding=False)
        v2 = v2_of(params, 1, True)
        out, phi, drift = growth_day_detail(REFERENCE_COUNTS, params, v2)
        assert drift <= 1e-12
        # phi is the mean velocity of the evolved fractions, before division
        # reweights them.
        v = (params.v0, params.v1, v2)
        post = tuple(c / sum(out) for c in out)
        assert phi == pytest.approx(mean_velocity(post, v), rel=0.02)

    def test_drifted_endpoint_is_reported_and_not_reprojected(self, monkeypatch):
        # Zero velocities make division the identity, so the counts are the
        # kernel's fractions times the total, exactly as it returned them.
        raw = (0.6, 0.3, 0.1 + 1e-10)
        monkeypatch.setattr(
            "repopsim.growth.integrate_growth", lambda rates, x, duration, step: raw
        )
        params = ModelParams(v0=0.0, v1=0.0, integer_rounding=False)
        out, _, drift = growth_day_detail((600.0, 300.0, 100.0), params, v2_of(params, 0, True))
        norm = raw[0] + raw[1] + raw[2]
        assert drift == abs(norm - 1.0)
        assert 1e-12 < drift < 2e-10
        assert out == (raw[0] * 1000.0, raw[1] * 1000.0, raw[2] * 1000.0)
        assert out[2] != raw[2] / norm * 1000.0

    def test_endpoint_checks(self, monkeypatch):
        # The endpoint's guarantee is integrate_growth's own; an endpoint that
        # drifted within rounding is rebuilt and divided as it stands.
        monkeypatch.setattr(
            "repopsim.growth.integrate_growth",
            lambda rates, x, duration, step: (0.6, 0.3, 0.1 + 5e-10),
        )
        params = ModelParams(v0=1.0, v1=0.0, integer_rounding=True)
        out, _, _ = growth_day_detail((600.0, 300.0, 100.0), params, v2_of(params, 0, True))
        assert out == (1200.0, 300.0, 100.0)

    def test_rejects_empty_population(self):
        params = ModelParams()
        with pytest.raises(InvalidStateError):
            growth_day_detail((0.0, 0.0, 0.0), params, v2_of(params, 0, True))
