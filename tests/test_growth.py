"""Replicator mixing, fixed-step integration, and the division step."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    NumericInstabilityError,
    PopulationState,
    ReplicatorField,
    VelocityVector,
    apply_division,
    growth_day,
    growth_day_detail,
    integrate_growth,
    mean_velocity,
    replicator_rhs,
    v2_of,
)

from .conftest import euler_mix, random_simplex_points, reference_initial

PAPER_V = VelocityVector(0.01, 0.016, 0.0804010016687521)


def simplex_points(rng: random.Random, count: int):
    return random_simplex_points(rng, count)


def rk4_from_rhs(field, x, duration, step, renormalize=True):
    """Plain fixed-step RK4 composed from replicator_rhs.

    The specification integrate_growth must match bit for bit: the same
    step count, stage points, update order, checks and messages.
    """
    n = max(1, round(duration / step))
    h = duration / n
    for i in range(n):
        try:
            k1 = replicator_rhs(field, x)
            k2 = replicator_rhs(
                field,
                (x[0] + 0.5 * h * k1[0], x[1] + 0.5 * h * k1[1], x[2] + 0.5 * h * k1[2]),
            )
            k3 = replicator_rhs(
                field,
                (x[0] + 0.5 * h * k2[0], x[1] + 0.5 * h * k2[1], x[2] + 0.5 * h * k2[2]),
            )
            k4 = replicator_rhs(
                field, (x[0] + h * k3[0], x[1] + h * k3[1], x[2] + h * k3[2])
            )
        except InvalidStateError as exc:
            raise NumericInstabilityError(
                f"stage point left the simplex at step {i + 1} of {n} "
                f"(t={(i + 1) * h:.4f})"
            ) from exc
        x = (
            x[0] + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            x[1] + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            x[2] + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        )
        if min(x) < -1e-9 or max(x) > 1.0 + 1e-9:
            raise NumericInstabilityError(
                f"component left [0, 1] at step {i + 1} of {n} (t={(i + 1) * h:.4f}): {x}"
            )
    if renormalize and abs(x[0] + x[1] + x[2] - 1.0) > 1e-12:
        total = x[0] + x[1] + x[2]
        x = (x[0] / total, x[1] / total, x[2] / total)
    return x


def outcome(integrate, field, x, duration, step, renormalize=True):
    """The returned triple, or the raised exception's type and message."""
    try:
        return integrate(field, x, duration, step, renormalize)
    except NumericInstabilityError as exc:
        return type(exc), str(exc)


class TestReplicatorRhs:
    def test_fast_corner_is_fixed_point(self):
        field = ReplicatorField(PAPER_V, q_mix=0.3, p_mix=0.7)
        dx = replicator_rhs(field, (0.0, 0.0, 1.0))
        assert dx == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_slow_corner_leaks_through_mixing(self):
        field = ReplicatorField(VelocityVector(0.01, 0.016, 0.08), q_mix=0.1, p_mix=0.0)
        dx = replicator_rhs(field, (1.0, 0.0, 0.0))
        assert dx == pytest.approx((-0.001, 0.001, 0.0), abs=1e-15)

    def test_interior_point_sums_to_zero(self):
        field = ReplicatorField(PAPER_V, q_mix=0.0, p_mix=0.0)
        dx = replicator_rhs(field, (0.6, 0.34, 0.06))
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
        field = ReplicatorField(PAPER_V, q_mix=q, p_mix=p)
        assert abs(sum(replicator_rhs(field, x))) <= 1e-14

    def test_rejects_off_simplex_input(self):
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            replicator_rhs(field, (0.5, 0.5, 0.5))

    def test_rejects_mixing_rate_outside_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            ReplicatorField(PAPER_V, q_mix=1.5, p_mix=0.0)


class TestIntegrateGrowth:
    def test_fast_corner_preserved(self):
        field = ReplicatorField(PAPER_V, 0.2, 0.3)
        out = integrate_growth(field, (0.0, 0.0, 1.0), duration=1.0, step=0.01)
        assert out == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_equal_velocities_freeze_fractions(self):
        field = ReplicatorField(VelocityVector(0.02, 0.02, 0.02), 0.0, 0.0)
        x = (0.6, 0.34, 0.06)
        out = integrate_growth(field, x, duration=1.0, step=0.01)
        assert out == pytest.approx(x, abs=1e-10)

    def test_against_small_step_euler(self):
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        x = (0.6, 0.34, 0.06)
        out = integrate_growth(field, x, duration=1.0, step=0.01)
        assert out[2] > x[2]
        oracle = euler_mix([x], (PAPER_V.v0, PAPER_V.v1, PAPER_V.v2), 0.0, 0.0, 1.0, 1e-5)
        for got, want in zip(out, oracle[0]):
            assert abs(got - want) <= 1e-6

    def test_slow_corner_stationary_only_without_mixing(self):
        x = (1.0, 0.0, 0.0)
        frozen = ReplicatorField(PAPER_V, 0.0, 0.0)
        out = integrate_growth(frozen, x, duration=1.0, step=0.01)
        assert out == pytest.approx(x, abs=1e-12)
        leaky = ReplicatorField(PAPER_V, 0.1, 0.0)
        moved = integrate_growth(leaky, x, duration=1.0, step=0.01)
        assert moved[0] < 1.0 - 1e-5
        assert moved[1] > 1e-5

    def test_monotone_selection_without_mixing(self):
        rng = random.Random(7)
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        for x in simplex_points(rng, 10):
            previous = x[2]
            for _ in range(5):
                x = integrate_growth(field, x, duration=1.0, step=0.01)
                assert x[2] >= previous - 1e-12
                previous = x[2]

    def test_simplex_drift_stays_tiny(self):
        field = ReplicatorField(PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06)
        for _ in range(10):
            x = integrate_growth(field, x, duration=1.0, step=0.01, renormalize=False)
        assert abs(sum(x) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "duration, step", [(0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, 2.0)]
    )
    def test_rejects_bad_spans(self, duration, step):
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            integrate_growth(field, (0.6, 0.34, 0.06), duration, step)

    def test_instability_names_the_step(self):
        field = ReplicatorField(VelocityVector(0.0, 0.0, 20.0), 0.0, 0.0)
        with pytest.raises(NumericInstabilityError, match="step"):
            integrate_growth(field, (0.5, 0.49, 0.01), duration=3.0, step=1.0)


    def test_infinite_velocity_fails_instead_of_returning_nan(self):
        # inf * 0 puts NaN next to -inf in a stage point; each component is
        # tested on its own, so the NaN cannot mask the -inf.
        field = ReplicatorField(VelocityVector(0.01, 0.016, float("inf")), 0.0, 0.0)
        with pytest.raises(NumericInstabilityError, match="stage point .* step 1 of 2"):
            integrate_growth(field, (0.0, 0.5, 0.5), duration=1.0, step=0.5)


class TestKernelMatchesSpec:
    """integrate_growth equals RK4 composed from replicator_rhs, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(
        ab=st.tuples(
            st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
        v0=st.floats(min_value=0.0, max_value=1.0),
        v1=st.floats(min_value=0.0, max_value=2.0),
        v2=st.floats(min_value=0.0, max_value=30.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        p=st.floats(min_value=0.0, max_value=1.0),
        duration=st.floats(min_value=0.01, max_value=3.0),
        steps=st.integers(min_value=1, max_value=200),
        renormalize=st.booleans(),
    )
    def test_equals_rk4_of_replicator_rhs(
        self, ab, v0, v1, v2, q, p, duration, steps, renormalize
    ):
        lo, hi = sorted(ab)
        x = (lo, hi - lo, 1.0 - hi)
        field = ReplicatorField(VelocityVector(v0, v1, v2), q, p)
        step = duration / steps
        want = outcome(rk4_from_rhs, field, x, duration, step, renormalize)
        got = outcome(integrate_growth, field, x, duration, step, renormalize)
        assert got == want

    def test_equals_rk4_of_replicator_rhs_on_seeded_fields(self):
        # A one-ulp change in a single stage surfaces in about 1% of these.
        rng = random.Random(2)
        for _ in range(1000):
            lo, hi = sorted((rng.random(), rng.random()))
            x = (lo, hi - lo, 1.0 - hi)
            v = VelocityVector(rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 30))
            field = ReplicatorField(v, rng.random(), rng.random())
            duration = rng.uniform(0.01, 3.0)
            step = duration / rng.randint(1, 20)
            want = outcome(rk4_from_rhs, field, x, duration, step)
            assert outcome(integrate_growth, field, x, duration, step) == want

    def test_paper_day_equals_spec(self):
        field = ReplicatorField(PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06)
        assert integrate_growth(field, x, 1.0, 0.01, False) == rk4_from_rhs(
            field, x, 1.0, 0.01, False
        )

    def test_stage_point_message(self):
        field = ReplicatorField(VelocityVector(0.0, 0.0, 25.0), 0.0, 0.0)
        x = (0.5, 0.49, 0.01)
        got = outcome(integrate_growth, field, x, 2.0, 0.25)
        assert got == (
            NumericInstabilityError,
            "stage point left the simplex at step 2 of 8 (t=0.5000)",
        )
        assert got == outcome(rk4_from_rhs, field, x, 2.0, 0.25)

    def test_endpoint_message(self):
        field = ReplicatorField(VelocityVector(0.0, 0.0, 20.0), 0.0, 0.0)
        x = (0.5, 0.49, 0.01)
        got = outcome(integrate_growth, field, x, 3.0, 1.0)
        assert got[0] is NumericInstabilityError
        assert got[1].startswith("component left [0, 1] at step 1 of 3 (t=1.0000): (-0.30")
        assert got == outcome(rk4_from_rhs, field, x, 3.0, 1.0)

    @pytest.mark.parametrize(
        "x", [(0.5, 0.5, 0.5), (0.2, 0.2, 0.2), (-1e-8, 0.5, 0.5 + 1e-8), (0.5, 1.0, -0.5)]
    )
    def test_off_simplex_input_is_a_stage_one_failure(self, x):
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        got = outcome(integrate_growth, field, x, 1.0, 0.5)
        assert got == (
            NumericInstabilityError,
            "stage point left the simplex at step 1 of 2 (t=0.5000)",
        )
        assert got == outcome(rk4_from_rhs, field, x, 1.0, 0.5)


class TestApplyDivision:
    def test_zero_velocities_is_identity_on_counts(self):
        state = PopulationState(100.0, 100.0, 100.0)
        out = apply_division(state, VelocityVector(0.0, 0.0, 0.0), 1.0)
        assert (out.y0, out.y1, out.y2) == (100.0, 100.0, 100.0)
        assert out.phase == "post_growth"

    def test_doubling_factors(self):
        state = PopulationState(100.0, 100.0, 100.0)
        v = VelocityVector(0.01, 0.016, 0.08)
        out = apply_division(state, v, 1.0)
        expected = tuple(100.0 * 2.0**rate for rate in (0.01, 0.016, 0.08))
        assert (out.y0, out.y1, out.y2) == pytest.approx(expected, rel=1e-15)
        assert out.y0 == pytest.approx(100.69555500567189, rel=1e-12)
        snapped = apply_division(state, v, 1.0, integer_rounding=True)
        assert (snapped.y0, snapped.y1, snapped.y2) == (101.0, 101.0, 106.0)

    def test_duration_scales_exponent(self):
        state = PopulationState(50.0, 0.0, 0.0)
        v = VelocityVector(0.5, 0.0, 0.0)
        out = apply_division(state, v, 2.0)
        assert out.y0 == pytest.approx(50.0 * 2.0, rel=1e-15)

    @settings(deadline=None)
    @given(
        y0=st.floats(min_value=0.0, max_value=1e9),
        y1=st.floats(min_value=0.0, max_value=1e9),
        y2=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_total_is_sum_of_scaled_components(self, y0, y1, y2):
        v = VelocityVector(0.01, 0.016, 0.08)
        out = apply_division(PopulationState(y0, y1, y2), v, 1.0)
        expected = y0 * 2.0**0.01 + y1 * 2.0**0.016 + y2 * 2.0**0.08
        assert out.total() == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(InvalidParameterError):
            apply_division(PopulationState(1.0, 1.0, 1.0), PAPER_V, 0.0)

    @pytest.mark.parametrize("integer_rounding", [False, True])
    @pytest.mark.parametrize(
        "state, v",
        [
            # 2^v2 is beyond float range although the fast compartment is empty.
            (PopulationState(0.0, 1000.0, 0.0), VelocityVector(0.01, 100.0, 1e302)),
            # Every factor is finite but the counts overflow.
            (PopulationState(1e300, 1e308, 0.0), VelocityVector(0.01, 5.0, 25.0)),
        ],
    )
    def test_overflowing_counts_are_numeric_instability(self, state, v, integer_rounding):
        with pytest.raises(NumericInstabilityError, match="cell counts overflow"):
            apply_division(state, v, 1.0, integer_rounding)


class TestGrowthDay:
    def test_degenerate_parameters_are_identity(self):
        params = ModelParams(v0=0.0, v1=0.0, a=1.0, theta=0.0, integer_rounding=False)
        state = PopulationState(100.0, 50.0, 25.0)
        out = growth_day(state, params, pulses=0)
        assert (out.y0, out.y1, out.y2) == pytest.approx((100.0, 50.0, 25.0), rel=1e-12)

    def test_first_reference_day_total(self, golden):
        params = ModelParams(weeks=7)
        out = growth_day(reference_initial(), params, pulses=1)
        row = next(r for r in golden if r.day == 1 and r.phase == "post_growth")
        target = row.y0 + row.y1 + row.y2
        assert target == 625950700.0
        assert abs(out.total() - target) / target <= 0.005

    def test_division_ratio_tracks_mean_velocity(self):
        # Over one day the total multiplies by roughly 2**phi; the gap is
        # only the spread between per-component doubling and the mean rate.
        start = reference_initial()
        detail = growth_day_detail(start, ModelParams(weeks=7), pulses=1)
        ratio = detail.state.total() / start.total()
        assert ratio == pytest.approx(2.0**detail.phi, rel=1e-3)
        assert ratio == pytest.approx(625950700.0 / 618783392.0, rel=1e-3)

    def test_symmetric_velocities_scale_total_only(self):
        params = ModelParams(
            v0=0.02, v1=0.02, a=1.0, theta=0.0, integer_rounding=False
        )
        assert v2_of(params, 0, "radiation") == pytest.approx(0.02, rel=1e-15)
        state = PopulationState(600.0, 340.0, 60.0)
        out = growth_day(state, params, pulses=0)
        before = state.fractions()
        after = out.fractions()
        assert after == pytest.approx(before, abs=1e-9)
        assert out.total() == pytest.approx(1000.0 * 2.0**0.02, rel=1e-10)

    def test_detail_reports_frozen_velocity_and_phi(self):
        params = ModelParams(weeks=7, integer_rounding=False)
        detail = growth_day_detail(reference_initial(), params, pulses=1)
        assert detail.v2 == v2_of(params, 1, "radiation")
        assert detail.drift <= 1e-12
        assert not detail.renormalized
        # phi is the mean velocity of the evolved fractions, before division
        # reweights them.
        v = VelocityVector(params.v0, params.v1, detail.v2)
        post = detail.state.fractions()
        assert post is not None
        assert detail.phi == pytest.approx(mean_velocity(post, v), rel=0.02)

    def test_rejects_empty_population(self):
        params = ModelParams()
        with pytest.raises(InvalidStateError):
            growth_day(PopulationState(0.0, 0.0, 0.0), params, pulses=0)

    def test_weekend_period_uses_weekend_damping(self):
        params = ModelParams(q_mix=0.1, p_mix=0.1, integer_rounding=False)
        state = PopulationState(600.0, 340.0, 60.0)
        weekday = growth_day_detail(state, params, pulses=5, period="radiation")
        weekend = growth_day_detail(state, params, pulses=5, period="weekend")
        assert weekday.v2 == v2_of(params, 5, "radiation")
        assert weekend.v2 == v2_of(params, 5, "weekend")
        assert weekend.v2 != weekday.v2
