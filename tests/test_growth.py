"""Replicator mixing, fixed-step integration, and the division step."""

from __future__ import annotations

import math
import random
import re
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
    ReplicatorField,
    VelocityVector,
    apply_division,
    growth_day_detail,
    integrate_growth,
    load_config,
    mean_velocity,
    replicator_rhs,
    simulate_course,
    v2_of,
)
from repopsim import growth
from repopsim.core import GROWTH_INTERVAL, ODE_STEP_FLOOR, PARAM_TABLE, SIMPLEX_TOL

from .conftest import euler_mix, random_simplex_points, reference_initial

PAPER_V = VelocityVector(0.01, 0.016, 0.0804010016687521)


def simplex_points(rng: random.Random, count: int):
    return random_simplex_points(rng, count)


def rk4_from_rhs(field, x, duration, step):
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
    return x


def outcome(integrate, field, x, duration, step):
    """The returned triple, or the raised exception's type and message."""
    try:
        return integrate(field, x, duration, step)
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

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0, 0, 1, 0.5, 1.5, -1e-300, 2, True, "0.5", None, math.nan, math.inf],
    )
    def test_mixing_rate_checked_as_the_parameter_table_checks_it(self, value):
        # Two floats in [0, 1] take a shortcut past the table; every other
        # value meets the table's check and message.
        for name in ("q_mix", "p_mix"):
            try:
                PARAM_TABLE[name].check(name, value)
            except InvalidParameterError as exc:
                want = str(exc)
            else:
                want = None
            rates = {"q_mix": 0.5, "p_mix": 0.5, name: value}
            try:
                ReplicatorField(PAPER_V, **rates)
            except InvalidParameterError as exc:
                got = str(exc)
            else:
                got = None
            assert got == want


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
            x = integrate_growth(field, x, duration=1.0, step=0.01)
        assert abs(sum(x) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "duration, step", [(0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, 2.0)]
    )
    def test_rejects_bad_spans(self, duration, step):
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            integrate_growth(field, (0.6, 0.34, 0.06), duration, step)

    @pytest.mark.parametrize(
        "duration, step, message",
        [
            (math.inf, 1.0, "duration must be finite and > 0, got inf"),
            (1e308, 1e-10, "at most 1000000 steps, got 1e+308 / 1e-10"),
            (1e6, 1e-4, "at most 1000000 steps, got 1000000.0 / 0.0001"),
            (1.0, 1 / (10**6 + 1), "at most 1000000 steps, got 1.0 / 9.9"),
        ],
    )
    def test_rejects_unbounded_step_counts(self, duration, step, message):
        # An infinite ratio once escaped round() as a bare OverflowError, and
        # 1e6 days at 1e-4 would loop 10**10 times.
        field = ReplicatorField(PAPER_V, 0.0, 0.0)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
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
    )
    def test_equals_rk4_of_replicator_rhs(self, ab, v0, v1, v2, q, p, duration, steps):
        lo, hi = sorted(ab)
        x = (lo, hi - lo, 1.0 - hi)
        field = ReplicatorField(VelocityVector(v0, v1, v2), q, p)
        step = duration / steps
        want = outcome(rk4_from_rhs, field, x, duration, step)
        got = outcome(integrate_growth, field, x, duration, step)
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
        assert integrate_growth(field, x, 1.0, 0.01) == rk4_from_rhs(field, x, 1.0, 0.01)

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


class TestStageTestElision:
    """Inside and outside the bound under which the kernel runs no test in its
    loop, it returns and raises exactly what the specification does."""

    C = growth._BOUND_HV
    M = growth._BOUND_DRIFT
    N_MAX = growth._BOUND_STEPS

    @settings(deadline=None, max_examples=400)
    @given(
        duration=st.sampled_from([1.0, 0.05, 0.01]),
        steps=st.sampled_from([1, 2, 5, 20]),
        hv=st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6, 0.1, 10.0]) | st.floats(0.0, 2.0),
        shares=st.tuples(*[st.sampled_from([0.0, 1.0, 1.0 - 1e-6]) | st.floats(0.0, 1.0)] * 3),
        q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        x01=st.tuples(*[st.sampled_from([0.0, -1e-9]) | st.floats(0.0, 1.0)] * 2),
        deviation=st.sampled_from(
            [0.0, 1 - 1e-6, 1 + 1e-6, -1 + 1e-6, -1 - 1e-6, 10.0, -10.0, 10.00001, -10.00001]
        ),
    )
    def test_equals_rk4_of_replicator_rhs_at_the_bound(
        self, duration, steps, hv, shares, q, p, x01, deviation
    ):
        # hv is h * max(v) in units of C; each velocity is a share of that
        # largest one, which reaches 31.25 at hv = 1 and one step of 5e-4
        # days. deviation is x0 + x1 + x2 - 1 in units of M: just inside and
        # outside it, and at and just past +-1e-9, the simplex tolerance.
        h = duration / steps
        v = [share * hv * self.C / h for share in shares]
        v[max(range(3), key=shares.__getitem__)] = hv * self.C / h
        x0, x1 = x01
        if x0 + x1 > 1.0:
            x1 = 1.0 - x0
        x = (x0, x1, 1.0 - x0 - x1 + deviation * self.M)
        field = ReplicatorField(VelocityVector(*v), q, p)
        want = outcome(rk4_from_rhs, field, x, duration, h)
        assert outcome(integrate_growth, field, x, duration, h) == want

    def test_subnormal_components_stay_nonnegative_at_the_bound(self):
        # The lemma behind the bound: from an input with no negative
        # component, every stage point and endpoint component is >= 0 in
        # floating point, underflow included. The inputs put components at 0,
        # at subnormals and where an inflow a0*q or a1*p lands a few units of
        # 2**-1074 from 0, with h*V exactly C.
        rng = random.Random(10)
        tiny = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308]
        rates = [0.0, 1.0, 1e-300, 0.5]
        for _ in range(5000):
            h = rng.choice([1.0, 0.5, 0.1, 0.01, 1e-4, 10.0, 1e3])
            n = rng.choice([1, 2, 3])
            shares = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(3)]
            shares[rng.randrange(3)] = 1.0
            v = []
            for share in shares:
                vi = share * self.C / h
                while h * vi > self.C:
                    vi = math.nextafter(vi, 0.0)
                v.append(vi)
            q, p = rng.choice(rates), rng.choice(rates)
            comps = [rng.choice(tiny) for _ in range(3)]
            source = rng.randrange(2)
            rate = (q, p)[source]
            if v[source] * rate > 0 and rng.random() < 0.5:
                # Make the source's inflow a few subnormal units.
                units = rng.choice([0.5, 1.0, 1.5, 2.5, 3.0, 12.0, 13.0, 40.0])
                comps[source] = min(0.4, units * 5e-324 / (v[source] * rate))
            bulk = rng.randrange(3)
            comps[bulk] = 0.0
            comps[bulk] = 1.0 - sum(comps)
            x = tuple(comps)
            field = ReplicatorField(VelocityVector(*v), q, p)
            want = outcome(rk4_from_rhs, field, x, n * h, h)
            got = outcome(integrate_growth, field, x, n * h, h)
            assert got == want
            assert all(isinstance(c, float) and c >= 0.0 for c in got)

    @pytest.mark.parametrize(
        "x", [(0.5, 0.3, 0.2), (0.5, 0.3, 0.2 + 1e-10), (0.0, -1e-9, 1.0 + 1e-9)]
    )
    @pytest.mark.parametrize(
        "hv", [0.5, 0.5 * (1 + 1e-6), 5.0, growth._BOUND_HV, growth._BOUND_HV * (1 + 1e-6)]
    )
    def test_equal_velocities_at_and_past_the_bound(self, x, hv):
        # With equal velocities the stage points stay near x and each stage
        # multiplies the input's deviation by 1 - c*h*v: at hV = 5 that
        # reaches 22.75 by stage k4, so a deviation of 1e-10 trips the sum
        # test while every component test passes.
        field = ReplicatorField(VelocityVector(hv, hv, hv), 0.0, 0.0)
        want = outcome(rk4_from_rhs, field, x, 1.0, 1.0)
        assert outcome(integrate_growth, field, x, 1.0, 1.0) == want
        if hv == 5.0 and x[2] == 0.2 + 1e-10:
            assert want == (
                NumericInstabilityError,
                "stage point left the simplex at step 1 of 1 (t=1.0000)",
            )

    def test_input_component_below_the_tolerance_fails_at_step_one(self):
        # The sum is exact, but x0 < 0 puts the input outside the bound; only
        # the component test, made once before the loop, catches x0. The
        # stage points after it have x0 scaled by 3/4 and 1/2, back inside
        # the tolerance.
        field = ReplicatorField(VelocityVector(0.0, 0.0, 0.5), 0.0, 0.0)
        x = (-1.2e-9, 0.0, 1.0 + 1.2e-9)
        want = (NumericInstabilityError, "stage point left the simplex at step 1 of 1 (t=1.0000)")
        assert outcome(rk4_from_rhs, field, x, 1.0, 1.0) == want
        assert outcome(integrate_growth, field, x, 1.0, 1.0) == want

    def test_negative_input_component_takes_the_checked_path(self):
        # Every other premise holds: h*v0 = C, the sum is exact. x0 starts
        # inside the tolerance, but component 0 is the fastest and grows by
        # about 1 + C a step, so it passes -1e-9 at a stage point of step 7.
        field = ReplicatorField(VelocityVector(self.C, 0.0, 0.0), 0.0, 0.0)
        x = (-9e-10, 1.0 + 9e-10, 0.0)
        want = (NumericInstabilityError, "stage point left the simplex at step 7 of 20 (t=7.0000)")
        assert outcome(rk4_from_rhs, field, x, 20.0, 1.0) == want
        assert outcome(integrate_growth, field, x, 20.0, 1.0) == want

    @pytest.mark.parametrize("extra", [0, 1])
    def test_step_count_at_the_bound(self, extra):
        steps = self.N_MAX + extra
        field = ReplicatorField(PAPER_V, 0.1, 0.1)
        x = (0.6, 0.34, 0.06 + 1e-10)
        want = outcome(rk4_from_rhs, field, x, 1.0, 1.0 / steps)
        assert outcome(integrate_growth, field, x, 1.0, 1.0 / steps) == want

    @pytest.mark.parametrize(
        "v2, q, x",
        [
            (math.nan, 0.0, (0.6, 0.34, 0.06)),
            (-0.08, 0.0, (0.6, 0.34, 0.06)),
            (0.08, math.nan, (0.6, 0.34, 0.06)),
            (0.08, 1.5, (0.6, 0.34, 0.06)),
            (0.08, 0.0, (math.nan, 0.5, 0.5)),
            (0.08, 0.0, (0.0, 0.0, math.inf)),
        ],
    )
    def test_nan_inf_or_negative_values_take_the_tested_path(self, v2, q, x):
        # The constructors reject each of these v2 and q values, but both
        # types are mutable. An infinite velocity has its own test above,
        # where the kernel's per-component tests differ from min().
        field = ReplicatorField(VelocityVector(0.01, 0.016, 0.08), 0.0, 0.0)
        field.v.v2, field.q_mix = v2, q
        got = outcome(integrate_growth, field, x, 1.0, 0.5)
        assert repr(got) == repr(outcome(rk4_from_rhs, field, x, 1.0, 0.5))

    @pytest.mark.parametrize("name", ["baseline.json", "mixing.json", None])
    def test_shipped_courses_run_inside_the_bound(self, name, monkeypatch):
        # The two shipped configs and the course `check` runs (ModelParams()
        # from the reference population) keep every growth day inside the
        # bound, so their RK4 loops run no test. v2 = a*v1*psi with psi <=
        # e**theta, so max(v0, v1, a*v1*e**theta) bounds every velocity.
        if name is None:
            params, initial = ModelParams(), reference_initial()
        else:
            config = load_config(str(resources.files("repopsim").joinpath("data", name)))
            params, initial = config.params, config.initial
        n = round(GROWTH_INTERVAL / params.ode_step)
        top = max(params.v0, params.v1, params.a * params.v1 * math.exp(params.theta))
        assert n <= self.N_MAX
        assert GROWTH_INTERVAL / n * top <= self.C
        days = []

        def integrate(field, x, duration, step):
            days.append(min(x) >= 0.0 and abs(x[0] + x[1] + x[2] - 1.0) <= self.M)
            return integrate_growth(field, x, duration, step)

        monkeypatch.setattr(growth, "integrate_growth", integrate)
        simulate_course(params, initial)
        assert days and all(days)

    def test_proof_premises(self):
        # Each constant the comment above the flag in growth.py states,
        # rederived from C, M, N_MAX and delta.
        C, M, N_MAX = self.C, self.M, self.N_MAX
        u = 2.0**-53
        # Every growth day of a course fits in N_MAX steps.
        assert round(GROWTH_INTERVAL / ODE_STEP_FLOOR) <= N_MAX
        # Part 1. The per-step rounding bound is derived for hV <= 1/2 and
        # comes to 16 unit roundoffs; the closing one must also cover 20.
        delta = growth._BOUND_ROUNDING
        assert C <= 0.5
        assert delta >= 20 * u
        # The deviation bound at every stage point stays inside the tolerance.
        growth_factor = (1 + 7 * SIMPLEX_TOL * C) ** (N_MAX + 1)
        assert (M + (N_MAX + 1) * delta) * growth_factor < 1.4e-10 < SIMPLEX_TOL
        # Part 2. h phi^ <= C1 from h v_i <= C(1 + 2u), a sum within 1.4e-10
        # of 1, and h s <= 2**-50.
        C1 = 1.001 * C
        assert (C * (1 + 2 * u) * (1 + 1.4e-10) * (1 + u) + 1.5 * 2.0**-50) * (1 + u) ** 2 <= C1
        # Q at x, and case a.
        assert 2 * C1 < 1 / 5 and 10 * C1 * (1 + u) < 1 / 5
        # From Q: the stage points, and the endpoint with h6 <= 2h/3.
        assert (1 + u) / 5 <= 1
        assert 2 / 3 * 6 * (1 + u) ** 4 / 5 <= 0.81 < 1
        # Case a for component 0: the band [0.933, 1.07] x_0.
        assert (1 + u) * (1 + 4 * C1 * 1.07) <= 1.07 and 4 * C1 * 1.07 <= min(0.07, 4)
        assert 2 * C1 * 1.07 <= 0.03348 and (1 - 2 * 0.03348) * (1 - 2 * u) >= 0.933
        # Case b.
        assert 2.5 * C1 * (1 + u) <= 0.0392 and 5 * C1 * (1 + u) <= 0.0783
        assert 0.0392 * 12 <= 0.5  # N_i(z) = 0 while PI <= 12s
        assert (1 + u) / (1 - 5 * C1 * (1 + u) ** 2) <= 1.085
        assert 13 / 1.085 > 11 and 1 / (2 * 1.085) > 0.46  # Im >= 12s, Im > 0.46s/h
        assert 0.0783 * 1.085 <= 0.085
        # U.
        assert (1 + u) * (1 + 4 * C1 * (1 + u) * 1.07) <= 1.07
        assert (1 + u) * (4 * C1 * (1 + u) * 2.2 + 2 * (1 + u)) <= 2.2
        # i = 1.
        kappa0 = 0.871
        assert 0.933 / 1.07 >= kappa0
        assert kappa0 * (1 - 4 * u) - (kappa0 + 1) / 12 >= 0.71 >= 0.085
        # i = 2.
        assert (1 - u) * (1 - (1 + u) ** 2 * 2 * C1 * 1.07) >= 0.966
        assert (1 - u) ** 3 * kappa0 * (1 - 4 * u) - (1 + u) ** 2 * 2 * C1 * 2.2 >= 0.802
        assert (1 - u) ** 3 * (kappa0 + 1) <= 1.872
        kappa1 = 0.364
        assert min(0.966 / 1.07, 0.802 / 2.2) >= kappa1
        assert 1.872 * C1 <= 0.03 and C1 * 1.085 <= 0.017  # s/h < 2.17 Im
        assert kappa1 * (1 - 4 * u) - 0.017 - (kappa1 + 1 + 0.03) / 12 >= 0.23 >= 0.085


class TestApplyDivision:
    def test_zero_velocities_is_identity_on_counts(self):
        state = PopulationState(100.0, 100.0, 100.0)
        out = apply_division(state, VelocityVector(0.0, 0.0, 0.0), 1.0)
        assert (out.y0, out.y1, out.y2) == (100.0, 100.0, 100.0)

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
        out = growth_day_detail(state, params).state
        assert (out.y0, out.y1, out.y2) == pytest.approx((100.0, 50.0, 25.0), rel=1e-12)

    def test_first_reference_day_total(self, golden):
        params = ModelParams(weeks=7)
        out = growth_day_detail(reference_initial(), params).state
        row = next(r for r in golden if r.day == 1 and r.phase == "post_growth")
        target = row.y0 + row.y1 + row.y2
        assert target == 625950700.0
        assert abs(out.total() - target) / target <= 0.005

    def test_division_ratio_tracks_mean_velocity(self):
        # Over one day the total multiplies by roughly 2**phi; the gap is
        # only the spread between per-component doubling and the mean rate.
        start = reference_initial()
        detail = growth_day_detail(start, ModelParams(weeks=7))
        ratio = detail.state.total() / start.total()
        assert ratio == pytest.approx(2.0**detail.phi, rel=1e-3)
        assert ratio == pytest.approx(625950700.0 / 618783392.0, rel=1e-3)

    def test_symmetric_velocities_scale_total_only(self):
        params = ModelParams(
            v0=0.02, v1=0.02, a=1.0, theta=0.0, integer_rounding=False
        )
        assert v2_of(params, 0, "radiation") == pytest.approx(0.02, rel=1e-15)
        state = PopulationState(600.0, 340.0, 60.0)
        out = growth_day_detail(state, params).state
        before = state.fractions()
        after = out.fractions()
        assert after == pytest.approx(before, abs=1e-9)
        assert out.total() == pytest.approx(1000.0 * 2.0**0.02, rel=1e-10)

    def test_detail_reports_frozen_velocity_and_phi(self):
        params = ModelParams(weeks=7, integer_rounding=False)
        detail = growth_day_detail(reference_initial(), params)
        assert detail.v2 == v2_of(params, 1, "radiation")
        assert detail.drift <= 1e-12
        assert not detail.renormalized
        # phi is the mean velocity of the evolved fractions, before division
        # reweights them.
        v = VelocityVector(params.v0, params.v1, detail.v2)
        post = detail.state.fractions()
        assert post is not None
        assert detail.phi == pytest.approx(mean_velocity(post, v), rel=0.02)

    def test_drifted_endpoint_is_projected_onto_simplex(self, monkeypatch):
        # Zero velocities make division the identity, so the counts are the
        # projected fractions times the total.
        raw = (0.6, 0.3, 0.1 + 1e-10)
        monkeypatch.setattr(
            "repopsim.growth.integrate_growth", lambda field, x, duration, step: raw
        )
        params = ModelParams(v0=0.0, v1=0.0, integer_rounding=False)
        detail = growth_day_detail(PopulationState(600.0, 300.0, 100.0), params)
        norm = raw[0] + raw[1] + raw[2]
        assert detail.drift == abs(norm - 1.0)
        assert 1e-12 < detail.drift < 2e-10
        assert detail.renormalized
        out = detail.state
        assert (out.y0, out.y1, out.y2) == (
            raw[0] / norm * 1000.0,
            raw[1] / norm * 1000.0,
            raw[2] / norm * 1000.0,
        )
        assert out.y2 != raw[2] * 1000.0

    @pytest.mark.parametrize(
        "raw, integer_rounding, error",
        [
            # Inside the simplex tolerance, but a negative count in real mode,
            # reported before division doubles it.
            ((-5e-10, 0.6, 0.4 + 5e-10), False, "^y0 must be >= 0, got -5[.0-9]*e-07$"),
            ((-5e-10, 0.6, 0.4 + 5e-10), True, None),
            # Outside it: the one simplex test of the endpoint.
            ((-1e-8, 0.6, 0.4 + 1e-8), True, "^fractions must lie on the simplex"),
        ],
    )
    def test_endpoint_checks(self, monkeypatch, raw, integer_rounding, error):
        monkeypatch.setattr(
            "repopsim.growth.integrate_growth", lambda field, x, duration, step: raw
        )
        params = ModelParams(v0=1.0, v1=0.0, integer_rounding=integer_rounding)
        state = PopulationState(600.0, 300.0, 100.0)
        if error is None:
            out = growth_day_detail(state, params).state
            assert (out.y0, out.y1, out.y2) == (0.0, 600.0, 400.0)
        else:
            with pytest.raises(InvalidStateError, match=error):
                growth_day_detail(state, params)

    def test_rejects_empty_population(self):
        params = ModelParams()
        with pytest.raises(InvalidStateError):
            growth_day_detail(PopulationState(0.0, 0.0, 0.0), params)

    def test_weekend_period_uses_weekend_damping(self):
        params = ModelParams(q_mix=0.1, p_mix=0.1, integer_rounding=False)
        state = PopulationState(600.0, 340.0, 60.0, pulses_delivered=5)
        weekday = growth_day_detail(state, params, period="radiation")
        weekend = growth_day_detail(state, params, period="weekend")
        assert weekday.v2 == v2_of(params, 5, "radiation")
        assert weekend.v2 == v2_of(params, 5, "weekend")
        assert weekend.v2 != weekday.v2
