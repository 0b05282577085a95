"""Parameter objects, state containers, and scalar helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    PopulationState,
    VelocityVector,
    counts_to_fractions,
    fractions_to_counts,
    mean_velocity,
    psi,
    snap_count,
    survival_fraction,
    v2_of,
    velocities_of,
    velocity_from_doubling_time,
)
from repopsim.core import PERIODS, PHASES, RADIATION_PERIOD, WEEKEND

from .conftest import MIXING_OVERRIDES

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestModelParams:
    def test_defaults_match_reference_setting(self):
        p = ModelParams()
        assert (p.alpha, p.beta, p.dose) == (0.2, 0.02, 2.0)
        assert (p.v0, p.v1, p.a, p.theta) == (0.01, 0.016, 5.0, 0.005)
        assert (p.q_rad, p.p_rad, p.q_mix, p.p_mix) == (0.0, 0.0, 0.0, 0.0)
        assert (p.weeks, p.ode_step, p.weekend_days) == (6, 0.01, 2)
        assert p.integer_rounding is True

    def test_survival_fraction_closed_form(self):
        p = ModelParams()
        expected = math.exp(-(p.alpha * p.dose + p.beta * p.dose * p.dose))
        assert survival_fraction(p) == expected
        assert survival_fraction(p) == pytest.approx(0.6187833918061408, rel=1e-15)

    def test_zero_dose_survives_everything(self):
        assert survival_fraction(ModelParams(dose=0.0)) == 1.0

    @settings(deadline=None)
    @given(
        d1=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        bump=st.floats(min_value=1e-6, max_value=20.0, allow_nan=False),
    )
    def test_survival_strictly_decreasing_in_dose(self, d1, bump):
        assert survival_fraction(ModelParams(dose=d1 + bump)) < survival_fraction(
            ModelParams(dose=d1)
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": -0.1},
            {"beta": -0.1},
            {"dose": -1.0},
            {"a": 0.0},
            {"a": -2.0},
            {"v0": -0.01},
            {"v1": -0.016},
            {"weeks": 0},
            {"ode_step": 0.0},
            {"ode_step": -0.01},
            {"weekend_days": -1},
            {"q_rad": -0.001},
            {"p_rad": -0.001},
            {"q_mix": -0.1},
            {"q_mix": 1.5},
            {"p_mix": 1.5},
        ],
    )
    def test_rejects_out_of_range_values(self, overrides):
        with pytest.raises(InvalidParameterError):
            ModelParams(**overrides)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), 710.0, 1000.0])
    def test_rejects_unusable_theta(self, theta):
        with pytest.raises(InvalidParameterError, match="theta"):
            ModelParams(theta=theta)

    @pytest.mark.parametrize("name", ["v0", "v1", "a"])
    def test_rejects_infinite_velocity_inputs(self, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got inf$"):
            ModelParams(**{name: math.inf})

    @pytest.mark.parametrize("name, bound", [("v0", ">= 0"), ("v1", ">= 0"), ("a", "> 0")])
    def test_nan_velocity_inputs_keep_range_message(self, name, bound):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be {bound}, got nan$"):
            ModelParams(**{name: math.nan})

    @pytest.mark.parametrize(
        "overrides",
        [{"a": 1e308, "v1": 100.0}, {"a": 1e200, "v1": 1e200}, {"a": 1e306, "theta": 700.0}],
    )
    def test_rejects_overflowing_fast_velocity(self, overrides):
        with pytest.raises(InvalidParameterError, match=r"^a \* v1 \* exp\(theta\)"):
            ModelParams(**overrides)

    def test_largest_finite_fast_velocity_is_legal(self):
        assert ModelParams(a=1e300, v1=100.0).a == 1e300

    def test_theta_up_to_exp_overflow_is_legal(self):
        assert ModelParams(theta=709.0).theta == 709.0
        assert ModelParams(theta=-1000.0).theta == -1000.0

    def test_transfer_rate_bounded_by_survival(self):
        with pytest.raises(InvalidParameterError, match="survival"):
            ModelParams(q_rad=0.7)
        with pytest.raises(InvalidParameterError, match="survival"):
            ModelParams(p_rad=0.62)
        # Right at the bound is legal.
        s = survival_fraction(ModelParams())
        ModelParams(q_rad=s, p_rad=s)

    def test_zero_velocities_are_legal(self):
        p = ModelParams(v0=0.0, v1=0.0)
        assert velocities_of(p, 0, RADIATION_PERIOD) == VelocityVector(0.0, 0.0, 0.0)


class TestPopulationState:
    def test_total_and_fractions(self):
        state = PopulationState(60.0, 30.0, 10.0)
        assert state.total() == 100.0
        assert state.fractions() == (0.6, 0.3, 0.1)

    def test_empty_population_has_no_fractions(self):
        assert PopulationState(0.0, 0.0, 0.0).fractions() is None

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidStateError):
            PopulationState(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_count_message_names_the_component(self, index, bad):
        counts = [1.0, 1.0, 1.0]
        counts[index] = bad
        with pytest.raises(InvalidStateError, match=f"^y{index} must be >= 0, got {bad}$"):
            PopulationState(*counts)

    def test_rejects_unknown_phase(self):
        with pytest.raises(InvalidStateError):
            PopulationState(1.0, 1.0, 1.0, phase="midnight")

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(InvalidStateError):
            PopulationState(1.0, 1.0, 1.0, pulses_delivered=-1)


class TestVelocities:
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_negative_velocity_message_names_the_component(self, index, bad):
        v = [0.01, 0.016, 0.08]
        v[index] = bad
        with pytest.raises(InvalidParameterError, match=f"^v{index} must be >= 0, got {bad}$"):
            VelocityVector(*v)

    def test_doubling_time_conversion(self):
        assert velocity_from_doubling_time(69.3147) == pytest.approx(0.01, rel=1e-6)
        assert velocity_from_doubling_time(43.3217) == pytest.approx(0.016, rel=1e-6)
        assert velocity_from_doubling_time(69.3147) == math.log(2.0) / 69.3147
        # A doubling time of ln(2) days forces a unit velocity.
        assert velocity_from_doubling_time(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_nonpositive_doubling_time(self):
        with pytest.raises(InvalidParameterError):
            velocity_from_doubling_time(0.0)

    def test_mean_velocity_is_dot_product(self):
        x = (0.6, 0.34, 0.06)
        v = VelocityVector(0.01, 0.016, 0.0804)
        expected = x[0] * v.v0 + x[1] * v.v1 + x[2] * v.v2
        assert mean_velocity(x, v) == pytest.approx(expected, rel=1e-15)
        assert mean_velocity(x, v) == pytest.approx(0.016264, rel=1e-12)

    def test_mean_velocity_at_simplex_vertices(self):
        v = VelocityVector(0.01, 0.016, 0.08)
        assert mean_velocity((1.0, 0.0, 0.0), v) == 0.01
        assert mean_velocity((0.0, 0.0, 1.0), v) == 0.08

    @settings(deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_mean_velocity_bounded_by_component_rates(self, a, b):
        lo, hi = sorted((a, b))
        x = (lo, hi - lo, 1.0 - hi)
        v = VelocityVector(0.01, 0.016, 0.08)
        rates = (v.v0, v.v1, v.v2)
        phi = mean_velocity(x, v)
        assert min(rates) - 1e-15 <= phi <= max(rates) + 1e-15

    def test_damping_zero_coefficients(self):
        # With no transfer and no mixing the damping factor is exp(theta)
        # regardless of the pulse count, in both periods.
        p = ModelParams()
        for n in (0, 1, 5, 30):
            assert psi(p, n, RADIATION_PERIOD) == pytest.approx(math.exp(0.005), rel=1e-15)
            assert psi(p, n, WEEKEND) == pytest.approx(math.exp(0.005), rel=1e-15)
        assert v2_of(p, 1, RADIATION_PERIOD) == pytest.approx(
            0.08040100166875208, rel=1e-15
        )
        assert v2_of(p, 1, RADIATION_PERIOD) == pytest.approx(
            p.a * p.v1 * math.exp(p.theta), rel=1e-15
        )

    def test_damping_is_unit_when_exponent_empty(self):
        # No baseline drift and no delivered pulses leave nothing in the
        # exponent, so the factor is exactly 1 and the fast rate is a*v1.
        p = ModelParams(theta=0.0, q_mix=0.3, p_mix=0.2)
        for period in PERIODS:
            assert psi(p, 0, period) == 1.0
            assert v2_of(p, 0, period) == 0.08

    def test_fast_rate_scales_with_amplification(self):
        damped = ModelParams(theta=0.0, **MIXING_OVERRIDES)
        unit_a = ModelParams(a=1.0, theta=0.0, **MIXING_OVERRIDES)
        for n in (0, 1, 5):
            factor = psi(damped, n, RADIATION_PERIOD)
            assert v2_of(unit_a, n, RADIATION_PERIOD) == pytest.approx(
                1.0 * 0.016 * factor, rel=1e-15
            )
            assert v2_of(unit_a, n, RADIATION_PERIOD) == pytest.approx(
                v2_of(damped, n, RADIATION_PERIOD) / 5.0, rel=1e-15
            )
        # Halving the amplification halves the rate, exactly: 0.016 vs 0.008
        # for a=1 against a damping factor of one half.
        half = ModelParams(a=1.0, theta=0.0)
        assert v2_of(half, 0, WEEKEND) == 0.016
        assert 0.5 * v2_of(half, 0, WEEKEND) == 0.008

    def test_damping_with_transfer_and_mixing(self):
        p = ModelParams(**MIXING_OVERRIDES)
        rad_norm = math.sqrt(p.q_rad**2 + p.p_rad**2)
        mix_norm = math.sqrt(p.q_mix**2 + p.p_mix**2)
        decay = rad_norm * p.dose + mix_norm * p.dose * p.dose
        assert decay == pytest.approx(0.5670996385116112, rel=1e-12)
        assert psi(p, 1, RADIATION_PERIOD) == pytest.approx(
            math.exp(p.theta - decay), rel=1e-12
        )
        assert psi(p, 1, RADIATION_PERIOD) == pytest.approx(
            0.5700109895018366, rel=1e-12
        )
        # The weekend exponent drops the dose weighting entirely.
        assert psi(p, 1, WEEKEND) == pytest.approx(
            math.exp(p.theta - 1 * mix_norm), rel=1e-12
        )

    @settings(deadline=None)
    @given(q=unit, p=unit, n=st.integers(min_value=0, max_value=40))
    def test_damping_never_increases_with_pulses(self, q, p, n):
        params = ModelParams(q_mix=q, p_mix=p)
        for period in PERIODS:
            assert psi(params, n + 1, period) <= psi(params, n, period)

    def test_velocities_carry_base_rates(self):
        p = ModelParams()
        v = velocities_of(p, 3, WEEKEND)
        assert (v.v0, v.v1) == (p.v0, p.v1)
        assert v.v2 == v2_of(p, 3, WEEKEND)


class TestRounding:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.0, 0.0),
            (0.49, 0.0),
            (0.5, 1.0),
            (2.4, 2.0),
            (2.5, 3.0),
            (3.5, 4.0),
            (-0.2, 0.0),
            (-5.0, 0.0),
            (37127003.52, 37127004.0),
        ],
    )
    def test_snap_count_half_up_floored_at_zero(self, value, expected):
        assert snap_count(value) == expected

    def test_reference_initial_split(self):
        counts = fractions_to_counts((0.6, 0.34, 0.06), 618783392.0, integer_rounding=True)
        assert counts == (371270035.0, 210386353.0, 37127004.0)

    def test_reference_counts_normalize_back(self):
        state = PopulationState(371270035.0, 210386353.0, 37127004.0)
        x = counts_to_fractions(state)
        assert x is not None
        assert x == pytest.approx((0.600, 0.340, 0.060), abs=1e-8)

    def test_vertex_split_is_exact(self):
        for rounding in (True, False):
            counts = fractions_to_counts((0.0, 0.0, 1.0), 100.0, integer_rounding=rounding)
            assert counts == (0.0, 0.0, 100.0)

    def test_equal_thirds_round_independently(self):
        # Each component snaps on its own; the summed total may drift from
        # the requested one by the accumulated rounding (here 10 -> 9).
        third = 1.0 / 3.0
        counts = fractions_to_counts((third, third, third), 10.0, integer_rounding=True)
        assert counts == (3.0, 3.0, 3.0)
        assert sum(counts) == 9.0

    @settings(deadline=None)
    @given(
        a=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        b=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        c=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        total=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    )
    def test_continuous_roundtrip(self, a, b, c, total):
        norm = a + b + c
        x = (a / norm, b / norm, c / norm)
        counts = fractions_to_counts(x, total, integer_rounding=False)
        state = PopulationState(*counts)
        back = counts_to_fractions(state)
        assert back is not None
        for got, want in zip(back, x):
            assert got == pytest.approx(want, abs=1e-12)

    def test_fraction_sum_near_one(self):
        state = PopulationState(371270035.0, 210386353.0, 37127004.0)
        x = counts_to_fractions(state)
        assert x is not None
        assert abs(sum(x) - 1.0) <= 1e-12


class TestConstants:
    def test_phase_and_period_vocabulary(self):
        assert PHASES == ("initial", "post_growth", "post_radiation")
        assert PERIODS == (RADIATION_PERIOD, WEEKEND)
