"""Pulse operator construction, application, and repeated application."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    InvalidParameterError,
    ModelParams,
    PopulationState,
    RadiationOperator,
    apply_pulse,
    build_radiation_operator,
    pulse_power,
    survival_fraction,
)

counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_subnormal=False)


def matvec(m, y):
    """Generic dense matrix-vector product, the oracle for hand layouts."""
    return tuple(sum(row[j] * y[j] for j in range(3)) for row in m)


class TestOperator:
    def test_matrix_layout(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        m = op.matrix()
        assert m[0] == pytest.approx((0.4, 0.0, 0.0), abs=1e-15)
        assert m[1] == pytest.approx((0.1, 0.3, 0.0), abs=1e-15)
        assert m[2] == pytest.approx((0.0, 0.2, 0.5), abs=1e-15)

    def test_zero_transfer_is_pure_scaling_matrix(self):
        m = RadiationOperator(s=0.5, q=0.0, p=0.0).matrix()
        assert m == ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5))

    def test_built_from_params(self):
        p = ModelParams(q_rad=0.0005, p_rad=0.0005)
        op = build_radiation_operator(p)
        assert op.s == survival_fraction(p)
        assert (op.q, op.p) == (0.0005, 0.0005)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.0, "q": 0.0, "p": 0.0},
            {"s": 1.5, "q": 0.0, "p": 0.0},
            {"s": 0.5, "q": 0.6, "p": 0.0},
            {"s": 0.5, "q": 0.0, "p": 0.6},
            {"s": 0.5, "q": -0.1, "p": 0.0},
        ],
    )
    def test_rejects_invalid_entries(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RadiationOperator(**kwargs)

    @settings(deadline=None)
    @given(
        s=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        qf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        pf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_columns_sum_to_survival(self, s, qf, pf):
        op = RadiationOperator(s=s, q=s * qf, p=s * pf)
        m = op.matrix()
        for j in range(3):
            col = m[0][j] + m[1][j] + m[2][j]
            assert col == pytest.approx(s, rel=1e-12)


class TestApplyPulse:
    def test_pure_scaling(self):
        op = RadiationOperator(s=0.5, q=0.0, p=0.0)
        out = apply_pulse(op, PopulationState(100.0, 100.0, 100.0))
        assert (out.y0, out.y1, out.y2) == (50.0, 50.0, 50.0)

    def test_hand_worked_transfer(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        state = PopulationState(100.0, 100.0, 100.0)
        out = apply_pulse(op, state)
        assert (out.y0, out.y1, out.y2) == pytest.approx((40.0, 40.0, 70.0), rel=1e-12)
        assert out.total() == pytest.approx(150.0, rel=1e-12)
        oracle = matvec(op.matrix(), (100.0, 100.0, 100.0))
        assert (out.y0, out.y1, out.y2) == pytest.approx(oracle, rel=1e-12)

    def test_matches_reference_table_day_two(self, golden):
        op = build_radiation_operator(ModelParams())
        state = PopulationState(371476229.0, 212652573.0, 41821898.0)
        out = apply_pulse(op, state, integer_rounding=True)
        row = next(r for r in golden if r.day == 2 and r.phase == "post_radiation")
        for got, want in zip((out.y0, out.y1, out.y2), (row.y0, row.y1, row.y2)):
            assert abs(got - want) / want <= 0.005

    def test_counter_bookkeeping(self):
        op = RadiationOperator(s=0.5, q=0.0, p=0.0)
        state = PopulationState(10.0, 10.0, 10.0, pulses_delivered=2)
        out = apply_pulse(op, state)
        assert out.pulses_delivered == 3

    @settings(deadline=None)
    @given(y0=counts, y1=counts, y2=counts, qf=st.floats(0.0, 1.0), pf=st.floats(0.0, 1.0))
    def test_total_multiplies_by_survival(self, y0, y1, y2, qf, pf):
        s = survival_fraction(ModelParams())
        op = RadiationOperator(s=s, q=s * qf, p=s * pf)
        state = PopulationState(y0, y1, y2)
        out = apply_pulse(op, state)
        assert out.total() == pytest.approx(state.total() * s, rel=1e-12, abs=1e-12)
        assert min(out.y0, out.y1, out.y2) >= 0.0

    @settings(deadline=None)
    @given(y0=counts, y1=counts, y2=counts)
    def test_diagonal_pulse_preserves_fractions(self, y0, y1, y2):
        op = RadiationOperator(s=0.4, q=0.0, p=0.0)
        state = PopulationState(y0, y1, y2)
        before = state.fractions()
        after = apply_pulse(op, state).fractions()
        if before is None:
            assert after is None
        else:
            assert after == pytest.approx(before, abs=1e-12)


class TestPulsePower:
    def test_zero_pulses_is_identity(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        state = PopulationState(100.0, 100.0, 100.0)
        assert pulse_power(op, 0, state) == state

    def test_two_pulses_hand_worked(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        out = pulse_power(op, 2, PopulationState(100.0, 100.0, 100.0))
        # (100,100,100) -> (40,40,70) -> (16, 4+12, 8+35) = (16,16,43)
        assert (out.y0, out.y1, out.y2) == pytest.approx((16.0, 16.0, 43.0), rel=1e-12)

    def test_rejects_negative_count(self):
        op = RadiationOperator(s=0.5, q=0.0, p=0.0)
        with pytest.raises(InvalidParameterError):
            pulse_power(op, -1, PopulationState(1.0, 1.0, 1.0))

    @settings(deadline=None)
    @given(n=st.integers(min_value=0, max_value=12))
    def test_equals_composition(self, n):
        op = RadiationOperator(s=0.6, q=0.05, p=0.1)
        state = PopulationState(1e6, 2e6, 3e6)
        composed = state
        for _ in range(n):
            composed = apply_pulse(op, composed)
        powered = pulse_power(op, n, state)
        assert (powered.y0, powered.y1, powered.y2) == (
            composed.y0,
            composed.y1,
            composed.y2,
        )
        assert powered.pulses_delivered == composed.pulses_delivered

    def test_thirty_pulse_total_closed_form(self):
        p = ModelParams()
        op = build_radiation_operator(p)
        n0 = 1e9
        out = pulse_power(op, 30, PopulationState(0.3 * n0, 0.5 * n0, 0.2 * n0))
        expected = n0 * math.exp(-30 * (p.alpha * p.dose + p.beta * p.dose**2))
        assert out.total() == pytest.approx(expected, rel=1e-12)
