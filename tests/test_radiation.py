"""Pulse operator construction, application, and repeated application."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repopsim import (
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    RadiationOperator,
    apply_pulse,
    build_radiation_operator,
    survival_fraction,
)

from .conftest import pulse_power

counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_subnormal=False)
unit = st.floats(min_value=0.0, max_value=1.0)


UNIT_STATES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def dense(op):
    """The paper's radiotherapy matrix [[S-Q,0,0],[Q,S-P,0],[0,P,S]], written out
    here as the oracle for the product apply_pulse writes out."""
    s, q, p = op.s, op.q, op.p
    return ((s - q, 0.0, 0.0), (q, s - p, 0.0), (0.0, p, s))


def matvec(m, y):
    """Generic dense matrix-vector product, the oracle for hand layouts."""
    return tuple(sum(row[j] * y[j] for j in range(3)) for row in m)


def pulse_columns(op):
    """The operator apply_pulse applies, row-major: column j is the pulse of e_j."""
    return tuple(zip(*(apply_pulse(op, e) for e in UNIT_STATES)))


class TestOperator:
    def test_matrix_layout(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        m = pulse_columns(op)
        assert m == dense(op)
        assert m[0] == pytest.approx((0.4, 0.0, 0.0), abs=1e-15)
        assert m[1] == pytest.approx((0.1, 0.3, 0.0), abs=1e-15)
        assert m[2] == pytest.approx((0.0, 0.2, 0.5), abs=1e-15)

    def test_zero_transfer_is_pure_scaling_matrix(self):
        m = pulse_columns(RadiationOperator(s=0.5, q=0.0, p=0.0))
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
        for e in UNIT_STATES:
            assert sum(apply_pulse(op, e)) == pytest.approx(s, rel=1e-12)


class TestApplyPulse:
    def test_pure_scaling(self):
        op = RadiationOperator(s=0.5, q=0.0, p=0.0)
        assert apply_pulse(op, (100.0, 100.0, 100.0)) == (50.0, 50.0, 50.0)

    def test_hand_worked_transfer(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        out = apply_pulse(op, (100.0, 100.0, 100.0))
        assert out == pytest.approx((40.0, 40.0, 70.0), rel=1e-12)
        assert sum(out) == pytest.approx(150.0, rel=1e-12)
        oracle = matvec(dense(op), (100.0, 100.0, 100.0))
        assert out == pytest.approx(oracle, rel=1e-12)

    def test_matches_reference_table_day_two(self, golden):
        op = build_radiation_operator(ModelParams())
        out = apply_pulse(op, (371476229.0, 212652573.0, 41821898.0), integer_rounding=True)
        row = next(r for r in golden if r.day == 2 and r.phase == "post_radiation")
        for got, want in zip(out, (row.y0, row.y1, row.y2)):
            assert abs(got - want) / want <= 0.005

    @pytest.mark.parametrize("integer_rounding", [False, True])
    def test_a_pulsed_count_too_large_for_a_float_is_rejected(self, integer_rounding):
        # Each count is finite, and the middle one's inflow plus what stays would
        # overflow; the total of the counts given already does, so they are rejected.
        op = RadiationOperator(s=0.9, q=0.9, p=0.0)
        message = r"^counts must have a finite total, got \(1\.7e\+308, 1\.7e\+308, 0\.0\)$"
        with pytest.raises(InvalidStateError, match=message):
            apply_pulse(op, (1.7e308, 1.7e308, 0.0), integer_rounding)

    @settings(deadline=None)
    @given(
        weights=st.tuples(unit, unit, unit).filter(lambda w: sum(w) > 0.0),
        total=st.floats(min_value=1e307, max_value=sys.float_info.max),
        s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        qf=unit,
        pf=unit,
        integer_rounding=st.booleans(),
    )
    def test_a_finite_total_pulses_to_finite_counts(
        self, weights, total, s, qf, pf, integer_rounding
    ):
        # Each pulsed count is a rounded sum of terms no larger than the counts it draws from.
        norm = sum(weights)
        counts = tuple(w / norm * total for w in weights)
        assume(sum(counts) <= sys.float_info.max)
        out = apply_pulse(RadiationOperator(s, s * qf, s * pf), counts, integer_rounding)
        assert all(math.isfinite(c) for c in out)

    @settings(deadline=None)
    @given(y0=counts, y1=counts, y2=counts, qf=st.floats(0.0, 1.0), pf=st.floats(0.0, 1.0))
    def test_total_multiplies_by_survival(self, y0, y1, y2, qf, pf):
        s = survival_fraction(ModelParams())
        op = RadiationOperator(s=s, q=s * qf, p=s * pf)
        out = apply_pulse(op, (y0, y1, y2))
        assert sum(out) == pytest.approx((y0 + y1 + y2) * s, rel=1e-12, abs=1e-12)
        assert min(out) >= 0.0

    @settings(deadline=None)
    @given(y0=counts, y1=counts, y2=counts)
    def test_diagonal_pulse_preserves_fractions(self, y0, y1, y2):
        op = RadiationOperator(s=0.4, q=0.0, p=0.0)
        out = apply_pulse(op, (y0, y1, y2))
        total = y0 + y1 + y2
        if total == 0:
            assert sum(out) == 0
        else:
            before = (y0 / total, y1 / total, y2 / total)
            after = tuple(c / sum(out) for c in out)
            assert after == pytest.approx(before, abs=1e-12)


class TestPulsePower:
    def test_zero_pulses_is_identity(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        counts = (100.0, 100.0, 100.0)
        assert pulse_power(op, 0, counts) == counts

    def test_two_pulses_hand_worked(self):
        op = RadiationOperator(s=0.5, q=0.1, p=0.2)
        out = pulse_power(op, 2, (100.0, 100.0, 100.0))
        # (100,100,100) -> (40,40,70) -> (16, 4+12, 8+35) = (16,16,43)
        assert out == pytest.approx((16.0, 16.0, 43.0), rel=1e-12)

    @settings(deadline=None)
    @given(n=st.integers(min_value=0, max_value=12))
    def test_equals_composition(self, n):
        op = RadiationOperator(s=0.6, q=0.05, p=0.1)
        counts = (1e6, 2e6, 3e6)
        composed = counts
        for _ in range(n):
            composed = apply_pulse(op, composed)
        assert pulse_power(op, n, counts) == composed

    def test_thirty_pulse_total_closed_form(self):
        p = ModelParams()
        op = build_radiation_operator(p)
        n0 = 1e9
        out = pulse_power(op, 30, (0.3 * n0, 0.5 * n0, 0.2 * n0))
        expected = n0 * math.exp(-30 * (p.alpha * p.dose + p.beta * p.dose**2))
        assert sum(out) == pytest.approx(expected, rel=1e-12)
