"""Parameter objects, state containers, and scalar helpers."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repopsim
from repopsim import (
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    PopulationState,
    parse_config,
    survival_fraction,
)
from repopsim.core import PARAM_TABLE, PHASES, _psis

from .conftest import MIXING_OVERRIDES, fast_velocity

README = Path(__file__).resolve().parent.parent / "README.md"
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _past(kind, bound, direction):
    """The nearest value of kind beyond bound, upward for direction 1, downward for -1."""
    return bound + direction if kind is int else math.nextafter(bound, direction * math.inf)


def _bound_cases():
    """(key, a value on the bound's inside, the nearest value outside) per finite bound."""
    cases = []
    for name, row in PARAM_TABLE.items():
        if row.low is not None:
            low = row.kind(row.low)
            if row.strict:
                inside, outside = _past(row.kind, low, 1), low
            else:
                inside, outside = low, _past(row.kind, low, -1)
            cases.append(pytest.param(name, inside, outside, id=f"{name}-low"))
        if row.high is not None:
            high = row.kind(row.high)
            cases.append(pytest.param(name, high, _past(row.kind, high, 1), id=f"{name}-high"))
    return cases


class TestModelParams:
    def test_defaults_match_reference_setting(self):
        p = ModelParams()
        assert (p.alpha, p.beta, p.dose) == (0.2, 0.02, 2.0)
        assert (p.v0, p.v1, p.a, p.theta) == (0.01, 0.016, 5.0, 0.005)
        assert (p.q_rad, p.p_rad, p.q_mix, p.p_mix) == (0.0, 0.0, 0.0, 0.0)
        assert (p.weeks, p.weekend_days, p.pulses_per_week) == (6, 2, 5)
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"weeks": 1.5}, "weeks must be an integer, got 1.5"),
            ({"pulses_per_week": True}, "pulses_per_week must be an integer, got True"),
            ({"weekend_days": "2"}, "weekend_days must be an integer, got '2'"),
            ({"integer_rounding": 0.0}, "integer_rounding must be true or false, got 0.0"),
            ({"dose": "2"}, "dose must be a number, got '2'"),
            ({"alpha": True}, "alpha must be a number, got True"),
            ({"theta": None}, "theta must be a number, got None"),
            ({"alpha": 10**400}, "alpha is too large, got an integer of 401 digits"),
            ({"alpha": 10**5000}, "alpha is too large, got an integer of 5001 digits"),
            ({"weeks": -(10**5000)}, "weeks is too large, got an integer of 5001 digits"),
            (
                {"integer_rounding": 10**5000},
                f"integer_rounding must be true or false, got 1{'0' * 59}... (5001 characters)",
            ),
        ],
    )
    def test_rejects_wrongly_typed_values(self, overrides, message):
        with pytest.raises(InvalidParameterError) as info:
            ModelParams(**overrides)
        assert str(info.value) == message

    def test_table_has_one_row_per_field_in_order(self):
        assert tuple(PARAM_TABLE) == ModelParams._fields

    def test_readme_states_each_default_of_the_table(self):
        # README's Configuration keys table repeats every key's default: one
        # default for the row's keys, or one per key in order.
        text = README.read_text(encoding="utf-8")
        table = text[text.index("## Configuration keys") :].split("\n\n")[1]
        stated = {}
        for line in table.splitlines()[2:]:
            keys, defaults = (re.findall(r"`([^`]*)`", cell) for cell in line.split(" | ")[:2])
            stated.update(zip(keys, defaults * len(keys) if len(defaults) == 1 else defaults))
        params = ModelParams()
        for name in PARAM_TABLE:
            value, default = json.loads(stated[name]), getattr(params, name)
            assert (type(value), value) == (type(default), default), name

    @pytest.mark.parametrize("name, inside, outside", _bound_cases())
    def test_each_finite_bound_is_sharp(self, name, inside, outside):
        assert getattr(ModelParams(**{name: inside}), name) == inside
        with pytest.raises(InvalidParameterError, match=f"^{name} must "):
            ModelParams(**{name: outside})

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), 710.0, 1000.0])
    def test_rejects_unusable_theta(self, theta):
        with pytest.raises(InvalidParameterError, match="theta"):
            ModelParams(theta=theta)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"beta": math.inf}, "beta must be finite"),
            # alpha * dose overflows to inf, so S = exp(-inf) = 0.
            ({"alpha": 1e300, "dose": 1e10}, r"the survival fraction .* alpha=1e\+300"),
        ],
    )
    def test_rejects_vanishing_survival(self, overrides, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            ModelParams(**overrides)

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
        with pytest.raises(InvalidParameterError, match=r"^q_rad must lie in \[0, 0.618783\]"):
            ModelParams(q_rad=0.7)
        with pytest.raises(InvalidParameterError, match=r"^p_rad must lie in \[0, 0.618783\]"):
            ModelParams(p_rad=0.62)
        # Right at the bound is legal.
        s = survival_fraction(ModelParams())
        ModelParams(q_rad=s, p_rad=s)

    def test_zero_velocities_are_legal(self):
        p = ModelParams(v0=0.0, v1=0.0)
        assert (p.v0, p.v1, fast_velocity(p, 0, True)) == (0.0, 0.0, 0.0)


class TestPopulationState:
    def test_total(self):
        assert PopulationState(60.0, 30.0, 10.0).total() == 100.0

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidStateError):
            PopulationState(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_count_message_names_the_component(self, index, bad):
        counts = [1.0, 1.0, 1.0]
        counts[index] = bad
        rule = "be finite" if bad == math.inf else "be >= 0"
        with pytest.raises(InvalidStateError, match=f"^y{index} must {rule}, got {bad}$"):
            PopulationState(*counts)

    @pytest.mark.parametrize(
        "bad, digits", [(10**400, 401), (-(10**400), 401), (int(sys.float_info.max) + 1, 309)]
    )
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_integer_count_too_large_for_a_float(self, index, bad, digits):
        counts = [1, 1, 1]
        counts[index] = bad
        message = f"^y{index} is too large, got an integer of {digits} digits$"
        with pytest.raises(InvalidStateError, match=message):
            PopulationState(*counts)

    def test_largest_integer_a_float_holds_is_a_count(self):
        state = PopulationState(int(sys.float_info.max), 0, 0)
        assert state.total() == sys.float_info.max

    @pytest.mark.parametrize("bad", ["1", True])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_a_count_must_be_a_number(self, index, bad):
        # A string once met `>=` and raised a bare TypeError; a bool passed as a count.
        counts = [1, 1, 1]
        counts[index] = bad
        message = f"^y{index} must be a number, got {bad!r}$"
        with pytest.raises(InvalidStateError, match=message):
            PopulationState(*counts)

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(InvalidParameterError, match="^pulses_delivered must be >= 0, got -1$"):
            PopulationState(1.0, 1.0, 1.0, pulses_delivered=-1)


def psi(params, pulses, treatment):
    """The damping factor after `pulses` pulses, from the course's table of psi."""
    return _psis(params, range(pulses, pulses + 1))[0][treatment]


class TestVelocities:
    def test_damping_zero_coefficients(self):
        # With no transfer and no mixing the damping factor is exp(theta)
        # regardless of the pulse count, on treatment and weekend days alike.
        p = ModelParams()
        for n in (0, 1, 5, 30):
            assert psi(p, n, True) == pytest.approx(math.exp(0.005), rel=1e-15)
            assert psi(p, n, False) == pytest.approx(math.exp(0.005), rel=1e-15)
        assert fast_velocity(p, 1, True) == pytest.approx(
            0.08040100166875208, rel=1e-15
        )
        assert fast_velocity(p, 1, True) == pytest.approx(
            p.a * p.v1 * math.exp(p.theta), rel=1e-15
        )

    def test_damping_is_unit_when_exponent_empty(self):
        # No baseline drift and no delivered pulses leave nothing in the
        # exponent, so the factor is exactly 1 and the fast rate is a*v1.
        p = ModelParams(theta=0.0, q_mix=0.3, p_mix=0.2)
        for treatment in (True, False):
            assert psi(p, 0, treatment) == 1.0
            assert fast_velocity(p, 0, treatment) == 0.08

    def test_fast_rate_scales_with_amplification(self):
        damped = ModelParams(theta=0.0, **MIXING_OVERRIDES)
        unit_a = ModelParams(a=1.0, theta=0.0, **MIXING_OVERRIDES)
        for n in (0, 1, 5):
            factor = psi(damped, n, True)
            assert fast_velocity(unit_a, n, True) == pytest.approx(
                1.0 * 0.016 * factor, rel=1e-15
            )
            assert fast_velocity(unit_a, n, True) == pytest.approx(
                fast_velocity(damped, n, True) / 5.0, rel=1e-15
            )
        # Halving the amplification halves the rate, exactly: 0.016 vs 0.008
        # for a=1 against a damping factor of one half.
        half = ModelParams(a=1.0, theta=0.0)
        assert fast_velocity(half, 0, False) == 0.016
        assert 0.5 * fast_velocity(half, 0, False) == 0.008

    def test_damping_with_transfer_and_mixing(self):
        p = ModelParams(**MIXING_OVERRIDES)
        rad_norm = math.sqrt(p.q_rad**2 + p.p_rad**2)
        mix_norm = math.sqrt(p.q_mix**2 + p.p_mix**2)
        decay = rad_norm * p.dose + mix_norm * p.dose * p.dose
        assert decay == pytest.approx(0.5670996385116112, rel=1e-12)
        assert psi(p, 1, True) == pytest.approx(
            math.exp(p.theta - decay), rel=1e-12
        )
        assert psi(p, 1, True) == pytest.approx(
            0.5700109895018366, rel=1e-12
        )
        # The weekend exponent drops the dose weighting entirely.
        assert psi(p, 1, False) == pytest.approx(
            math.exp(p.theta - 1 * mix_norm), rel=1e-12
        )

    @settings(deadline=None)
    @given(q=unit, p=unit, n=st.integers(min_value=0, max_value=40))
    def test_damping_never_increases_with_pulses(self, q, p, n):
        params = ModelParams(q_mix=q, p_mix=p)
        before, after = _psis(params, range(n, n + 2))
        for treatment in (True, False):
            assert after[treatment] <= before[treatment]


def initial_counts(**keys):
    """The initial counts parse_config builds from a config of the given keys."""
    return tuple(parse_config(json.dumps(keys)).initial[:3])


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
            (37127003.52, 37127004.0),
        ],
    )
    def test_snap_count_half_up(self, value, expected):
        # Each component of the triple snaps on its own.
        assert initial_counts(initial_counts=[value, 1.0, 2.5]) == (expected, 1.0, 3.0)
        assert initial_counts(initial_counts=[0.5, 7.0, value]) == (1.0, 7.0, expected)

    @pytest.mark.parametrize("value", [-0.2, -5.0])
    def test_snap_count_rejects_a_negative_count(self, value):
        message = rf"^initial_counts must be >= 0, got {value}$"
        with pytest.raises(ConfigError, match=message):
            initial_counts(initial_counts=[value, 1.0, 2.5])

    @pytest.mark.parametrize(
        "keys, real, snapped",
        [
            ({"initial_counts": [2.5, 0.49, 1.0]}, (2.5, 0.49, 1.0), (3.0, 0.0, 1.0)),
            (
                {"initial_total": 4.0, "initial_fractions": [0.625, 0.125, 0.25]},
                (2.5, 0.5, 1.0),
                (3.0, 1.0, 1.0),
            ),
        ],
        ids=["counts", "split"],
    )
    def test_real_mode_keeps_fractional_counts(self, keys, real, snapped):
        # Only integer mode snaps, whichever form gave the counts.
        assert initial_counts(**keys, integer_rounding=False) == real
        assert initial_counts(**keys) == snapped

    def test_reference_initial_split(self):
        counts = initial_counts(initial_total=618783392.0, initial_fractions=[0.6, 0.34, 0.06])
        assert counts == (371270035.0, 210386353.0, 37127004.0)

    def test_reference_counts_normalize_back(self):
        counts = (371270035.0, 210386353.0, 37127004.0)
        x = tuple(c / sum(counts) for c in counts)
        assert x == pytest.approx((0.600, 0.340, 0.060), abs=1e-8)

    def test_vertex_split_is_exact(self):
        for rounding in (True, False):
            counts = initial_counts(
                initial_total=100.0, initial_fractions=[0.0, 0.0, 1.0], integer_rounding=rounding
            )
            assert counts == (0.0, 0.0, 100.0)

    def test_equal_thirds_round_independently(self):
        # Each component snaps on its own; the summed total may drift from
        # the requested one by the accumulated rounding (here 10 -> 9).
        third = 1.0 / 3.0
        counts = initial_counts(initial_total=10.0, initial_fractions=[third, third, third])
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
        counts = initial_counts(initial_total=total, initial_fractions=x, integer_rounding=False)
        back = tuple(c / sum(counts) for c in counts)
        for got, want in zip(back, x):
            assert got == pytest.approx(want, abs=1e-12)

    def test_fraction_sum_near_one(self):
        counts = (371270035.0, 210386353.0, 37127004.0)
        x = tuple(c / sum(counts) for c in counts)
        assert abs(sum(x) - 1.0) <= 1e-12


class TestConstants:
    def test_phase_vocabulary(self):
        assert PHASES == ("initial", "post_growth", "post_radiation")


_STATE = PopulationState(6.0, 3.0, 1.0)
# The model's constants, the validated start of a course, and one instance of
# each type built per row (a named tuple): slotted.
_SLOTTED = {
    "ModelParams": ModelParams(),
    "PopulationState": _STATE,
    "TrajectoryRecord": repopsim.TrajectoryRecord(
        1, "initial", 6.0, 3.0, 1.0, 0.6, 0.3, 0.1, 0.0, 0.08, 10.0
    ),
    "DiffPoint": repopsim.DiffPoint(1, "initial", 0.0),
    "GoldenRow": repopsim.GoldenRow(1, "initial", 6.0, 3.0, 1.0, 0.0),
}
# One instance of each type built once per course or operation: frozen.
_FROZEN = {
    "ModelParams": ModelParams(),
    "RunConfig": repopsim.RunConfig(ModelParams(), _STATE),
    "RadiationOperator": repopsim.RadiationOperator(0.5, 0.0, 0.0),
    "Trajectory": repopsim.Trajectory(records=(), integer_rounding=True),
    "TrajectoryDiff": repopsim.TrajectoryDiff((), 0, 0),
    "SweepEntry": repopsim.SweepEntry(value=1.0),
}


class TestValueLayout:
    @pytest.mark.parametrize("name", _SLOTTED)
    def test_per_day_types_are_slotted(self, name):
        value = _SLOTTED[name]
        assert type(value).__name__ == name
        assert "__slots__" in vars(type(value))
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("name", ["TrajectoryRecord", "DiffPoint", "GoldenRow"])
    def test_rows_are_immutable_hashable_tuples(self, name):
        # A row is a named tuple: equal to the plain tuple of its fields, in
        # its file's column order, hashable, and changed only by _replace.
        row = _SLOTTED[name]
        plain = tuple(getattr(row, field) for field in row._fields)
        assert row == plain and hash(row) == hash(plain)
        with pytest.raises(AttributeError):
            setattr(row, "day", 2)
        moved = row._replace(day=2)
        assert type(moved) is type(row)
        assert moved == (2, *plain[1:]) and row == plain

    @pytest.mark.parametrize("name", _FROZEN)
    def test_per_course_types_stay_frozen(self, name):
        value = _FROZEN[name]
        assert type(value).__name__ == name
        first = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, first, getattr(value, first))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: ModelParams()._replace(a=0.0),
                InvalidParameterError,
                "a must be > 0, got 0.0",
            ),
            (
                lambda: PopulationState(6.0, 3.0, 1.0)._replace(y0=-1.0),
                InvalidStateError,
                "y0 must be >= 0, got -1.0",
            ),
            (
                lambda: repopsim.RadiationOperator._make((0.5, 0.6, 0.0)),
                InvalidParameterError,
                "q must lie in [0, 0.5], got 0.6",
            ),
        ],
        ids=["ModelParams._replace", "PopulationState._replace", "RadiationOperator._make"],
    )
    def test_replace_and_make_check_their_inputs(self, build, error, message):
        # A checked named tuple builds through its __new__ from _make and
        # _replace too, so neither can hold a value its constructor rejects.
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: ModelParams(foo=1),
                "ModelParams.__new__() got an unexpected keyword argument 'foo'",
            ),
            (
                lambda: PopulationState(1.0),
                "PopulationState.__new__() missing 2 required positional arguments: 'y1' and 'y2'",
            ),
            (
                lambda: repopsim.RadiationOperator(0.5),
                "RadiationOperator.__new__() missing 2 required positional arguments: 'q' and 'p'",
            ),
        ],
        ids=["ModelParams", "PopulationState", "RadiationOperator"],
    )
    def test_an_argument_error_names_the_public_type(self, build, message):
        # A checked named tuple is its private fields class plus a subclass;
        # a wrong or missing argument is reported under the type called.
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

    def test_a_valid_int_in_a_float_field_is_stored_as_its_float(self):
        # As parse_config gives: each float field holds exactly a float, by
        # call or by _replace, while an integer field keeps its int.
        floats = [name for name, row in PARAM_TABLE.items() if row.kind is float]
        ints = {name: 0 if name in ("q_rad", "p_rad") else 1 for name in floats}
        for params in (ModelParams(**ints), ModelParams()._replace(**ints)):
            assert all(type(getattr(params, name)) is float for name in floats)
            assert params == ModelParams(**{name: float(n) for name, n in ints.items()})
            assert type(params.weeks) is int and type(params.integer_rounding) is bool
        assert type(ModelParams(v0=0).v0) is float

    def test_every_exported_value_type_has_its_layout_tested(self):
        # The README sorts the value types into these two kinds; a type added
        # to or removed from the package must move the tables with it. A value
        # type is a dataclass or a named tuple.
        exported = {
            name for name, value in vars(repopsim).items()
            if isinstance(value, type)
            and (
                dataclasses.is_dataclass(value)
                or issubclass(value, tuple) and hasattr(value, "_fields")
            )
        }
        assert exported == _SLOTTED.keys() | _FROZEN.keys()
