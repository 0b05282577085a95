"""Velocity diffs, closed-form totals, reference comparison, and sweeps."""

from __future__ import annotations

import math
import re
import subprocess
import sys

import numpy as np
import pytest

from repopsim import analysis, schedule
from repopsim import (
    AlignmentError,
    ConfigError,
    GoldenRow,
    InvalidParameterError,
    ModelParams,
    PopulationState,
    Trajectory,
    TrajectoryRecord,
    build_radiation_operator,
    compare_to_golden,
    diff_velocity,
    lq_closed_form,
    sweep,
)

from .conftest import pulse_power, reference_initial

# Every column of the reference table, which compare_to_golden takes by name.
ALL_COLUMNS = ("y0", "y1", "y2", "velocity")


def tiny_trajectory(points):
    """Trajectory with just (day, phase, phi) triples, counts filled with ones."""
    records = tuple(
        TrajectoryRecord(
            day=day, phase=phase, y0=1.0, y1=1.0, y2=1.0,
            x0=1 / 3, x1=1 / 3, x2=1 / 3, phi=phi, v2=0.08, total=3.0,
        )
        for day, phase, phi in points
    )
    return Trajectory(records=records, integer_rounding=True)


class TestDiffVelocity:
    def test_self_diff_is_identically_zero(self, course_zero):
        diff = diff_velocity(course_zero, course_zero)
        assert len(diff.points) == len(course_zero.records)
        assert all(p.delta == 0.0 for p in diff.points)
        assert diff.unmatched_a == diff.unmatched_b == 0

    def test_alignment_skips_and_counts_unmatched(self):
        a = tiny_trajectory([(1, "post_growth", 0.1), (2, "post_growth", 0.2)])
        b = tiny_trajectory([(1, "post_growth", 0.05), (3, "post_growth", 0.3)])
        diff = diff_velocity(a, b)
        assert [(p.day, p.delta) for p in diff.points] == [(1, 0.1 - 0.05)]
        assert diff.unmatched_a == 1
        assert diff.unmatched_b == 1

    def test_empty_trajectory_rejected(self, course_zero):
        with pytest.raises(AlignmentError):
            diff_velocity(Trajectory(records=(), integer_rounding=True), course_zero)

    def test_disjoint_grids_rejected(self):
        a = tiny_trajectory([(1, "post_growth", 0.1)])
        b = tiny_trajectory([(2, "post_radiation", 0.1)])
        with pytest.raises(AlignmentError):
            diff_velocity(a, b)

    def test_mixing_minus_zero_produces_full_curve(self, course_mixing, course_zero):
        diff = diff_velocity(course_mixing, course_zero)
        assert len(diff.points) == len(course_zero.records)
        assert any(p.delta != 0.0 for p in diff.points)


class TestLqClosedForm:
    def test_zero_pulses_returns_initial(self):
        assert lq_closed_form(618783392.0, 0, ModelParams()) == 618783392.0

    def test_single_pulse_reference_total(self):
        got = lq_closed_form(618783392.0, 1, ModelParams())
        assert got == pytest.approx(618783392.0 * math.exp(-0.48), rel=1e-12)
        assert got == pytest.approx(382892886.0950688, rel=1e-9)

    @pytest.mark.parametrize("n", [0, 1, 7, 30, 60])
    def test_matches_pulse_composition(self, n):
        params = ModelParams(q_rad=0.1, p_rad=0.2)
        op = build_radiation_operator(params)
        counts = pulse_power(op, n, (3e8, 5e8, 2e8))
        assert sum(counts) == pytest.approx(lq_closed_form(1e9, n, params), rel=1e-12)


class TestCompareToGolden:
    def test_trajectory_against_itself(self, course_zero):
        table = tuple(
            GoldenRow(day=r.day, phase=r.phase, y0=r.y0, y1=r.y1, y2=r.y2, velocity=r.phi)
            for r in course_zero.records
        )
        matched, worst = compare_to_golden(course_zero, table, days=(1, 49), columns=ALL_COLUMNS)
        assert matched == len(course_zero.records)
        assert worst == 0.0

    def test_early_course_counts(self, course_zero, golden):
        matched, worst = compare_to_golden(
            course_zero, golden, days=(1, 5), columns=("y0", "y1", "y2")
        )
        assert worst <= 0.005
        assert matched == 10

    def test_final_velocity(self, course_zero, golden):
        matched, worst = compare_to_golden(
            course_zero, golden, days=(48, 48), columns=("velocity",)
        )
        assert worst <= 0.10
        assert matched == 1

    def test_rows_without_partner_are_skipped(self, course_zero):
        table = (GoldenRow(day=99, phase="post_growth", y0=1, y1=1, y2=1, velocity=0.1),)
        assert compare_to_golden(course_zero, table, days=(1, 99), columns=ALL_COLUMNS) == (0, 0.0)

    def test_worst_is_the_largest_deviation_over_the_named_columns(self):
        a = tiny_trajectory([(1, "post_growth", 0.1), (2, "post_growth", 0.1)])
        table = (
            GoldenRow(day=1, phase="post_growth", y0=1.0, y1=0.5, y2=1.0, velocity=0.1),
            GoldenRow(day=2, phase="post_growth", y0=1.0, y1=1.0, y2=1.0, velocity=0.2),
            GoldenRow(day=3, phase="post_growth", y0=0.0, y1=0.0, y2=0.0, velocity=0.0),
        )
        assert compare_to_golden(a, table, days=(1, 3), columns=("y1",)) == (2, 0.5)
        assert compare_to_golden(a, table, days=(1, 3), columns=ALL_COLUMNS) == (2, 0.5)
        assert compare_to_golden(a, table, days=(2, 3), columns=ALL_COLUMNS) == (1, 0.5)
        assert compare_to_golden(a, table, days=(2, 3), columns=("y0", "y1")) == (1, 0.0)

    def test_unknown_column_is_named(self, course_zero, golden):
        with pytest.raises(ConfigError, match="x2"):
            compare_to_golden(course_zero, golden, days=(1, 48), columns=("x2",))

    def test_error_metric_is_symmetric(self):
        a = tiny_trajectory([(1, "post_growth", 0.1)])
        b = tiny_trajectory([(1, "post_growth", 0.125)])
        table_from = lambda t: (
            GoldenRow(day=1, phase="post_growth", y0=1, y1=1, y2=1,
                      velocity=t.records[0].phi),
        )
        forward = compare_to_golden(a, table_from(b), days=(1, 1), columns=("velocity",))
        backward = compare_to_golden(b, table_from(a), days=(1, 1), columns=("velocity",))
        assert forward == backward
        assert forward[0] == 1 and forward[1] == pytest.approx(0.2, rel=1e-15)

    # Keyed by a plain dict, the comparison would read the point through its last record:
    # (10, 1.97e-4) with the copy prepended and (10, 0.99999) with it appended.
    @pytest.mark.parametrize("prepended", [True, False], ids=["prepended", "appended"])
    def test_a_repeated_point_is_rejected(self, golden, prepended):
        course = schedule.simulate_course(ModelParams(weeks=1), reference_initial())
        copy = (course.records[0]._replace(y0=1.0),)
        records = copy + course.records if prepended else course.records + copy
        with pytest.raises(AlignmentError, match="day 1, phase 'initial'"):
            compare_to_golden(course._replace(records=records), golden, (1, 5), ("y0",))


    # Unchecked, 5 would raise a bare TypeError and (1,) an IndexError. Each
    # end of a pair meets the "a compared day" rule in tests/test_rules.py.
    @pytest.mark.parametrize("days", [5, (1,), (1, 2, 3)], ids=["int", "one", "three"])
    def test_a_range_that_is_not_a_pair_is_named(self, course_zero, golden, days):
        message = f"days must be a pair of integers, got {days!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            compare_to_golden(course_zero, golden, days, ("y0",))


class TestSweep:
    def test_empty_values(self):
        out = tuple(sweep(ModelParams(), "a", (), reference_initial()))
        assert out == ()

    def test_growth_advantage_orders_final_velocity(self):
        entries = tuple(sweep(ModelParams(weeks=1), "a", (1.0, 5.0), reference_initial()))
        assert [e.value for e in entries] == [1.0, 5.0]
        assert all(e.error is None for e in entries)
        assert entries[0].final_phi < entries[1].final_phi

    def test_threshold_offset_scales_terminal_velocity(self):
        # From a fast-dominated state with zero coefficients the recorded
        # velocity equals the fast-fraction velocity, so the two runs differ
        # exactly by the damping offset factor.
        params = ModelParams(weeks=1, integer_rounding=False)
        initial = PopulationState(0.0, 0.0, 1e6)
        entries = tuple(sweep(params, "theta", (0.0, 0.005), initial))
        ratio = entries[1].final_phi / entries[0].final_phi
        assert ratio == pytest.approx(math.exp(0.005), rel=1e-12)

    def test_threshold_day_reporting(self):
        params = ModelParams(weeks=1, integer_rounding=False)
        initial = PopulationState(0.0, 0.0, 1e6)
        hit = sweep(params, "theta", (0.0, 0.005), initial, threshold=0.05)
        missed = tuple(sweep(params, "theta", (0.0,), initial, threshold=1.0))
        assert all(e.threshold_day == 1 for e in hit)
        assert missed[0].threshold_day is None

    def test_nan_threshold_is_rejected_before_any_course(self, monkeypatch):
        monkeypatch.setattr(analysis, "simulate_course", lambda *args: pytest.fail("a course ran"))
        with pytest.raises(InvalidParameterError, match="threshold must be a number, got nan"):
            sweep(ModelParams(weeks=1), "a", (1.0, 5.0), reference_initial(), threshold=math.nan)

    @pytest.mark.parametrize("threshold", ["x", True, [0.05]], ids=["str", "bool", "list"])
    def test_non_number_threshold_is_rejected_before_any_course(self, monkeypatch, threshold):
        monkeypatch.setattr(analysis, "simulate_course", lambda *args: pytest.fail("a course ran"))
        message = f"threshold must be a number, got {threshold!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            sweep(ModelParams(weeks=1), "a", (1.0, 5.0), reference_initial(), threshold=threshold)

    def test_out_of_range_value_becomes_error_entry(self):
        entries = tuple(
            sweep(
                ModelParams(weeks=1),
                "q_rad",
                (0.0005, 0.7, 0.001),
                reference_initial(),
            )
        )
        assert [e.value for e in entries] == [0.0005, 0.7, 0.001]
        assert entries[0].error is None and entries[2].error is None
        assert entries[1].error is not None and "q_rad" in entries[1].error
        assert entries[1].final_total is None

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("weeks", 1.5, "weeks must be an integer, got 1.5"),
            ("integer_rounding", 0.0, "integer_rounding must be true or false, got 0.0"),
            ("alpha", "x", "alpha must be a number, got 'x'"),
            pytest.param(
                "alpha", 10**400, "alpha is too large, got an integer of 401 digits", id="alpha-big"
            ),
            pytest.param(
                "alpha",
                10**5000,
                "alpha is too large, got an integer of 5001 digits",
                id="alpha-past-str-limit",
            ),
        ],
    )
    def test_wrongly_typed_value_becomes_error_entry(self, key, value, message):
        entries = sweep(ModelParams(weeks=1), key, (value,), reference_initial())
        assert [(e.value, e.error, e.trajectory) for e in entries] == [(value, message, None)]

    def test_unknown_key_reported_per_value(self):
        entries = tuple(sweep(ModelParams(weeks=1), "banana", (1.0,), reference_initial()))
        assert entries[0].error == "unknown parameter: 'banana'"

    def test_order_independence(self):
        params = ModelParams(weeks=1)
        forward = sweep(params, "theta", (0.0, 0.005), reference_initial())
        backward = sweep(params, "theta", (0.005, 0.0), reference_initial())
        by_value_f = {e.value: (e.final_total, e.final_phi) for e in forward}
        by_value_b = {e.value: (e.final_total, e.final_phi) for e in backward}
        assert by_value_f == by_value_b



# Sweeps run on a fast-dominated start in real mode, where the recorded
# velocity is the fast fraction's: a = 1 stays below 0.05 and a = 5 reaches it
# on day 1, and a = 0 is rejected by the a > 0 row.
FAST_START = PopulationState(0.0, 0.0, 1e6)
SHORT_REAL = ModelParams(weeks=1, integer_rounding=False)

PARITY_CASES = {
    "one-value": ("a", (5.0,), 0.05),
    "two-values-error-row": ("a", (0.0, 5.0), 0.05),
    "three-values-hit-miss-error": ("a", (1.0, 5.0, 0.0), 0.05),
    "five-course-lengths": ("weeks", (1, 3, 2, 1, 2), None),
}


class TestSweepInProcess:
    @pytest.mark.parametrize("key, values, threshold", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_entries_equal_one_value_sweeps_and_fork_nothing(self, forks, key, values, threshold):
        entries = tuple(sweep(SHORT_REAL, key, values, FAST_START, threshold=threshold))
        alone = tuple(
            tuple(sweep(SHORT_REAL, key, (value,), FAST_START, threshold=threshold))[0]
            for value in values
        )
        assert forks == []
        assert entries == alone
        assert [e.value for e in entries] == list(values)

    def test_parity_cases_cover_error_rows_threshold_hits_and_misses(self):
        entries = [
            entry
            for key, values, threshold in PARITY_CASES.values()
            for entry in sweep(SHORT_REAL, key, values, FAST_START, threshold=threshold)
        ]
        assert any(e.error is not None for e in entries)
        assert any(e.threshold_day is not None for e in entries)
        assert any(e.error is None and e.threshold_day is None for e in entries)
        lengths = {len(e.trajectory.records) for e in entries if e.trajectory is not None}
        assert len(lengths) == 3

    def test_numpy_values_arrive_with_their_types(self):
        values = (np.float64(1.0), np.float64(5.0))
        entries = tuple(sweep(SHORT_REAL, "a", values, FAST_START))
        assert [e.value for e in entries] == list(values)
        assert type(entries[1].final_phi) is np.float64

    def test_a_failing_course_raises_and_stops_the_sweep(self, monkeypatch, forks):
        real_course = analysis.simulate_course
        ran = []

        def failing_course(params, initial):
            ran.append(params.a)
            if params.a == 2.0:
                raise RuntimeError("course 2.0")
            return real_course(params, initial)

        monkeypatch.setattr(analysis, "simulate_course", failing_course)
        with pytest.raises(RuntimeError, match=r"^course 2.0$"):
            tuple(sweep(SHORT_REAL, "a", (1.0, 2.0, 5.0), FAST_START))
        assert ran == [1.0, 2.0]
        assert forks == []

    def test_a_sweep_makes_no_file_or_fork_and_loads_no_pickling_or_signal_module(self):
        # A fresh interpreter, so the modules listed are the sweep's own; with
        # os.fork and tempfile.TemporaryFile set to None, calling either fails.
        script = (
            "import os, sys, tempfile\n"
            "from repopsim import analysis, ModelParams, PopulationState\n"
            "os.fork = tempfile.TemporaryFile = None\n"
            "entries = analysis.sweep(ModelParams(weeks=1), 'a', (1.0, 5.0), PopulationState(6, 3, 1))\n"
            "assert [e.error for e in entries] == [None, None]\n"
            "print([m for m in ('pickle', '_pickle', 'signal') if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_a_profiler_sees_every_course(self):
        courses = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is schedule.simulate_course.__code__:
                courses.append(frame.f_locals["params"].a)

        sys.setprofile(profiler)
        try:
            entries = tuple(sweep(SHORT_REAL, "a", (1.0, 2.0, 5.0), FAST_START))
        finally:
            sys.setprofile(None)
        assert courses == [1.0, 2.0, 5.0]
        assert all(e.error is None for e in entries)

    def test_a_course_runs_when_its_entry_is_taken(self, monkeypatch):
        real_course = analysis.simulate_course
        ran = []

        def course(params, initial):
            ran.append(params.a)
            return real_course(params, initial)

        monkeypatch.setattr(analysis, "simulate_course", course)
        values = (1.0, 2.0, 5.0)
        entries = sweep(SHORT_REAL, "a", values, FAST_START)
        assert ran == []
        for k, value in enumerate(values):
            assert next(entries).value == value
            assert ran == list(values[: k + 1])
        assert next(entries, None) is None
        assert ran == list(values)


def test_reference_run_for_comparison_is_a_fixture(course_zero, golden):
    # Every reference row must find a partner in the seven-week run.
    matched, _ = compare_to_golden(course_zero, golden, days=(1, 48), columns=ALL_COLUMNS)
    assert matched == len(golden) == 83
