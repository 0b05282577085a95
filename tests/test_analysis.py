"""Velocity diffs, closed-form totals, reference comparison, and sweeps."""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace as dc_replace
from importlib import resources

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
    load_config,
    lq_closed_form,
    pulse_power,
    sweep,
)

from .conftest import reference_initial


def tiny_trajectory(points):
    """Trajectory with just (day, phase, phi) triples, counts filled with ones."""
    records = tuple(
        TrajectoryRecord(
            day=day, phase=phase, y0=1.0, y1=1.0, y2=1.0,
            x0=1 / 3, x1=1 / 3, x2=1 / 3, phi=phi, v2=0.08, total=3.0,
        )
        for day, phase, phi in points
    )
    return Trajectory(records=records)


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
            diff_velocity(Trajectory(records=()), course_zero)

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
        state = pulse_power(op, n, PopulationState(3e8, 5e8, 2e8))
        assert state.total() == pytest.approx(lq_closed_form(1e9, n, params), rel=1e-12)


class TestCompareToGolden:
    def test_trajectory_against_itself(self, course_zero):
        table = tuple(
            GoldenRow(day=r.day, phase=r.phase, y0=r.y0, y1=r.y1, y2=r.y2, velocity=r.phi)
            for r in course_zero.records
        )
        report = compare_to_golden(course_zero, table, tolerance=0.0)
        assert report.passed
        assert report.matched == len(course_zero.records)
        assert report.worst is not None and report.worst.relative == 0.0

    def test_early_course_counts(self, course_zero, golden):
        report = compare_to_golden(
            course_zero, golden, tolerance=0.005, days=(1, 5), columns=("y0", "y1", "y2")
        )
        assert report.passed, report.failures[:3]
        assert report.matched == 10

    def test_final_velocity(self, course_zero, golden):
        report = compare_to_golden(
            course_zero, golden, tolerance=0.10, days=(48, 48), columns=("velocity",)
        )
        assert report.passed
        assert report.matched == 1

    def test_rows_without_partner_are_skipped(self, course_zero):
        table = (GoldenRow(day=99, phase="post_growth", y0=1, y1=1, y2=1, velocity=0.1),)
        report = compare_to_golden(course_zero, table, tolerance=0.1)
        assert report.matched == 0
        assert report.skipped == 1
        assert report.worst is None

    def test_unknown_column_is_named(self, course_zero, golden):
        with pytest.raises(ConfigError, match="x2"):
            compare_to_golden(course_zero, golden, tolerance=0.1, columns=("x2",))

    def test_error_metric_is_symmetric(self):
        a = tiny_trajectory([(1, "post_growth", 0.1)])
        b = tiny_trajectory([(1, "post_growth", 0.125)])
        table_from = lambda t: (
            GoldenRow(day=1, phase="post_growth", y0=1, y1=1, y2=1,
                      velocity=t.records[0].phi),
        )
        forward = compare_to_golden(a, table_from(b), 0.0, columns=("velocity",))
        backward = compare_to_golden(b, table_from(a), 0.0, columns=("velocity",))
        assert forward.worst is not None and backward.worst is not None
        assert forward.worst.relative == backward.worst.relative


class TestSweep:
    def test_empty_values(self):
        out = sweep(ModelParams(), "a", (), reference_initial())
        assert out == ()

    def test_growth_advantage_orders_final_velocity(self):
        entries = sweep(ModelParams(weeks=1), "a", (1.0, 5.0), reference_initial())
        assert [e.value for e in entries] == [1.0, 5.0]
        assert all(e.error is None for e in entries)
        assert entries[0].final_phi < entries[1].final_phi

    def test_threshold_offset_scales_terminal_velocity(self):
        # From a fast-dominated state with zero coefficients the recorded
        # velocity equals the fast-fraction velocity, so the two runs differ
        # exactly by the damping offset factor.
        params = ModelParams(weeks=1, integer_rounding=False)
        initial = PopulationState(0.0, 0.0, 1e6)
        entries = sweep(params, "theta", (0.0, 0.005), initial)
        ratio = entries[1].final_phi / entries[0].final_phi
        assert ratio == pytest.approx(math.exp(0.005), rel=1e-12)

    def test_threshold_day_reporting(self):
        params = ModelParams(weeks=1, integer_rounding=False)
        initial = PopulationState(0.0, 0.0, 1e6)
        hit = sweep(params, "theta", (0.0, 0.005), initial, threshold=0.05)
        missed = sweep(params, "theta", (0.0,), initial, threshold=1.0)
        assert all(e.threshold_day == 1 for e in hit)
        assert missed[0].threshold_day is None

    def test_nan_threshold_is_rejected_before_any_course(self, monkeypatch):
        monkeypatch.setattr(analysis, "simulate_course", lambda *args: pytest.fail("a course ran"))
        with pytest.raises(InvalidParameterError, match="threshold must be a number, got nan"):
            sweep(ModelParams(weeks=1), "a", (1.0, 5.0), reference_initial(), threshold=math.nan)

    def test_out_of_range_value_becomes_error_entry(self):
        entries = sweep(
            ModelParams(weeks=1),
            "q_rad",
            (0.0005, 0.7, 0.001),
            reference_initial(),
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
        entries = sweep(ModelParams(weeks=1), "banana", (1.0,), reference_initial())
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


@pytest.fixture
def use_cpus(monkeypatch):
    """Sets the usable CPU count the sweep sees."""
    return lambda count: monkeypatch.setattr(analysis, "_usable_cpus", lambda: count)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the sweep forks."""
    made = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def open_fds() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelSweep:
    @pytest.mark.parametrize("key, values, threshold", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_serial_and_parallel_entries_are_equal(self, use_cpus, forks, key, values, threshold):
        use_cpus(1)
        serial = sweep(SHORT_REAL, key, values, FAST_START, threshold=threshold)
        assert forks == []
        use_cpus(3)
        parallel = sweep(SHORT_REAL, key, values, FAST_START, threshold=threshold)
        assert len(forks) == min(len(values), 3) - 1
        assert parallel == serial
        assert [e.value for e in parallel] == list(values)
        assert_no_children_left()

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

    def test_numpy_values_arrive_with_their_types(self, use_cpus, forks):
        values = (np.float64(1.0), np.float64(5.0))
        use_cpus(1)
        serial = sweep(SHORT_REAL, "a", values, FAST_START)
        use_cpus(2)
        parallel = sweep(SHORT_REAL, "a", values, FAST_START)
        assert len(forks) == 1
        assert parallel == serial
        assert type(parallel[1].final_phi) is type(serial[1].final_phi) is np.float64

    @pytest.mark.parametrize(
        "failure, message",
        [
            ("child-raises", r"(?s)worker \d+ exited with code 1:\n.*RuntimeError: course 5.0"),
            ("child-killed", rf"worker \d+ was killed by signal {int(signal.SIGKILL)}"),
            ("child-frame-cut-short", r"worker \d+ exited with code 0:\n.* 5.0 was cut short"),
            ("parent-raises", r"^course 1.0$"),
        ],
    )
    def test_a_failed_share_raises_and_leaves_no_child_or_pipe(
        self, monkeypatch, use_cpus, forks, failure, message
    ):
        # Value 1.0 is the calling process's share, 5.0 the child's.
        parent = os.getpid()
        real_course = analysis.simulate_course

        def failing_course(params, initial):
            in_child = os.getpid() != parent
            if failure == "child-killed" and in_child:
                os.kill(os.getpid(), signal.SIGKILL)
            if (failure, params.a) in (("child-raises", 5.0), ("parent-raises", 1.0)):
                raise RuntimeError(f"course {params.a}")
            return real_course(params, initial)

        monkeypatch.setattr(analysis, "simulate_course", failing_course)
        if failure == "child-frame-cut-short":
            real_frame = analysis._entry_frame
            monkeypatch.setattr(analysis, "_entry_frame", lambda entry: real_frame(entry)[:-1])
        use_cpus(2)
        fds = open_fds()
        with pytest.raises(RuntimeError, match=message):
            sweep(SHORT_REAL, "a", (1.0, 5.0), FAST_START)
        assert len(forks) == 1
        assert_no_children_left()
        assert open_fds() == fds

    def test_one_worker_makes_no_file_or_fork_and_loads_no_pickling_or_signal_module(self):
        # A fresh interpreter, so the modules listed are the sweep's own; with
        # os.fork and tempfile.TemporaryFile set to None, calling either fails.
        script = (
            "import os, sys, tempfile\n"
            "from repopsim import analysis, ModelParams, PopulationState\n"
            "analysis._usable_cpus = lambda: 1\n"
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

    def test_a_failed_fork_runs_the_share_here(self, monkeypatch, use_cpus):
        use_cpus(1)
        serial = sweep(SHORT_REAL, "a", (1.0, 0.0, 5.0), FAST_START, threshold=0.05)

        def failing_fork():
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", failing_fork)
        use_cpus(3)
        fds = open_fds()
        assert sweep(SHORT_REAL, "a", (1.0, 0.0, 5.0), FAST_START, threshold=0.05) == serial
        assert_no_children_left()
        assert open_fds() == fds

    def test_a_profiler_sees_every_course(self, use_cpus, forks):
        use_cpus(2)
        courses = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is schedule.simulate_course.__code__:
                courses.append(frame.f_locals["params"].a)

        sys.setprofile(profiler)
        try:
            entries = sweep(SHORT_REAL, "a", (1.0, 2.0, 5.0), FAST_START)
        finally:
            sys.setprofile(None)
        assert forks == []
        assert courses == [1.0, 2.0, 5.0]
        assert all(e.error is None for e in entries)

    def test_a_second_thread_keeps_the_sweep_serial(self, use_cpus, forks):
        use_cpus(2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            entries = sweep(SHORT_REAL, "a", (1.0, 5.0), FAST_START)
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert forks == []
        assert [e.value for e in entries] == [1.0, 5.0]

    def test_a_child_never_waits_on_the_parent(self, monkeypatch, use_cpus, forks, tmp_path):
        # A 52-week entry is tens of KiB, so a child writing its share into a
        # 64 KiB pipe would stall on its second entry until the parent read.
        mixing = load_config(str(resources.files("repopsim") / "data" / "mixing.json"))
        params = dc_replace(mixing.params, weeks=52)
        marker = tmp_path / "child-finished"
        parent = os.getpid()
        real_course = analysis.simulate_course
        seen = []

        def course(params, initial):
            trajectory = real_course(params, initial)
            if os.getpid() != parent and params.a == 6.0:
                marker.touch()
            if os.getpid() == parent and params.a == 1.0:
                deadline = time.monotonic() + 10
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                seen.append(marker.exists())
            return trajectory

        monkeypatch.setattr(analysis, "simulate_course", course)
        use_cpus(2)
        entries = sweep(params, "a", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), mixing.initial)
        assert len(forks) == 1
        assert seen == [True]
        assert [e.value for e in entries] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert all(e.error is None for e in entries)
        assert_no_children_left()

    def test_a_child_failing_after_some_entries_reports_its_traceback(
        self, monkeypatch, use_cpus, forks
    ):
        # The child's share is 2.0 then 4.0; it fails on its second value.
        real_course = analysis.simulate_course

        def failing_course(params, initial):
            if params.a == 4.0:
                raise RuntimeError("course 4.0")
            return real_course(params, initial)

        monkeypatch.setattr(analysis, "simulate_course", failing_course)
        use_cpus(2)
        fds = open_fds()
        with pytest.raises(RuntimeError, match=r"(?s)exited with code 1:\n.*RuntimeError: course 4.0"):
            sweep(SHORT_REAL, "a", (1.0, 2.0, 3.0, 4.0), FAST_START)
        assert len(forks) == 1
        assert_no_children_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("reaped_first", [False, True], ids=["before-waiting", "after-reaping"])
    def test_an_interrupted_wait_kills_and_reaps_every_child(
        self, monkeypatch, use_cpus, forks, tmp_path, reaped_first
    ):
        # The first blocking wait raises KeyboardInterrupt, as a signal handler
        # would: before it waits on a child whose course still sleeps, or just
        # after it reaped the first of two children.
        marker = tmp_path / "child-finished"
        parent = os.getpid()
        real_course = analysis.simulate_course
        real_waitpid = os.waitpid
        interrupted = []

        def sleeping_course(params, initial):
            if os.getpid() != parent:
                time.sleep(5)
                marker.touch()
            return real_course(params, initial)

        def interrupted_waitpid(pid, options):
            if options == 0 and not interrupted:
                interrupted.append(pid)
                if reaped_first:
                    real_waitpid(pid, options)
                raise KeyboardInterrupt
            return real_waitpid(pid, options)

        if not reaped_first:
            monkeypatch.setattr(analysis, "simulate_course", sleeping_course)
        monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
        values = (1.0, 2.0, 5.0) if reaped_first else (1.0, 5.0)
        use_cpus(len(values))
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            sweep(SHORT_REAL, "a", values, FAST_START)
        assert len(forks) == len(values) - 1
        assert_no_children_left()
        assert open_fds() == fds
        assert not marker.exists()


def test_reference_run_for_comparison_is_a_fixture(course_zero, golden):
    # Every reference row must find a partner in the seven-week run.
    report = compare_to_golden(course_zero, golden, tolerance=1.0)
    assert report.skipped == 0
    assert report.matched == len(golden) == 83
