"""Course composition, trajectory records, and bookkeeping invariants."""

from __future__ import annotations

import collections
import math
import os
import sys
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
    SimulationError,
    apply_pulse,
    build_radiation_operator,
    cli,
    core,
    integrate_growth,
    load_config,
    read_trajectory,
    simulate_course,
    schedule,
    survival_fraction,
    write_trajectory,
)

from .conftest import (
    MIXING_OVERRIDES,
    REFERENCE_WEEKS,
    fast_velocity,
    mean_velocity,
    record,
    reference_initial,
)


def _package_calls(function, *args):
    """function(*args), and the names of the Python calls into the package while it ran."""
    package = os.path.dirname(core.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _course_and_package_calls(params, initial):
    """The course of params from initial, and the names of the Python calls
    into the package while it ran."""
    return _package_calls(simulate_course, params, initial)


# One in-range alternative to each mixing.json parameter value.
_ALTERNATIVES = {
    "alpha": 0.3,
    "beta": 0.03,
    "dose": 1.5,
    "q_rad": 0.001,
    "p_rad": 0.001,
    "q_mix": 0.2,
    "p_mix": 0.2,
    "v0": 0.02,
    "v1": 0.02,
    "a": 4.0,
    "theta": 0.01,
    "weeks": 5,
    "integer_rounding": False,
    "weekend_days": 1,
    "pulses_per_week": 4,
}


@pytest.mark.parametrize("name", ModelParams._fields)
def test_no_model_parameter_is_a_no_op(tmp_path, name):
    # A field whose value never reaches the course is a knob that only looks
    # like one; a new field must be given an alternative here.
    config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
    assert _ALTERNATIVES[name] != getattr(config.params, name)
    changed = config.params._replace(**{name: _ALTERNATIVES[name]})
    outputs = []
    for label, params in (("mixing", config.params), (name, changed)):
        write_trajectory(simulate_course(params, config.initial), tmp_path / f"{label}.csv")
        outputs.append((tmp_path / f"{label}.csv").read_bytes())
    assert outputs[0] != outputs[1]


class TestScheduleSpec:
    """The course shape (weeks, pulses_per_week, weekend_days) is checked by ModelParams."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weeks": 0},
            {"weeks": 1, "pulses_per_week": -1},
            {"weeks": 1, "weekend_days": -1},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ModelParams(**kwargs)


class TestSimulateCourse:
    def test_empty_schedule_emits_only_initial_record(self):
        params = ModelParams(weeks=1, pulses_per_week=0, weekend_days=0)
        traj = simulate_course(params, PopulationState(60.0, 30.0, 10.0))
        assert len(traj.records) == 1
        rec = traj.records[0]
        assert (rec.day, rec.phase) == (1, "initial")
        assert rec.phi == 0.0
        assert (rec.y0, rec.y1, rec.y2) == (60.0, 30.0, 10.0)

    def test_rejects_empty_initial_population(self):
        with pytest.raises(InvalidStateError):
            simulate_course(ModelParams(weeks=1), PopulationState(0.0, 0.0, 0.0))

    def test_early_course_matches_reference_rows(self, course_zero, golden):
        for row in golden:
            if row.day > 5 or row.phase == "initial":
                continue
            rec = record(course_zero, row.day, row.phase)
            for got, want in zip((rec.y0, rec.y1, rec.y2), (row.y0, row.y1, row.y2)):
                assert abs(got - want) / want <= 0.005, (row.day, row.phase)

    def test_late_course_reaches_fast_dominated_equilibrium(self, course_zero):
        rec = record(course_zero, 48, "post_growth")
        assert rec.total < 1000.0
        assert rec.x2 > 0.9
        assert rec.phi == pytest.approx(0.0786, rel=0.1)

    def test_weekly_record_layout(self, course_zero):
        # Week 1 has its pulse folded into the initial state: one initial row,
        # one post-growth row on day 1, both rows on days 2-5, single rows on
        # the weekend.  Later weeks carry both rows on every weekday.
        by_day = {}
        for rec in course_zero.records:
            by_day.setdefault(rec.day, []).append(rec.phase)
        assert by_day[1] == ["initial", "post_growth"]
        for day in (2, 3, 4, 5, 8, 9, 10, 11, 12):
            assert by_day[day] == ["post_radiation", "post_growth"], day
        for day in (6, 7, 13, 14):
            assert by_day[day] == ["post_growth"], day
        week_two = [r for r in course_zero.records if 8 <= r.day <= 14]
        assert len(week_two) == 2 * 5 + 2
        assert len(course_zero.records) == REFERENCE_WEEKS * (2 * 5 + 2)

    def test_pulse_bookkeeping(self, course_zero):
        # After w full weeks the delivered count is w * pulses_per_week; the
        # trajectory records carry the running count through v2, so recompute
        # from a fresh short run instead.
        params = ModelParams(weeks=2)
        traj = simulate_course(params, reference_initial())
        assert len(traj.records) == 2 * (2 * 5 + 2)
        # 4 pulses fired in week 1 (the first is folded in) plus 5 in week 2,
        # on top of the one already counted in the initial state.
        assert traj.records[-1].day == 14
        last_pr = [r for r in traj.records if r.phase == "post_radiation"][-1]
        assert last_pr.day == 12
        assert record(course_zero, 12, "post_radiation").v2 == fast_velocity(params, 10, True)

    @pytest.mark.parametrize(
        "config, shape, delivered",
        [
            ("mixing.json", {"weeks": 2}, 2 + 4 + 5),
            ("mixing.json", {}, 1 + 29),
            ("baseline.json", {}, 1 + 29),
            ("mixing.json", {"pulses_per_week": 0}, 1),
            ("mixing.json", {"weekend_days": 0}, 1 + 29),
            ("baseline.json", {"weekend_days": 0, "pulses_per_week": 3}, 1 + 17),
        ],
    )
    def test_counter_bookkeeping(self, config, shape, delivered):
        # The course counts on from the initial state's pulses: each
        # post-radiation record adds one, and every record's v2 is README's
        # a * v1 * psi at the count so far, in the day's damping form, bit for bit.
        loaded = load_config(str(resources.files("repopsim").joinpath("data", config)))
        params = loaded.params._replace(**shape)
        initial = loaded.initial
        if "weeks" in shape:
            initial = PopulationState(6e8, 3.4e8, 6e7, pulses_delivered=2)
        week = params.pulses_per_week + params.weekend_days
        pulses = initial.pulses_delivered
        for rec in simulate_course(params, initial).records:
            pulses += rec.phase == "post_radiation"
            treatment = (rec.day - 1) % week < params.pulses_per_week
            assert rec.v2 == fast_velocity(params, pulses, treatment), (rec.day, rec.phase)
        assert pulses == delivered

    def test_call_budget_of_a_course(self):
        # Python calls into the package during one mixing.json course, counted
        # under sys.setprofile as the benchmark's call counts are: they repeat
        # exactly, where wall times on a shared machine do not. The per-day
        # path is about ten calls a growth day; a check or helper that creeps
        # back onto it shows here first.
        config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
        trajectory, calls = _course_and_package_calls(config.params, config.initial)
        assert trajectory.final().day == 42
        assert len(calls) <= 406, collections.Counter(calls).most_common()

    def test_call_budget_of_a_read_does_not_grow_with_its_rows(self, tmp_path):
        # read_trajectory checks and parses each row in its own loop, so a
        # 52-week file costs the package no more Python calls than a 1-week one.
        config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
        reads = []
        for weeks in (1, 52):
            path = tmp_path / f"{weeks}.csv"
            course = simulate_course(config.params._replace(weeks=weeks), config.initial)
            write_trajectory(course, path)
            trajectory, calls = _package_calls(read_trajectory, path)
            assert trajectory.final().day == 7 * weeks
            reads.append(calls)
        assert len(reads[0]) == len(reads[1]), [collections.Counter(c) for c in reads]

    @pytest.mark.parametrize(
        "fields",
        [{"v0": 0, "v1": 0, "q_mix": 0, "p_mix": 0}, {"dose": 2, "a": 5, "theta": 0, "q_mix": 1}],
        ids=["growth-off", "mixing"],
    )
    def test_int_params_cost_what_their_floats_cost(self, fields):
        # ModelParams stores a valid int given for a float field as its float,
        # as parse_config does, so every per-day guard sees exact floats and
        # no growth day takes a rule's slower path.
        config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
        as_ints = _course_and_package_calls(ModelParams(**fields), config.initial)
        floats = {name: float(value) for name, value in fields.items()}
        as_floats = _course_and_package_calls(ModelParams(**floats), config.initial)
        assert as_ints[0] == as_floats[0]
        assert len(as_ints[1]) == len(as_floats[1]), collections.Counter(as_ints[1]).most_common()

    def test_pulse_count_visible_through_damped_velocity(self, course_mixing):
        # In the damped regime v2 pins down the accumulated pulse count
        # exactly: end-of-week growth days must reflect w * 5 pulses.
        damped = ModelParams(weeks=7, q_rad=0.0005, p_rad=0.0005, q_mix=0.1, p_mix=0.1)
        for week, day in ((1, 7), (2, 14), (3, 21)):
            rec = record(course_mixing, day, "post_growth")
            assert rec.v2 == fast_velocity(damped, 5 * week, False)

    def test_post_radiation_rows_inherit_previous_velocity(self, course_zero):
        for day in (2, 3, 4, 5, 9, 16):
            before = record(course_zero, day - 1, "post_growth")
            after = record(course_zero, day, "post_radiation")
            assert after.phi == before.phi, day

    def test_psi_is_computed_once_per_course_day(self, monkeypatch):
        # One table of psi per course serves every record's v2, the initial
        # record's included: the course builds it once and calls nothing else for psi.
        config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
        calls = []
        real_psis = core._psis

        def counting_psis(*args):
            calls.append(args)
            return real_psis(*args)

        monkeypatch.setattr(core, "_psis", counting_psis)
        monkeypatch.setattr(schedule, "_psis", counting_psis)
        trajectory = simulate_course(config.params, config.initial)
        assert trajectory.final().day == 42
        assert len(calls) == 1, calls

    def test_record_totals_and_fractions_are_consistent(self, course_zero):
        for rec in course_zero.records:
            assert rec.total == rec.y0 + rec.y1 + rec.y2
            if rec.total > 0:
                assert rec.x0 == rec.y0 / rec.total
                assert abs(rec.x0 + rec.x1 + rec.x2 - 1.0) <= 1e-12

    def test_determinism(self):
        params = ModelParams(weeks=2, q_rad=0.0005, p_rad=0.0005, q_mix=0.1, p_mix=0.1)
        first = simulate_course(params, reference_initial())
        second = simulate_course(params, reference_initial())
        assert first.records == second.records

    def test_pure_radiation_reduction(self):
        params = ModelParams(v0=0.0, v1=0.0, theta=0.0, integer_rounding=False, weeks=2)
        initial = PopulationState(6e8, 3e8, 1e8, pulses_delivered=1)
        traj = simulate_course(params, initial)
        fired = 4 + 5
        s = survival_fraction(params)
        expected = 1e9 * s**fired
        assert traj.final().total == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1e9 * math.exp(-fired * 0.48), rel=1e-12)

    def test_extinction_marks_and_truncates(self):
        params = ModelParams(dose=4.0, weeks=2)
        traj = simulate_course(params, PopulationState(1.0, 1.0, 1.0))
        assert traj.extinct
        assert traj.extinction_day is not None
        assert traj.final().total < 1.0
        assert traj.final().day == traj.extinction_day
        assert len(traj.records) < 2 * (2 * 5 + 2)

    def test_extinction_on_a_growth_row(self):
        # 0.8 cells spread as 0.4 + 0.4 round to nothing during day 1's growth.
        traj = simulate_course(ModelParams(weeks=1), PopulationState(0.4, 0.4, 0.0))
        assert [(r.day, r.phase) for r in traj.records] == [(1, "initial"), (1, "post_growth")]
        assert traj.extinct
        assert traj.extinction_day == 1
        assert traj.final().total == 0.0

    def test_real_counts_underflowing_in_growth_are_numeric(self):
        # The least subnormal count, spread over three compartments with
        # none above a half, rounds to zero in each one during day 1's growth.
        params = ModelParams(
            v0=1.0, v1=1.0, a=0.2, q_mix=0.8, p_mix=0.5, weeks=1, integer_rounding=False
        )
        message = "^real-valued cell counts underflow to zero on day 1$"
        with pytest.raises(NumericInstabilityError, match=message):
            simulate_course(params, PopulationState(5e-324, 0.0, 0.0))

    @pytest.mark.parametrize("course", ["baseline.json", "mixing.json", "mixing-real", "check"])
    def test_every_growth_day_ends_on_the_simplex(self, course):
        # Nothing re-projects a growth day's endpoint, so the exact day must
        # land within a few units of 2**-53 of the simplex by itself. check
        # replays each endpoint from the records; the replay must be the
        # course's own day, so phi from its endpoint is the record's phi.
        if course == "check":
            params, initial = ModelParams(weeks=cli._REFERENCE_WEEKS), cli._REFERENCE_INITIAL
        else:
            name = "mixing.json" if course == "mixing-real" else course
            config = load_config(str(resources.files("repopsim").joinpath("data", name)))
            params, initial = config.params, config.initial
            if course == "mixing-real":
                params = params._replace(integer_rounding=False)
        traj = simulate_course(params, initial)
        endpoints = list(cli._growth_endpoints(traj, params))
        assert [rec for rec, _ in endpoints] == list(traj.post_growth_records())
        assert len(endpoints) == 7 * params.weeks
        for rec, (x0, x1, x2) in endpoints:
            assert abs(x0 + x1 + x2 - 1.0) <= 4 * 2.0**-53, (rec.day, rec.phase)
            assert params.v0 * x0 + params.v1 * x1 + rec.v2 * x2 == rec.phi, (rec.day, rec.phase)

    def test_continuous_mode_never_goes_extinct(self):
        params = ModelParams(dose=4.0, weeks=2, integer_rounding=False)
        traj = simulate_course(params, PopulationState(1.0, 1.0, 1.0))
        assert not traj.extinct
        assert traj.final().total > 0.0

    def test_course_shape_comes_from_params(self):
        # Three pulse days, then four growth-only days; the first pulse of
        # week one is folded into the initial state.
        params = ModelParams(weeks=3, pulses_per_week=3, weekend_days=4)
        traj = simulate_course(params, reference_initial())
        by_day = {}
        for rec in traj.records:
            by_day.setdefault(rec.day, []).append(rec.phase)
        assert by_day[1] == ["initial", "post_growth"]
        for day in (2, 3, 8, 9, 10, 15, 16, 17):
            assert by_day[day] == ["post_radiation", "post_growth"], day
        for day in (4, 5, 6, 7, 11, 12, 13, 14, 18, 19, 20, 21):
            assert by_day[day] == ["post_growth"], day
        assert len(traj.records) == 3 * (2 * 3 + 4)

    def test_weekend_only_course(self):
        params = ModelParams(
            weeks=3, pulses_per_week=0, weekend_days=2, q_mix=0.1, p_mix=0.1
        )
        traj = simulate_course(params, PopulationState(600.0, 340.0, 60.0, pulses_delivered=2))
        assert len(traj.records) == 7
        assert [r.day for r in traj.records[1:]] == [1, 2, 3, 4, 5, 6]
        assert all(r.phase != "post_radiation" for r in traj.records)
        weekend = fast_velocity(params, 2, False)
        assert weekend != fast_velocity(params, 2, True)
        assert all(r.v2 == weekend for r in traj.records)
        assert not traj.extinct


class TestPhaseVelocity:
    """Mean velocity of a state under the velocities in force at its pulse count."""

    def test_fast_corner_returns_frozen_velocity(self):
        params = ModelParams(q_mix=0.1, p_mix=0.1)
        x = (0.0, 0.0, 1.0)
        radiation = (params.v0, params.v1, fast_velocity(params, 3, True))
        weekend = (params.v0, params.v1, fast_velocity(params, 3, False))
        assert mean_velocity(x, radiation) == fast_velocity(params, 3, True)
        assert mean_velocity(x, weekend) == fast_velocity(params, 3, False)

    def test_reference_day_one_velocity(self, course_zero):
        params = ModelParams(weeks=REFERENCE_WEEKS)
        rec = record(course_zero, 1, "post_growth")
        x = (rec.y0 / rec.total, rec.y1 / rec.total, rec.y2 / rec.total)
        phi = mean_velocity(x, (params.v0, params.v1, fast_velocity(params, 1, True)))
        assert abs(phi - 0.016515136) / 0.016515136 <= 0.10

    def test_uniform_velocities_collapse_to_common_value(self):
        params = ModelParams(v0=0.02, v1=0.02, a=1.0, theta=0.0)
        x = (10.0 / 60.0, 20.0 / 60.0, 30.0 / 60.0)
        phi = mean_velocity(x, (params.v0, params.v1, fast_velocity(params, 0, True)))
        assert phi == pytest.approx(0.02, rel=1e-12)

    def test_rejects_empty_population(self):
        # An empty population has no fractions, and the all-zero triple is
        # off the simplex, so no mean velocity can be formed for it.
        params = ModelParams()
        with pytest.raises(InvalidStateError):
            mean_velocity((0.0, 0.0, 0.0), (params.v0, params.v1, fast_velocity(params, 0, True)))


def _grow(counts, params, v2):
    """One growth day composed from integrate_growth, the count rebuild by
    core._snap and a division by 2**v written here: the counts and phi."""
    total = counts[0] + counts[1] + counts[2]
    v = (params.v0, params.v1, v2)
    x = tuple(c / total for c in counts)
    x = integrate_growth((*v, params.q_mix, params.p_mix), x, 1.0, 1.0)
    phi = v[0] * x[0] + v[1] * x[1] + v[2] * x[2]
    mixed = tuple(c * total for c in x)
    if params.integer_rounding:
        mixed = core._snap(*mixed)
    try:
        divided = tuple(c * 2.0**rate for c, rate in zip(mixed, v))
    except OverflowError:
        divided = (math.inf,) * 3
    if not math.isfinite(divided[0] + divided[1] + divided[2]):
        raise NumericInstabilityError(f"cell counts overflow dividing for a day at velocities {v}")
    return (core._snap(*divided) if params.integer_rounding else divided), phi


def _composed_course(params, initial):
    """The course of params from initial as README states it, week by week:
    apply_pulse on each treatment day but the first, then _grow, with v2 from
    fast_velocity and the extinction rule after every record but the first."""
    if not initial.total() > 0:
        raise InvalidStateError("initial population must have a positive total")
    op = build_radiation_operator(params)
    rounding = params.integer_rounding
    pulses = initial.pulses_delivered
    records = []

    def log(day, phase, counts, phi, v2):
        """Append a record; whether its total ends the course."""
        total = counts[0] + counts[1] + counts[2]
        x = tuple(c / total for c in counts) if total else (0.0, 0.0, 0.0)
        records.append(schedule.TrajectoryRecord(day, phase, *counts, *x, phi, v2, total))
        if phase == "initial" or not total < 1:
            return False
        if not rounding and total == 0:
            raise NumericInstabilityError(f"real-valued cell counts underflow to zero on day {day}")
        return rounding

    counts = (initial.y0, initial.y1, initial.y2)
    log(1, "initial", counts, 0.0, fast_velocity(params, pulses, params.pulses_per_week > 0))
    counts, phi, day = tuple(float(c) for c in counts), 0.0, 0
    for _ in range(params.weeks):
        for weekday in range(params.pulses_per_week + params.weekend_days):
            day += 1
            treatment = weekday < params.pulses_per_week
            if treatment and day > 1:
                counts = apply_pulse(op, counts, rounding)
                pulses += 1
                if log(day, "post_radiation", counts, phi, fast_velocity(params, pulses, True)):
                    return schedule.Trajectory(tuple(records), rounding, extinction_day=day)
            v2 = fast_velocity(params, pulses, treatment)
            counts, phi = _grow(counts, params, v2)
            if log(day, "post_growth", counts, phi, v2):
                return schedule.Trajectory(tuple(records), rounding, extinction_day=day)
    return schedule.Trajectory(tuple(records), rounding)


def _outcome(course, params, initial):
    """("returned", the trajectory), or the SimulationError raised as (type, message)."""
    try:
        return "returned", course(params, initial)
    except SimulationError as exc:
        return type(exc), str(exc)


# A count: none, a few cells (a course that dies on a growth row), a tumour,
# or near the floats' end (a division that overflows).
_COUNT = st.one_of(
    st.just(0.0),
    st.floats(0.0, 3.0),
    st.floats(1e3, 1e10),
    st.integers(0, 10**9),
    st.floats(1e305, 1e306),
)
# A velocity of the paper's size, or one past 2**1024 in a day.
_VELOCITY = st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 1100.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(0, 7), st.integers(0, 3)),
    counts=st.tuples(_COUNT, _COUNT, _COUNT),
    pulses=st.integers(0, 40),
    # A dose past 30 Gy leaves so few cells that a few pulses end an integer
    # course, and underflow a real one to zero.
    dose=st.one_of(st.floats(0.0, 5.0), st.floats(30.0, 150.0)),
    transfers=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    mixing=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    velocities=st.tuples(_VELOCITY, _VELOCITY, st.floats(0.1, 10.0), st.floats(-5.0, 5.0)),
    integer_rounding=st.booleans(),
)
def test_course_equals_its_steps_composed(
    shape, counts, pulses, dose, transfers, mixing, velocities, integer_rounding
):
    # Every record equal (==) to the course composed from the public pulse,
    # the public mixing day and a test-side division, or the same error.
    weeks, pulses_per_week, weekend_days = shape
    v0, v1, a, theta = velocities
    s = survival_fraction(ModelParams(dose=dose))
    params = ModelParams(
        weeks=weeks,
        pulses_per_week=pulses_per_week,
        weekend_days=weekend_days,
        dose=dose,
        q_rad=transfers[0] * s / 2,
        p_rad=transfers[1] * s / 2,
        q_mix=mixing[0],
        p_mix=mixing[1],
        v0=v0,
        v1=v1,
        a=a,
        theta=theta,
        integer_rounding=integer_rounding,
    )
    initial = PopulationState(*counts, pulses_delivered=pulses)
    got = _outcome(simulate_course, params, initial)
    assert got == _outcome(_composed_course, params, initial)
