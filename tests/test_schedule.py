"""Course composition, trajectory records, and bookkeeping invariants."""

from __future__ import annotations

import dataclasses
import math
from importlib import resources

import pytest

from repopsim import (
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    NumericInstabilityError,
    PopulationState,
    cli,
    core,
    load_config,
    simulate_course,
    survival_fraction,
    v2_of,
    write_trajectory,
)

from .conftest import (
    MIXING_OVERRIDES,
    REFERENCE_WEEKS,
    mean_velocity,
    record,
    reference_initial,
)


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


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelParams)])
def test_no_model_parameter_is_a_no_op(tmp_path, name):
    # A field whose value never reaches the course is a knob that only looks
    # like one; a new field must be given an alternative here.
    config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
    assert _ALTERNATIVES[name] != getattr(config.params, name)
    changed = dataclasses.replace(config.params, **{name: _ALTERNATIVES[name]})
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
        assert record(course_zero, 12, "post_radiation").v2 == v2_of(params, 10, True)

    def test_counter_bookkeeping(self):
        # The course counts on from the initial state's pulses: each
        # post-radiation record adds one, and every record's v2 is v2_of at
        # the count so far, in the day's damping form.
        params = ModelParams(weeks=2, **MIXING_OVERRIDES)
        initial = PopulationState(6e8, 3.4e8, 6e7, pulses_delivered=2)
        week = params.pulses_per_week + params.weekend_days
        pulses = 2
        for rec in simulate_course(params, initial).records:
            pulses += rec.phase == "post_radiation"
            treatment = (rec.day - 1) % week < params.pulses_per_week
            assert rec.v2 == v2_of(params, pulses, treatment), (rec.day, rec.phase)
        assert pulses == 2 + 4 + 5

    def test_pulse_count_visible_through_damped_velocity(self, course_mixing):
        # In the damped regime v2 pins down the accumulated pulse count
        # exactly: end-of-week growth days must reflect w * 5 pulses.
        damped = ModelParams(weeks=7, q_rad=0.0005, p_rad=0.0005, q_mix=0.1, p_mix=0.1)
        for week, day in ((1, 7), (2, 14), (3, 21)):
            rec = record(course_mixing, day, "post_growth")
            assert rec.v2 == v2_of(damped, 5 * week, False)

    def test_post_radiation_rows_inherit_previous_velocity(self, course_zero):
        for day in (2, 3, 4, 5, 9, 16):
            before = record(course_zero, day - 1, "post_growth")
            after = record(course_zero, day, "post_radiation")
            assert after.phi == before.phi, day

    def test_psi_is_computed_once_per_course_day(self, monkeypatch):
        # A day's v2 serves both its post-radiation record and its growth,
        # with at most one more call for the initial record.
        config = load_config(str(resources.files("repopsim").joinpath("data", "mixing.json")))
        calls = []
        real_psi = core.psi

        def counting_psi(*args):
            calls.append(args)
            return real_psi(*args)

        monkeypatch.setattr(core, "psi", counting_psi)
        trajectory = simulate_course(config.params, config.initial)
        assert trajectory.final().day == 42
        assert 0 < len(calls) <= 42 + 1

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
        assert first.max_simplex_drift == second.max_simplex_drift

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
        # land within a few units of 2**-53 of the simplex by itself.
        if course == "check":
            params, initial = ModelParams(weeks=cli._REFERENCE_WEEKS), cli._REFERENCE_INITIAL
        else:
            name = "mixing.json" if course == "mixing-real" else course
            config = load_config(str(resources.files("repopsim").joinpath("data", name)))
            params, initial = config.params, config.initial
            if course == "mixing-real":
                params = dataclasses.replace(params, integer_rounding=False)
        traj = simulate_course(params, initial)
        assert len(traj.post_growth_records()) == 7 * params.weeks
        assert traj.max_simplex_drift <= 4 * 2.0**-53

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
        weekend = v2_of(params, 2, False)
        assert weekend != v2_of(params, 2, True)
        assert all(r.v2 == weekend for r in traj.records)
        assert not traj.extinct


class TestPhaseVelocity:
    """Mean velocity of a state under the velocities in force at its pulse count."""

    def test_fast_corner_returns_frozen_velocity(self):
        params = ModelParams(q_mix=0.1, p_mix=0.1)
        x = (0.0, 0.0, 1.0)
        radiation = (params.v0, params.v1, v2_of(params, 3, True))
        weekend = (params.v0, params.v1, v2_of(params, 3, False))
        assert mean_velocity(x, radiation) == v2_of(params, 3, True)
        assert mean_velocity(x, weekend) == v2_of(params, 3, False)

    def test_reference_day_one_velocity(self, course_zero):
        params = ModelParams(weeks=REFERENCE_WEEKS)
        rec = record(course_zero, 1, "post_growth")
        x = (rec.y0 / rec.total, rec.y1 / rec.total, rec.y2 / rec.total)
        phi = mean_velocity(x, (params.v0, params.v1, v2_of(params, 1, True)))
        assert abs(phi - 0.016515136) / 0.016515136 <= 0.10

    def test_uniform_velocities_collapse_to_common_value(self):
        params = ModelParams(v0=0.02, v1=0.02, a=1.0, theta=0.0)
        x = (10.0 / 60.0, 20.0 / 60.0, 30.0 / 60.0)
        phi = mean_velocity(x, (params.v0, params.v1, v2_of(params, 0, True)))
        assert phi == pytest.approx(0.02, rel=1e-12)

    def test_rejects_empty_population(self):
        # An empty population has no fractions, and the all-zero triple is
        # off the simplex, so no mean velocity can be formed for it.
        params = ModelParams()
        with pytest.raises(InvalidStateError):
            mean_velocity((0.0, 0.0, 0.0), (params.v0, params.v1, v2_of(params, 0, True)))
