"""Release gate: one test per acceptance criterion, at the stated tolerance.

Criterion 7 (velocity monotonicity in both regimes) fails by design: once the
damping threshold has collapsed the fast fraction's velocity below the others,
the recorded mean velocity declines, so the mixing regime cannot keep the
velocity column monotone. The test states the requirement faithfully and is
expected red; the bundled reference regime passes it.
"""

from __future__ import annotations

import csv
import math
import random
import time
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    ModelParams,
    RadiationOperator,
    apply_pulse,
    build_radiation_operator,
    integrate_growth,
    load_config,
    simulate_course,
    survival_fraction,
)
from repopsim.cli import _growth_endpoints, cli_main
from repopsim.growth import apply_division
from repopsim.io import TRAJECTORY_HEADER

from .conftest import (
    REFERENCE_WEEKS,
    euler_mix,
    fast_velocity,
    mean_velocity,
    pulse_power,
    random_simplex_points,
    record,
    reference_initial,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
cells = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(qf=unit, pf=unit)
def test_criterion_01_lq_identity_over_30_pulses(qf, pf):
    params = ModelParams()
    s = survival_fraction(params)
    # Build the operator directly so q and p range over the full valid band.
    op = RadiationOperator(s=s, q=s * qf, p=s * pf)
    n0 = 1e9
    final = pulse_power(op, 30, (0.3 * n0, 0.5 * n0, 0.2 * n0))
    expected = n0 * math.exp(-14.4)
    assert abs(sum(final) - expected) / expected <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(y0=cells, y1=cells, y2=cells, qf=unit, pf=unit)
def test_criterion_02_each_pulse_scales_total_by_survival(y0, y1, y2, qf, pf):
    s = survival_fraction(ModelParams())
    op = RadiationOperator(s=s, q=s * qf, p=s * pf)
    out = apply_pulse(op, (y0, y1, y2))
    expected = (y0 + y1 + y2) * s
    if expected == 0.0:
        assert sum(out) == 0.0
    else:
        assert abs(sum(out) - expected) / expected <= 1e-12


def test_criterion_03_simplex_preserved_over_six_week_course():
    params = ModelParams(weeks=6)
    trajectory = simulate_course(params, reference_initial())
    endpoints = list(_growth_endpoints(trajectory, params))
    assert len(endpoints) == 7 * params.weeks
    for rec, (x0, x1, x2) in endpoints:
        assert abs(x0 + x1 + x2 - 1.0) <= 1e-12, rec.day
    for rec in trajectory.records:
        assert abs(rec.x0 + rec.x1 + rec.x2 - 1.0) <= 1e-9, (rec.day, rec.phase)


def test_criterion_04_fast_fraction_dominates_by_day_48(course_zero):
    assert record(course_zero, 48, "post_growth").x2 >= 0.93


def test_criterion_05_early_course_reproduction_at_desk_scale():
    params = ModelParams(weeks=1)
    assert params.q_rad == 0.0 and params.p_rad == 0.0
    start = time.perf_counter()
    trajectory = simulate_course(params, reference_initial())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    day1 = record(trajectory, 1, "post_growth")
    assert abs(day1.total - 625950700.0) / 625950700.0 <= 0.005

    day2 = record(trajectory, 2, "post_radiation")
    for got, want in zip(
        (day2.y0, day2.y1, day2.y2), (229863321.0, 131585880.0, 25878696.0)
    ):
        assert abs(got - want) / want <= 0.005


def test_criterion_06_terminal_velocity(course_zero):
    phi = record(course_zero, 48, "post_growth").phi
    assert abs(phi - 0.078599769) / 0.078599769 <= 0.10


def test_criterion_07_velocity_monotone_in_both_regimes(course_zero, course_mixing):
    violations = {}
    for regime, course in (("zero", course_zero), ("mixing", course_mixing)):
        pg = course.post_growth_records()
        broken = [
            (prev.day, cur.day, prev.phi, cur.phi)
            for prev, cur in zip(pg, pg[1:])
            if cur.phi < prev.phi
        ]
        if broken:
            violations[regime] = broken
    assert not violations, (
        "post-growth velocity decreased in regime(s) "
        f"{sorted(violations)}; first violations: "
        f"{ {k: v[:3] for k, v in violations.items()} }"
    )


def test_velocity_rises_by_composition_in_both_regimes():
    # The abstract's claim: growth accelerates "due to the decrease of the
    # fraction of slowly growing cells and increase of the cells that are fast
    # growing". Price (1970) splits each step of phi = sum v_i x_i between two
    # post-growth records, at the replayed mixing endpoints, into a composition
    # term sum v_i dx_i and a damping term sum x_i' dv_i. The composition term
    # must be positive on most steps ("most" is more than half); criterion 7's
    # stronger rule, that phi never falls, is tested apart.
    for name in ("baseline.json", "mixing.json"):
        config = load_config(str(resources.files("repopsim") / "data" / name))
        params = config.params
        course = simulate_course(params, config.initial)
        points = [
            ((params.v0, params.v1, rec.v2), x, rec.phi)
            for rec, x in _growth_endpoints(course, params)
        ]
        steps = list(zip(points, points[1:]))
        assert len(steps) == 7 * params.weeks - 1, name
        rising = 0
        for (v, x, phi), (v_next, x_next, phi_next) in steps:
            composition = sum(vi * (b - a) for vi, a, b in zip(v, x, x_next))
            damping = sum(b * (w - u) for b, u, w in zip(x_next, v, v_next))
            rounding = 4 * math.ulp(max(phi, phi_next))
            assert abs(composition + damping - (phi_next - phi)) <= rounding, name
            rising += composition > 0
        assert 2 * rising > len(steps), (name, rising, len(steps))


def test_criterion_08_one_week_equals_hand_composed_operators(course_zero):
    # Compose (growth * radiation)^5 * growth^2 from the pulse and
    # growth-interval primitives, rightmost factor applied first: the two
    # weekend growth days that close week one, then five pulse-then-growth
    # weekdays. Every emitted value must match the engine bitwise.
    params = ModelParams(weeks=REFERENCE_WEEKS)
    op = build_radiation_operator(params)
    start = record(course_zero, 5, "post_growth")
    counts = (start.y0, start.y1, start.y2)
    pulses = 5
    previous_phi = start.phi

    def grow(counts, pulses, treatment):
        total = counts[0] + counts[1] + counts[2]
        x = (counts[0] / total, counts[1] / total, counts[2] / total)
        v = (params.v0, params.v1, fast_velocity(params, pulses, treatment))
        rates = (*v, params.q_mix, params.p_mix)
        x_end = integrate_growth(rates, x, 1.0, 1.0)
        phi = mean_velocity(x_end, v)
        # Spread the total over the endpoint, each count snapped half up in integer mode.
        mixed = (x_end[0] * total, x_end[1] * total, x_end[2] * total)
        if params.integer_rounding:
            mixed = tuple(float(math.floor(y + 0.5)) for y in mixed)
        divided = apply_division(mixed, v, params.integer_rounding)
        return divided, phi, v[2]

    def assert_matches(rec, counts, phi, v2):
        assert (rec.y0, rec.y1, rec.y2) == counts
        total = counts[0] + counts[1] + counts[2]
        assert rec.total == total
        assert (rec.x0, rec.x1, rec.x2) == (
            counts[0] / total,
            counts[1] / total,
            counts[2] / total,
        )
        assert rec.phi == phi
        assert rec.v2 == v2

    for day in (6, 7):
        counts, previous_phi, v2 = grow(counts, pulses, False)
        assert_matches(record(course_zero, day, "post_growth"), counts, previous_phi, v2)

    for day in range(8, 13):
        counts = apply_pulse(op, counts, params.integer_rounding)
        pulses += 1
        rec = record(course_zero, day, "post_radiation")
        v2_now = fast_velocity(params, pulses, True)
        assert_matches(rec, counts, previous_phi, v2_now)
        counts, previous_phi, v2 = grow(counts, pulses, True)
        assert_matches(record(course_zero, day, "post_growth"), counts, previous_phi, v2)


def test_criterion_09_exact_growth_day_matches_small_step_euler_oracle():
    params = ModelParams(q_rad=0.0005, p_rad=0.0005, q_mix=0.1, p_mix=0.1)
    v = (params.v0, params.v1, fast_velocity(params, 1, True))
    rates = (*v, params.q_mix, params.p_mix)
    points = random_simplex_points(random.Random(2026), 50)
    oracle = euler_mix(points, v, params.q_mix, params.p_mix, 1.0, 1e-5)
    for x, reference in zip(points, oracle):
        out = integrate_growth(rates, x, duration=1.0, step=0.01)
        for got, want in zip(out, reference):
            assert abs(got - want) <= 1e-6


def read_phi_column(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        assert ",".join(header) == TRAJECTORY_HEADER
        return {(int(row[0]), row[1]): row[8] for row in reader}


def test_criterion_10_diff_pipeline_matches_independent_recomputation(
    tmp_path, record_property
):
    configs = resources.files("repopsim")
    zero_out = tmp_path / "zero.csv"
    mixing_out = tmp_path / "mixing.csv"
    diff_out = tmp_path / "diff.csv"
    assert (
        cli_main(
            ["run", "--config", str(configs.joinpath("data/baseline.json")),
             "--out", str(zero_out)]
        )
        == 0
    )
    assert (
        cli_main(
            ["run", "--config", str(configs.joinpath("data/mixing.json")),
             "--out", str(mixing_out)]
        )
        == 0
    )
    assert (
        cli_main(["diff", str(mixing_out), str(zero_out), "--out", str(diff_out)]) == 0
    )

    mixing_phi = read_phi_column(mixing_out)
    zero_phi = read_phi_column(zero_out)
    recomputed = {
        key: float(mixing_phi[key]) - float(zero_phi[key])
        for key in mixing_phi
        if key in zero_phi
    }

    with open(diff_out, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["day", "phase", "delta_phi"]
        produced = {(int(row[0]), row[1]): float(row[2]) for row in reader}

    assert set(produced) == set(recomputed)
    for key, value in recomputed.items():
        assert produced[key] == float(f"{value:.9f}"), key

    deltas = [
        produced[key] for key in sorted(produced) if key[1] == "post_growth"
    ]
    assert any(delta != 0.0 for delta in deltas)
    positive = sum(1 for delta in deltas if delta > 0)
    negative = sum(1 for delta in deltas if delta < 0)
    pattern = (
        f"sign pattern of the velocity difference (mixing minus zero) across "
        f"{len(deltas)} post-growth days: {positive} positive, {negative} negative; "
        f"expectation was acceleration first, slowing later - observed slowing "
        f"from the first day on"
    )
    record_property("sign_pattern", pattern)
    print(pattern)
