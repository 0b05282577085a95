"""Shared fixtures: reference parameter sets, course runs, ODE oracles, small
helpers over the package's types, and fork and file-descriptor probes."""

from __future__ import annotations

import decimal
import math
import os

import numpy as np
import pytest

from repopsim import (
    ModelParams,
    PopulationState,
    apply_pulse,
    load_reference_table,
    simulate_course,
)
from repopsim.core import check_simplex

# Initial population of the bundled reference course: the first pulse is
# already folded in, so the pulse counter seeds at one.
REFERENCE_COUNTS = (371270035.0, 210386353.0, 37127004.0)
REFERENCE_WEEKS = 7

MIXING_OVERRIDES = {"q_rad": 0.0005, "p_rad": 0.0005, "q_mix": 0.1, "p_mix": 0.1}


def reference_initial() -> PopulationState:
    return PopulationState(
        y0=REFERENCE_COUNTS[0],
        y1=REFERENCE_COUNTS[1],
        y2=REFERENCE_COUNTS[2],
        pulses_delivered=1,
    )


@pytest.fixture(scope="session")
def golden():
    return load_reference_table()


@pytest.fixture(scope="session")
def course_zero():
    """Seven-week zero-coefficient course from the reference initial state."""
    params = ModelParams(weeks=REFERENCE_WEEKS)
    return simulate_course(params, reference_initial())


@pytest.fixture(scope="session")
def course_mixing():
    """Seven-week course with transfer and mixing coefficients switched on."""
    params = ModelParams(weeks=REFERENCE_WEEKS, **MIXING_OVERRIDES)
    return simulate_course(params, reference_initial())


def record(trajectory, day: int, phase: str):
    """The unique record of a trajectory at (day, phase)."""
    for rec in trajectory.records:
        if rec.day == day and rec.phase == phase:
            return rec
    raise KeyError(f"no record at day {day}, phase {phase!r}")


def mean_velocity(x: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    """Population mean growth velocity v0 x0 + v1 x1 + v2 x2.

    Raises:
        InvalidStateError: if x is off the simplex.
    """
    check_simplex("x", x)
    return v[0] * x[0] + v[1] * x[1] + v[2] * x[2]


def fast_velocity(params: ModelParams, pulses: int, treatment: bool) -> float:
    """README's fast-fraction velocity a * v1 * psi after `pulses` pulses, with
    psi = exp(theta - n*(hypot(q_rad, p_rad)*d + hypot(q_mix, p_mix)*d^2)) on a
    treatment day and exp(theta - n*hypot(q_mix, p_mix)) on a weekend day."""
    mix = math.hypot(params.q_mix, params.p_mix)
    if treatment:
        d = params.dose
        loss = math.hypot(params.q_rad, params.p_rad) * d + mix * d * d
    else:
        loss = mix
    return params.a * params.v1 * math.exp(params.theta - pulses * loss)


def pulse_power(op, n: int, counts, integer_rounding: bool = False):
    """The counts after n successive pulses; n = 0 returns them unchanged."""
    for _ in range(n):
        counts = apply_pulse(op, counts, integer_rounding)
    return counts


def euler_mix(
    points: list[tuple[float, float, float]],
    v: tuple[float, float, float],
    q_mix: float,
    p_mix: float,
    duration: float,
    step: float,
) -> np.ndarray:
    """Independent small-step Euler integration of the mixing field.

    Vectorized over starting points; used as the oracle for the exact growth
    day, the normalized matrix exponential integrate_growth computes.
    """
    x = np.array(points, dtype=float)
    v = np.asarray(v, dtype=float)
    steps = int(round(duration / step))
    for _ in range(steps):
        phi = x @ v
        dx = np.stack(
            [
                v[0] * x[:, 0] * (1.0 - q_mix) - x[:, 0] * phi,
                v[1] * x[:, 1] * (1.0 - p_mix) + v[0] * x[:, 0] * q_mix - x[:, 1] * phi,
                v[2] * x[:, 2] + v[1] * x[:, 1] * p_mix - x[:, 2] * phi,
            ],
            axis=1,
        )
        x = x + step * dx
    return x


def decimal_growth_day(rates, x, duration=1.0):
    """normalize(exp(duration * A) x) in 50-digit decimal arithmetic, from the
    exact values of the float inputs: the reference for the closed-form day.

    A = [[v0(1-q),0,0],[v0 q, v1(1-p),0],[0, v1 p, v2]] has no negative
    entry, so every term of its Taylor series applied to x >= 0 is >= 0 and
    the sum cancels nothing; it stops once a term is below 1e-55 of the sum.
    """
    with decimal.localcontext(prec=50):
        D = decimal.Decimal
        v0, v1, v2, q, p = (D(r) for r in rates)
        t = D(duration)
        a = ((t * v0 * (1 - q), 0, 0), (t * v0 * q, t * v1 * (1 - p), 0), (0, t * v1 * p, t * v2))
        term = [D(c) for c in x]
        total = list(term)
        k = 0
        while True:
            k += 1
            term = [sum(a[i][j] * term[j] for j in range(3)) / k for i in range(3)]
            total = [s + t for s, t in zip(total, term)]
            if max(term) <= sum(total) * D("1e-55"):
                break
        s = sum(total)
        return tuple(c / s for c in total)


def random_simplex_points(rng, count: int) -> list[tuple[float, float, float]]:
    """Uniformly distributed triples on the probability simplex."""
    points = []
    for _ in range(count):
        a, b = sorted(rng.random() for _ in range(2))
        points.append((a, b - a, 1.0 - b))
    return points


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
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
