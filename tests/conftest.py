"""Shared fixtures: reference parameter sets, course runs, ODE oracles, small
helpers over the package's types, and the CPU count, fork count and leak
probes of the forked paths."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repopsim import analysis
from repopsim import (
    InvalidStateError,
    ModelParams,
    PopulationState,
    apply_pulse,
    load_reference_table,
    simulate_course,
)
from repopsim.core import SIMPLEX_TOL

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
        InvalidStateError: if x is off the simplex beyond tolerance.
    """
    if min(x) < -SIMPLEX_TOL or abs(x[0] + x[1] + x[2] - 1.0) > SIMPLEX_TOL:
        raise InvalidStateError(f"fractions must lie on the simplex, got {x}")
    return v[0] * x[0] + v[1] * x[1] + v[2] * x[2]


def pulse_power(op, n: int, state: PopulationState, integer_rounding: bool = False):
    """n successive pulses; n = 0 returns the state unchanged."""
    for _ in range(n):
        state = apply_pulse(op, state, integer_rounding)
    return state


def euler_mix(
    points: list[tuple[float, float, float]],
    v: tuple[float, float, float],
    q_mix: float,
    p_mix: float,
    duration: float,
    step: float,
) -> np.ndarray:
    """Independent small-step Euler integration of the mixing field.

    Vectorized over starting points; used as the oracle for the fixed-step
    fourth-order integrator.
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


def random_simplex_points(rng, count: int) -> list[tuple[float, float, float]]:
    """Uniformly distributed triples on the probability simplex."""
    points = []
    for _ in range(count):
        a, b = sorted(rng.random() for _ in range(2))
        points.append((a, b - a, 1.0 - b))
    return points


@pytest.fixture
def use_cpus(monkeypatch):
    """Sets the usable CPU count that forked_map sees."""
    return lambda count: monkeypatch.setattr(analysis, "_usable_cpus", lambda: count)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that forked_map forks."""
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
