"""Shared fixtures: reference parameter sets, course runs, and ODE oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repopsim import (
    ModelParams,
    PopulationState,
    load_reference_table,
    simulate_course,
)

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
