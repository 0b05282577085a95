"""The 3x3 radiation pulse operator and its repeated application.

A pulse leaves each fraction scaled by the survival fraction S while shifting
a slice of the slow compartment into the middle one (coefficient Q) and of the
middle compartment into the fast one (coefficient P). Every column of the
operator sums to S, so each pulse multiplies the total count by exactly S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import POST_RADIATION, ModelParams, PopulationState, snap_count, survival_fraction
from .errors import InvalidParameterError

Matrix = tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class RadiationOperator:
    """Lower-bidiagonal pulse operator built from S, Q, and P."""

    s: float  # survival fraction applied along the diagonal
    q: float  # slow-to-middle transfer probability
    p: float  # middle-to-fast transfer probability

    def __post_init__(self) -> None:
        if not 0 < self.s <= 1:
            raise InvalidParameterError(f"s must lie in (0, 1], got {self.s}")
        if not 0 <= self.q <= self.s:
            raise InvalidParameterError(
                f"q must lie in [0, s] to keep entries nonnegative, got q={self.q}, s={self.s}"
            )
        if not 0 <= self.p <= self.s:
            raise InvalidParameterError(
                f"p must lie in [0, s] to keep entries nonnegative, got p={self.p}, s={self.s}"
            )

    def matrix(self) -> Matrix:
        """Dense row-major layout [[S-Q,0,0],[Q,S-P,0],[0,P,S]]."""
        return (
            (self.s - self.q, 0.0, 0.0),
            (self.q, self.s - self.p, 0.0),
            (0.0, self.p, self.s),
        )


def build_radiation_operator(params: ModelParams) -> RadiationOperator:
    """Pulse operator for the given parameters.

    Raises:
        InvalidParameterError: if a transfer probability exceeds the survival
            fraction (which would create negative counts).
    """
    return RadiationOperator(survival_fraction(params), params.q_rad, params.p_rad)


def apply_pulse(
    op: RadiationOperator, state: PopulationState, integer_rounding: bool = False
) -> PopulationState:
    """One radiation pulse applied to the population.

    The continuous product multiplies the total count by exactly S; with
    integer_rounding on, each component is snapped to whole cells afterwards.
    """
    y0 = state.y0 * (op.s - op.q)
    y1 = state.y0 * op.q + state.y1 * (op.s - op.p)
    y2 = state.y1 * op.p + state.y2 * op.s
    if integer_rounding:
        y0, y1, y2 = snap_count(y0), snap_count(y1), snap_count(y2)
    return PopulationState(y0, y1, y2, state.day, POST_RADIATION, state.pulses_delivered + 1)


def pulse_power(
    op: RadiationOperator, n: int, state: PopulationState, integer_rounding: bool = False
) -> PopulationState:
    """n successive pulses; n = 0 returns the state unchanged.

    Raises:
        InvalidParameterError: if n is negative.
    """
    if n < 0:
        raise InvalidParameterError(f"pulse count must be >= 0, got {n}")
    for _ in range(n):
        state = apply_pulse(op, state, integer_rounding)
    return state
