"""The 3x3 radiation pulse operator and its repeated application.

A pulse leaves each fraction scaled by the survival fraction S while shifting
a slice of the slow compartment into the middle one (coefficient Q) and of the
middle compartment into the fast one (coefficient P). Every column of the
operator sums to S, so each pulse multiplies the total count by exactly S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ModelParams, PopulationState, check_transfer, snap_count, survival_fraction
from .errors import InvalidParameterError


@dataclass(frozen=True)
class RadiationOperator:
    """Lower-bidiagonal pulse operator [[S-Q,0,0],[Q,S-P,0],[0,P,S]], which
    apply_pulse writes out as a product."""

    s: float  # survival fraction applied along the diagonal
    q: float  # slow-to-middle transfer probability
    p: float  # middle-to-fast transfer probability

    def __post_init__(self) -> None:
        if not 0 < self.s <= 1:
            raise InvalidParameterError(f"s must lie in (0, 1], got {self.s}")
        check_transfer("q", self.q, self.s)
        check_transfer("p", self.p, self.s)


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
    return PopulationState(y0, y1, y2, state.pulses_delivered + 1)
