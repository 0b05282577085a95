"""The 3x3 radiation pulse operator and its repeated application.

A pulse leaves each fraction scaled by the survival fraction S while shifting
a slice of the slow compartment into the middle one (coefficient Q) and of the
middle compartment into the fast one (coefficient P). Every column of the
operator sums to S, so each pulse multiplies the total count by exactly S.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import COUNT_MAX, ModelParams, Triple, _checked, _snap, check_counts
from .core import ParamRow, check_transfer, survival_fraction


class _RadiationOperatorFields(NamedTuple):
    s: float  # survival fraction applied along the diagonal
    q: float  # slow-to-middle transfer probability
    p: float  # middle-to-fast transfer probability


@_checked
class RadiationOperator(_RadiationOperatorFields):
    """Lower-bidiagonal pulse operator [[S-Q,0,0],[Q,S-P,0],[0,P,S]], which
    apply_pulse writes out as a product."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RadiationOperator:
        self = super().__new__(cls, *args, **kwargs)
        if not (type(self.s) is float and 0.0 < self.s <= 1.0):  # anything else meets the rule
            ParamRow(float, 0, 1, strict=True).check("s", self.s)
        check_transfer("q", self.q, self.s)
        check_transfer("p", self.p, self.s)
        return self


def build_radiation_operator(params: ModelParams) -> RadiationOperator:
    """Pulse operator for the given parameters.

    Raises:
        InvalidParameterError: if a transfer probability exceeds the survival
            fraction (which would create negative counts).
    """
    return RadiationOperator(survival_fraction(params), params.q_rad, params.p_rad)


def apply_pulse(op: RadiationOperator, counts: Triple, integer_rounding: bool = False) -> Triple:
    """The (y0, y1, y2) counts after one radiation pulse.

    The continuous product multiplies the total count by exactly S; with
    integer_rounding on, each component is snapped to whole cells afterwards.

    Raises:
        InvalidStateError: for counts check_counts rejects, a bool among them.
    """
    y0, y1, y2 = counts
    if not (
        type(y0) is float and type(y1) is float and type(y2) is float
        and 0.0 <= y0 and 0.0 <= y1 and 0.0 <= y2 and y0 + y1 + y2 <= COUNT_MAX
    ):  # three nonnegative floats with a finite total are each finite too
        check_counts(counts)
        y0, y1, y2 = float(y0), float(y1), float(y2)  # valid ints, computed as their floats
    s, q, p = op
    y0, y1, y2 = y0 * (s - q), y0 * q + y1 * (s - p), y1 * p + y2 * s
    return _snap(y0, y1, y2) if integer_rounding else (y0, y1, y2)
