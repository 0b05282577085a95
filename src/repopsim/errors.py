"""Exception types shared across the simulator, and the one way a message quotes a value."""


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class InvalidParameterError(SimulationError, ValueError):
    """A model parameter violates its documented range."""


class InvalidStateError(SimulationError, ValueError):
    """A population state violates a structural invariant."""


class NumericInstabilityError(SimulationError, ArithmeticError):
    """An integration step left the admissible region."""


class AlignmentError(SimulationError, ValueError):
    """Two trajectories share no common (day, phase) grid point."""


class ConfigError(SimulationError, ValueError):
    """A run configuration is malformed or inconsistent."""


class SchemaError(SimulationError, ValueError):
    """A data file does not match its expected column layout."""


def digit_count(n: int) -> int:
    """Decimal digits of abs(n), counted without str(), which refuses past 4,300 digits."""
    n = abs(n)
    # log10(2**(bits - 1)) with log10(2) rounded down: never more than the digits.
    count = 1 + max(n.bit_length() - 1, 0) * 30102999566 // 10**11
    while n >= 10**count:
        count += 1
    return count


def quote(value: object) -> str:
    """repr(value) for an error message, cut past 60 characters with its full length stated.

    A string is measured and cut before it is quoted; an integer, by its digits;
    any other value, as its repr.
    """
    if isinstance(value, int):  # a bool has one digit, so it takes the repr branch
        length = digit_count(value) + (value < 0)
        if length <= 60:
            return repr(value)
        shown = ("-" if value < 0 else "") + str(abs(value) // 10 ** (length - 60))
        return f"{shown}... ({length} characters)"
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    shown = repr(text[:60]) if isinstance(value, str) else text[:60]
    return f"{shown}... ({len(text)} characters)"
