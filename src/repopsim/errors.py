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


def quote(value: object) -> str:
    """repr(value) for an error message, cut past 60 characters with its full length stated.

    A string is measured and cut before it is quoted; any other value, as its repr.
    """
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    shown = repr(text[:60]) if isinstance(value, str) else text[:60]
    return f"{shown}... ({len(text)} characters)"
