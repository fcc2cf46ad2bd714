"""Exception types shared across the package, and the integer, number and fraction rules."""

import math
import numbers


class SnoicError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SnoicError):
    """Malformed dataset, vocabulary, or split input."""


class PairingError(SnoicError):
    """A different-intent batch pairing could not be constructed."""


class CheckpointError(SnoicError):
    """Checkpoint file is malformed or inconsistent with the model."""


class TrainingError(SnoicError):
    """Training cannot proceed (bad hyperparameters, degenerate data, non-finite loss)."""


class ConfigError(SnoicError):
    """Invalid experiment configuration; maps to usage exit code 2 in the CLI."""


def integer(name: str, value, low: int, error: type[SnoicError] = DataError) -> int:
    """``value`` as an int if it is an integer (a bool is not) of at least ``low``, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def number(name: str, value, error: type[SnoicError] = DataError) -> float:
    """``value`` as a Python float if it is a finite real number (a bool is
    not; a numpy float is), else ``error``. An integer too large for a float
    is infinite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    return value


def fraction(name: str, value, error: type[SnoicError] = DataError, interior: bool = False) -> float:
    """``number(name, value, error)`` if in [0, 1] (in (0, 1) if ``interior``), else ``error``."""
    value = number(name, value, error)
    if not (0.0 < value < 1.0 if interior else 0.0 <= value <= 1.0):
        raise error(f"{name} must be in {'(0, 1)' if interior else '[0, 1]'}, got {value}")
    return value
