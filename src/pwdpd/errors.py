"""Exception types shared across the workbench, and the two value tests its
file and config readers refuse with.

The CLI maps these onto exit codes: ConfigError -> 2,
DegenerateRegionError -> 3, DivergenceError -> 4.
"""

import math


class ConfigError(ValueError):
    """Invalid configuration or malformed input."""


class DegenerateRegionError(RuntimeError):
    """A piecewise region produced a rank-deficient or empty estimation problem."""

    def __init__(self, region: int, message: str = ""):
        self.region = region
        super().__init__(message or f"degenerate region {region}")


class DivergenceError(RuntimeError):
    """Closed-loop learning diverged; carries the per-iteration trace."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class DemodulationError(RuntimeError):
    """Received signal could not be demodulated against the expected framing."""


def is_int(value) -> bool:
    """An int that is not a bool: JSON true and false read as Python bools."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float, not a bool; Python's json also reads NaN and +-Infinity."""
    return is_int(value) or (isinstance(value, float) and math.isfinite(value))
