"""Exception types shared across the workbench, and the one reader rule of its
files and configs: the two value tests, check_fields and read_pair.

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


def check_fields(values, rules: dict, where: str):
    """values, a dict whose every field in rules passes its test (a missing field
    reads as None); otherwise one ConfigError naming `where` and the field.

    rules maps each field name to (test, wanted), wanted saying what the test
    asks for.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{where} does not hold a JSON object")
    for name, (fits, wanted) in rules.items():
        value = values.get(name)
        if not fits(value):
            raise ConfigError(f"{where}: {name!r} must be {wanted}, got {value!r}")
    return values


def read_pair(value, what: str) -> complex:
    """The complex number of an [re, im] pair of finite JSON numbers (no bools);
    ConfigError naming what holds it otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(map(is_number, value))):
        raise ConfigError(f"{what} holds {value!r}, not an [re, im] pair of finite numbers")
    return complex(*value)
