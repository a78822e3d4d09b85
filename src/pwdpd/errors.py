"""Exception types shared across the workbench, the one reader rule of its
files and configs (two value tests, check_fields, check_keys, read_pair), and
the one form of its files: read_json and write_json for every JSON file (UTF-8
text holding one object, 2-space indent, sorted keys, a trailing newline;
every refusal one ConfigError naming the file once), write_csv for every CSV.

The CLI maps these onto exit codes: ConfigError -> 2,
DegenerateRegionError -> 3, DivergenceError -> 4.
"""

import json
import math
from pathlib import Path


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


def check_keys(values, accepted, where: str):
    """values, a dict whose every key is in accepted; else a ConfigError naming `where`."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} does not hold a JSON object")
    for key in values:
        if key not in accepted:
            raise ConfigError(f"{where} has unknown key {key!r}; it takes {sorted(accepted)}")
    return values


def read_pair(value, what: str) -> complex:
    """The complex number of an [re, im] pair of finite JSON numbers (no bools);
    ConfigError naming what holds it otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(map(is_number, value))):
        raise ConfigError(f"{what} holds {value!r}, not an [re, im] pair of finite numbers")
    return complex(*value)


def read_json(path, parse):
    """parse applied to the JSON object held by the UTF-8 file at path (a str,
    a Path, or an importlib.resources file); any refusal, parse's included, is
    one ConfigError naming the file."""
    source = path if hasattr(path, "read_text") else Path(path)
    try:
        value = json.loads(source.read_text(encoding="utf-8"))
        if not isinstance(value, dict):
            raise ConfigError("not a JSON object")
        return parse(value)
    except ConfigError as exc:  # a ValueError, so caught first
        raise ConfigError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        # invalid JSON and text that is not UTF-8 are ValueErrors too
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from None


def write_json(path, payload) -> None:
    """payload in the one JSON file form read_json reads."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, header: str, rows) -> None:
    """A CSV file of header and rows: a float cell in 10 significant digits, any
    other cell (a preformatted string included) as str() gives it."""
    lines = (",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
             for row in rows)
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
