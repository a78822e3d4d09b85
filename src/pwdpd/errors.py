"""Exception types shared across the workbench.

The CLI maps these onto exit codes: ConfigError -> 2,
DegenerateRegionError -> 3, DivergenceError -> 4.
"""


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
