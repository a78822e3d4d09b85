"""Amplitude-range partitioning for piecewise models.

Two partitioners are provided: a Taylor-remainder driven construction that
sizes each region so a degree-Q polynomial can approximate the device's
AM/AM curve to a target error, and a 1-D K-means reference partitioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_fields, check_keys, is_number, read_json, write_json
from .signals import IqSignal

# derivative_max's grid points, partition_regions' width tolerance as a
# fraction of a_max, the cap on K-means iterations, and the most regions
# either partitioner makes
DERIVATIVE_GRID = 1000
WIDTH_TOLERANCE = 1e-4
KMEANS_MAX_ITER = 100
MAX_REGIONS = 256


# a partition file's one field, its test and what it asks for
_PARTITION_FIELDS = {"edges": (lambda v: isinstance(v, list) and all(map(is_number, v)),
                               "a list of finite numbers")}


@dataclass
class RegionPartition:
    """Contiguous amplitude regions covering [0, a_max].

    edges has K+1 ascending entries starting at 0; region k spans
    [edges[k], edges[k+1]), with the last region closed at the top.
    Amplitudes beyond the top edge are assigned to the last region. Every
    region takes the same basis, so the edges are the whole partition.
    """

    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ConfigError("partition needs at least two edges")
        if not np.all(np.isfinite(self.edges)):
            raise ConfigError(f"partition edges must be finite, got {self.edges.tolist()}")
        if self.edges[0] != 0.0:
            raise ConfigError("partition must start at amplitude 0")
        if np.any(np.diff(self.edges) <= 0):
            raise ConfigError("partition edges must be strictly increasing")

    @property
    def n_regions(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def a_max(self) -> float:
        return float(self.edges[-1])

    def region_index(self, samples: np.ndarray) -> np.ndarray:
        """Region index per sample, by its instantaneous envelope |x|; envelopes
        above the top edge clamp to the last region."""
        return np.minimum(np.searchsorted(self.edges[1:-1], np.abs(samples), side="right"),
                          self.n_regions - 1)

    def to_dict(self) -> dict:
        return {"edges": self.edges.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RegionPartition":
        """Inverse of to_dict: edges that are missing or not a list of finite
        numbers, and any other key, are refused by name."""
        check_keys(check_fields(d, _PARTITION_FIELDS, "partition"), _PARTITION_FIELDS, "partition")
        return cls(np.asarray(d["edges"], dtype=float))

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RegionPartition":
        return read_json(path, cls.from_dict)


@dataclass
class AmAmModel:
    """Polynomial fit of the memoryless amplitude response f(a) on [0, a_max].

    Coefficients are stored over the normalized argument t = a / a_max for
    conditioning; ``coefficients`` exposes the physical-domain expansion.
    """

    scaled_coeffs: np.ndarray
    a_max: float
    fit_residual: float = 0.0

    def __post_init__(self):
        self.scaled_coeffs = np.asarray(self.scaled_coeffs, dtype=float)
        if self.a_max <= 0:
            raise ConfigError("a_max must be positive")

    @classmethod
    def from_coefficients(cls, coeffs, a_max: float) -> "AmAmModel":
        """Build from physical-domain ascending coefficients of f(a)."""
        coeffs = np.asarray(coeffs, dtype=float)
        scaled = coeffs * a_max ** np.arange(coeffs.size)
        return cls(scaled, a_max)

    @property
    def coefficients(self) -> np.ndarray:
        """Physical-domain ascending coefficients."""
        return self.scaled_coeffs / self.a_max ** np.arange(self.scaled_coeffs.size)

    def __call__(self, a) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(a, dtype=float) / self.a_max,
                                                self.scaled_coeffs)

    def derivative_values(self, a, order: int) -> np.ndarray:
        """Evaluate f^(order)(a)."""
        dcoef = np.polynomial.polynomial.polyder(self.scaled_coeffs, order)
        t = np.asarray(a, dtype=float) / self.a_max
        return np.polynomial.polynomial.polyval(t, dcoef) / self.a_max ** order

    def derivative_max(self, lo: float, hi: float, order: int) -> float:
        """Max |f^(order)| over [lo, hi] on a DERIVATIVE_GRID-point grid."""
        a = np.linspace(lo, hi, DERIVATIVE_GRID)
        return float(np.max(np.abs(self.derivative_values(a, order))))


def fit_amam(a1: IqSignal, z: IqSignal, fit_order: int) -> AmAmModel:
    """Least-squares degree-``fit_order`` polynomial fit of |z| versus |a1|.

    Both even and odd powers (plus a constant) are admitted since the fit is
    over the amplitude domain. |a1| should span [0, max |a1|], as the
    characterization ramp probe (``scenarios.ramp_probe``) does: over a narrow
    amplitude range the Vandermonde columns are nearly collinear and the fit
    is poorly conditioned.
    """
    if len(a1) != len(z):
        raise ConfigError("fit_amam requires equal-length, aligned signals")
    if fit_order < 3:
        raise ConfigError("fit_order must be >= 3")
    x = np.abs(a1.samples)
    y = np.abs(z.samples)
    a_max = float(x.max())
    if a_max == 0:
        raise ConfigError("input signal is identically zero")
    t = x / a_max
    vander = np.polynomial.polynomial.polyvander(t, fit_order)
    coeffs, *_ = np.linalg.lstsq(vander, y, rcond=None)
    residual = float(np.sqrt(np.mean((vander @ coeffs - y) ** 2)))
    return AmAmModel(coeffs, a_max, fit_residual=residual)


def _converge_width(model: AmAmModel, u: float, order: int, target: float,
                    deriv_tiny: float) -> float:
    """Fixed-point iteration for one region's width starting from the
    conservative interval [u, model.a_max]; stops when the width changes by
    at most WIDTH_TOLERANCE * model.a_max."""
    a_max = model.a_max
    width_prev = 0.0
    hi = a_max
    width = a_max - u
    for j in range(200):
        fmax = model.derivative_max(u, hi, order + 1)
        if fmax <= deriv_tiny:
            # remainder vanishes on the interval: region extends to the top
            return a_max - u
        width = (math.factorial(order + 1) * target / fmax) ** (1.0 / (order + 1))
        if j > 20:
            width = 0.5 * (width + width_prev)
        hi = min(u + width, a_max)
        if abs(width - width_prev) <= WIDTH_TOLERANCE * a_max:
            break
        width_prev = width
    return width


def partition_regions(model: AmAmModel, order: int, target_error: float) -> RegionPartition:
    """Greedy left-to-right Taylor-remainder partitioning of [0, model.a_max].

    Each region is the widest interval on which a degree-``order`` polynomial
    approximates the fitted amplitude response within ``target_error``
    (Lagrange remainder bound, derivative maximum by dense grid search). The
    per-region width iteration starts from the conservative interval
    reaching a_max and stops when it changes by at most
    WIDTH_TOLERANCE * a_max. The last region is clipped at a_max and may be
    narrow; whether it holds enough samples depends on the waveform, so
    merging sparse regions is left to the caller that has one
    (``scenarios.derive_partition``).
    """
    if order < 1:
        raise ConfigError("order must be >= 1")
    if target_error <= 0:
        raise ConfigError("target_error must be positive")

    a_max = model.a_max
    scale = max(1.0, float(np.max(np.abs(model.scaled_coeffs))))
    deriv_tiny = 1e4 * np.finfo(float).eps * scale

    edges = [0.0]
    while edges[-1] < a_max - 1e-12 * a_max:
        u = edges[-1]
        width = _converge_width(model, u, order, target_error, deriv_tiny)
        edges.append(min(u + width, a_max))
        if len(edges) > MAX_REGIONS + 1:
            raise ConfigError(f"partition produced more than {MAX_REGIONS} regions; "
                              "raise target_error or lower the fit order")
    edges[-1] = a_max
    return RegionPartition(np.asarray(edges))


def check_region_count(n_regions: int) -> None:
    """A ConfigError unless a K-means partition can have n_regions regions."""
    if not 1 <= n_regions <= MAX_REGIONS:
        raise ConfigError(f"n_regions must be between 1 and {MAX_REGIONS}, got {n_regions}")


def kmeans_partition(a1: IqSignal, n_regions: int) -> RegionPartition:
    """1-D K-means over the envelope; boundaries at midpoints between centroids.

    Deterministic: centroids are seeded at the (i+0.5)/K quantiles of the
    sorted amplitudes. The assignment step finds each sample's nearest
    centroid by a binary search of the midpoints between the distinct sorted
    centroids, a tie (or a repeated centroid) going to the lowest index.
    """
    check_region_count(n_regions)
    env = np.abs(a1.samples)
    distinct = np.unique(env)
    if n_regions > distinct.size:
        raise ConfigError(
            f"n_regions={n_regions} exceeds the {distinct.size} distinct amplitude values")
    a_max = float(env.max())
    centroids = np.quantile(env, (np.arange(n_regions) + 0.5) / n_regions)
    for _ in range(KMEANS_MAX_ITER):
        levels, first = np.unique(centroids, return_index=True)
        assign = first[np.searchsorted(0.5 * (levels[:-1] + levels[1:]), env, side="left")]
        new = centroids.copy()
        for k in range(n_regions):
            members = env[assign == k]
            if members.size:
                new[k] = members.mean()
        new.sort()
        if np.allclose(new, centroids, rtol=0, atol=1e-12 * max(a_max, 1.0)):
            centroids = new
            break
        centroids = new
    edges = np.concatenate([[0.0], 0.5 * (centroids[:-1] + centroids[1:]), [a_max]])
    if np.any(np.diff(edges) <= 0):
        raise ConfigError(f"K-means found fewer than n_regions={n_regions} separate clusters "
                          f"(centroids {centroids.tolist()}); lower n_regions")
    return RegionPartition(edges)
