"""Indirect-learning-architecture reference DPD.

Each iteration fits a postinverse by least squares from the gain-normalized
plant output to the current PA input and copies it to the predistorter
(full replacement, no damping). A piecewise spec solves the K region fits
independently; with K = 1 this is bit-identical to the classical
single-polynomial ILA. The injection form is recovered by subtracting one
from each region's linear coefficient.
"""

from __future__ import annotations

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .dpd import DpdModel, TraceRecord, estimate_gain, predistort
from .errors import ConfigError, DegenerateRegionError, check_fields
from .partition import RegionPartition

# ila_learn keyword -> (test, wanted): the values it takes, checked by
# ila_learn and, before any run starts, on a scenario config's ila section
ILA_RANGES = {
    "iterations": (lambda v: v >= 1, "at least 1"),
    "block_size": (lambda v: v >= 1, "at least 1"),
    "clip_headroom": (lambda v: v > 0, "greater than 0"),
}


def _postinverse_fit(spec: BasisSpec, regressor: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-region LS postinverse coefficients, stacked in region order."""
    b1 = spec.n_basis_single
    blocks = {k: (rows, psi) for k, rows, psi in
              basis_mod.region_blocks(spec, regressor, chunk=regressor.size)}
    coeffs = np.zeros(spec.n_basis_total, dtype=np.complex128)
    for k in range(spec.n_regions):
        rows, psi = blocks.get(k, ((), None))  # an empty region is not yielded
        if len(rows) < b1:
            raise DegenerateRegionError(
                k, f"region {k} has {len(rows)} samples for {b1} coefficients")
        try:
            coeffs[k * b1:(k + 1) * b1] = basis_mod.regularized_lstsq(psi, target[rows])
        except np.linalg.LinAlgError:
            raise DegenerateRegionError(
                k, f"region {k} least-squares system is singular") from None
    return coeffs


def ila_learn(source, spec: BasisSpec, iterations: int = 4, block_size: int = 50000,
              clip_headroom: float = 1.15) -> tuple[DpdModel, list[TraceRecord]]:
    """Iterative postinverse identification over a closed-loop source.

    Piecewise fits assign regressor samples through the partition mapped
    affinely onto the regressor's own amplitude range: the gain-normalized
    plant output is compressed relative to the transmit signal, so the raw
    edges would leave the top region empty. The copied predistorter applies
    the original partition on the transmit envelope.

    The transmitted signal is envelope-clamped at clip_headroom (> 0) x the
    block's peak input amplitude (a digital full-scale): the postinverse
    extrapolates steeply beyond its fitted range, and without the clamp the
    full-replacement iteration compounds peak expansion until it diverges.
    """
    check_fields({"iterations": iterations, "block_size": block_size,
                  "clip_headroom": clip_headroom}, ILA_RANGES, "ila_learn")
    if block_size < 10 * spec.n_basis_total:
        raise ConfigError(
            f"block_size {block_size} < 10 x coefficient count {spec.n_basis_total}")

    b1 = spec.n_basis_single
    model = DpdModel.zero(spec)
    trace: list[TraceRecord] = []
    for i in range(1, iterations + 1):
        a1 = source.next_block(block_size)
        x = predistort(model, a1)
        full_scale = clip_headroom * float(np.max(np.abs(a1.samples)))
        env = np.abs(x.samples)
        over = env > full_scale
        if np.any(over):
            clipped = x.samples.copy()
            clipped[over] *= full_scale / env[over]
            x = x.with_samples(clipped)
        z = source.transmit(x)
        ghat = estimate_gain(x, z)
        y = z.samples / ghat

        fit_spec = spec
        if spec.partition is not None:
            scale = float(np.max(np.abs(y))) / spec.partition.a_max
            fit_spec = spec.with_partition(RegionPartition(spec.partition.edges * scale))
        coeffs = _postinverse_fit(fit_spec, y, x.samples)
        gamma = coeffs.copy()
        for k in range(spec.n_regions):
            gamma[k * b1] -= 1.0  # full filter -> injection form
        model = DpdModel(gamma, spec, ghat=ghat)

        p_err = float(np.mean(np.abs(y - a1.samples) ** 2))
        nmse_db = 10 * np.log10(p_err / a1.power) if p_err > 0 else -300.0
        trace.append(TraceRecord(i, nmse_db, int(gamma.size)))
    return model, trace
