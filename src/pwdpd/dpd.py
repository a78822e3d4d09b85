"""Piecewise injection predistorter and closed-loop decorrelation learning.

The predistorter injects a weighted basis-function correction into the
transmit signal: out = a1 + Psi(a1) @ gamma, so gamma = 0 is the exact
identity. Learning iterates blocks through the closed loop (predistort ->
plant -> observe), forms the error e = z - Ghat a1, and descends along the
block cross-correlation between the basis and the error. The update runs on
whitened coefficients c, with L the per-region Cholesky factor of the loaded
covariance R = L L^H:

  c <- c - (mu / Ghat) L^-1 (Psi^H e / N),    gamma = L^-H c

which is the self-orthogonalized rule gamma <- gamma - (mu / Ghat) R^-1
(Psi^H e / N), and equally the orthogonal-BF rule's descent on the whitened
columns Psi_orth = Psi L^-H: one update serves both, and the two differ only
in what the FLOP ledger charges. The model holds the native gamma the
predistorter applies.

The correlation is conjugated and 1/N-normalized relative to the transposed
unnormalized form sometimes written for this update; with unit-sample-power
orthogonalized columns this makes the per-coefficient correlations directly
comparable across block sizes. The 1/Ghat factor compensates the closed-loop
gain (the error sees the correction through the plant's linear gain). Only
on a loop that is linear in the correction, and only while each block's
Gram, whitened by the statistics factor L, stays near the identity, is
mu in (0, 2) the stability range independent of array size, with mu <= 1
contracting the error monotonically. A compressing plant passes the
correction through its local gain rather than Ghat, and the stable range
then shrinks with drive level: on a soft-limited 5th-order PA with a
memoryless order-7 basis, mu = 1.9 converges at rms 0.5 and diverges at
rms 0.8. The shipped presets use mu <= 1, and that does not make the
training error monotone: on array8-deep at bundle seed 4 (pwcl_orth,
training seed 401, 1 BLAS thread) the error power falls to -25.94 dBc at
iteration 5 and rises to -22.47 dBc by iteration 10, for an ACLR of
30.17 dBc.

Pruning: the first block's whitened correlation vector selects the retained
set of c; later blocks freeze coefficients whose correlation falls below the
threshold but keep them in the predistortion path. The native gamma = L^-H c
mixes each retained entry of c into every native coefficient of its region
with an index at or below its own, so the model's gamma is not sparse, and a
trace record's active_count counts the entries of c the learner updated, not
the non-zeros of gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .errors import (ConfigError, DivergenceError, check_fields, check_keys, read_json, read_pair,
                     write_csv, write_json)
from .signals import IqSignal

@dataclass
class DpdModel:
    """Predistorter state: the native coefficients it applies plus the basis they bind to."""

    gamma: np.ndarray
    spec: BasisSpec
    ghat: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.complex128)
        if self.gamma.size != self.spec.n_basis_total:
            raise ConfigError(
                f"gamma length {self.gamma.size} != basis size {self.spec.n_basis_total}")
        bad = np.flatnonzero(~np.isfinite(self.gamma))
        if bad.size:
            raise ConfigError(f"gamma[{bad[0]}] is not finite ({self.gamma[bad[0]]})")

    @classmethod
    def zero(cls, spec: BasisSpec) -> "DpdModel":
        return cls(np.zeros(spec.n_basis_total, dtype=np.complex128), spec)


# LearnConfig field -> (test, wanted): the values it takes, checked by
# LearnConfig and, before any run starts, on a scenario config's learn section
LEARN_RANGES = {
    "mu": (lambda v: 0 < v < 2, "in (0, 2)"),
    "block_size": (lambda v: v >= 1, "at least 1"),
    "iterations": (lambda v: v >= 1, "at least 1"),
    "prune_threshold_db": (lambda v: v is None or np.isfinite(v), "a finite number or null"),
    "stats_blocks": (lambda v: v >= 1, "at least 1"),  # block multiples of the statistics pass
}


@dataclass
class LearnConfig:
    mu: float = 1.0
    block_size: int = 20000
    iterations: int = 10
    prune_threshold_db: float | None = None
    stats_blocks: int = 2

    def __post_init__(self):
        check_fields(vars(self), LEARN_RANGES, "LearnConfig")


@dataclass
class TraceRecord:
    COLUMNS = ("iteration", "error_power_dbc", "active_count")  # of a trace CSV and error.json
    iteration: int
    error_power_dbc: float
    active_count: int
    zeta: np.ndarray | None = field(default=None, repr=False)


class ClosedLoopSource(Protocol):
    """Signal source for closed-loop learning.

    next_block yields a fresh block of the (pre-DPD) transmit signal;
    transmit runs the predistorted block through the plant and returns the
    observation receiver output, with whatever receiver noise the source
    itself models.
    """

    def next_block(self, n: int) -> IqSignal: ...

    def transmit(self, x: IqSignal) -> IqSignal: ...


def predistort(model: DpdModel, a1: IqSignal) -> IqSignal:
    """Apply the injection predistorter; gamma = 0 returns a1 unchanged."""
    corr = basis_mod.apply_gamma(model.spec, a1.samples, model.gamma)
    return a1.with_samples(a1.samples + corr)


def estimate_gain(a1: IqSignal, z: IqSignal) -> complex:
    """LS estimate of the effective linear gain: (a1^H z) / (a1^H a1)."""
    if len(a1) != len(z):
        raise ConfigError("gain estimation requires equal-length signals")
    denom = np.vdot(a1.samples, a1.samples)
    if denom == 0:
        raise ConfigError("cannot estimate gain from a zero-energy signal")
    return complex(np.vdot(a1.samples, z.samples) / denom)


def error_signal(z: IqSignal, a1: IqSignal, ghat: complex) -> IqSignal:
    """Learning error e = z - ghat * a1."""
    if len(a1) != len(z):
        raise ConfigError("error signal requires equal-length signals")
    return z.with_samples(z.samples - ghat * a1.samples)


def prune_select(zeta: np.ndarray, threshold_db: float, reference_power: float) -> np.ndarray:
    """Active mask from normalized correlations.

    zeta is the block-normalized cross-correlation (Psi^H e / N, unit-power
    columns); entries are compared in dB against sqrt(reference_power). The
    learner passes the block's residual error power, so each entry reads as
    the share of the residual distortion carried by that basis function
    (sum |zeta|^2 equals the spanned error power), which is invariant to
    drive level and stays comparable across iterations as the loop
    converges.
    """
    mag = np.abs(np.asarray(zeta))
    with np.errstate(divide="ignore"):
        level_db = 20 * np.log10(mag / np.sqrt(reference_power))
    return level_db > threshold_db


def distortion_power_identity(zeta: np.ndarray, e: IqSignal) -> tuple[float, float, float]:
    """Error power vs sum |zeta_j|^2 with their relative gap.

    Equality holds when e lies in the span of the orthonormal columns behind
    zeta; an unspanned component makes the left side strictly larger.
    """
    lhs = float(np.mean(np.abs(e.samples) ** 2))
    rhs = float(np.sum(np.abs(zeta) ** 2))
    gap = abs(lhs - rhs) / max(lhs, np.finfo(float).tiny)
    if lhs == 0 and rhs == 0:
        gap = 0.0
    return lhs, rhs, gap


def learn(source: ClosedLoopSource, spec: BasisSpec,
          cfg: LearnConfig) -> tuple[DpdModel, list[TraceRecord]]:
    """Block-adaptive closed-loop learning.

    A leading statistics block fixes the per-region Cholesky factor L of the
    loaded covariance R = L L^H. Each iteration transmits freshly predistorted
    data, re-estimates the linear gain, steps the whitened coefficients c
    along the whitened error correlation L^-1 zeta, and sets the model's
    native gamma = L^-H c. Divergence (error power growing by more than 10 dB
    over three iterations) raises DivergenceError with the trace attached.
    """
    b_total = spec.n_basis_total
    if cfg.block_size < 10 * b_total:
        raise ConfigError(
            f"block_size {cfg.block_size} < 10 x coefficient count {b_total}")

    stats = source.next_block(cfg.stats_blocks * cfg.block_size)
    factor = basis_mod.block_cholesky(basis_mod.precompute_covariance(spec, stats))
    model = DpdModel.zero(spec)
    white = np.zeros(b_total, dtype=np.complex128)  # c, with gamma = L^-H c

    prune = cfg.prune_threshold_db is not None
    pd_mask: np.ndarray | None = None
    trace: list[TraceRecord] = []
    err_powers: list[float] = []

    for i in range(1, cfg.iterations + 1):
        a1 = source.next_block(cfg.block_size)
        x = predistort(model, a1)
        z = source.transmit(x)
        ghat = estimate_gain(a1, z)
        err = error_signal(z, a1, ghat)

        p_err = float(np.mean(np.abs(err.samples) ** 2))
        p_lin = abs(ghat) ** 2 * a1.power
        err_powers.append(p_err)

        zeta = basis_mod.cross_correlation(spec, a1.samples, err.samples)
        zeta = basis_mod.block_solve(factor, zeta)  # L^-1 zeta

        if prune:
            mask_now = prune_select(zeta, cfg.prune_threshold_db, p_err)
            if pd_mask is None:
                pd_mask = mask_now.copy()
            update_mask = pd_mask & mask_now
        else:
            update_mask = np.ones(b_total, dtype=bool)

        white[update_mask] -= (cfg.mu / ghat) * zeta[update_mask]
        model.gamma = basis_mod.block_solve(factor, white, adjoint=True)
        model.ghat = ghat

        if p_lin <= 0:
            err_dbc = np.inf
        else:
            err_dbc = 10 * np.log10(max(p_err, np.finfo(float).tiny) / p_lin)
        trace.append(TraceRecord(i, float(err_dbc), int(update_mask.sum()), zeta))

        if i >= 4 and err_powers[-1] > 10 * err_powers[-4]:
            raise DivergenceError(
                f"error power grew >10 dB between iterations {i - 3} and {i}", trace)
    return model, trace


def trace_to_csv(trace: list[TraceRecord], path: str | Path) -> None:
    write_csv(path, ",".join(TraceRecord.COLUMNS),
              ((rec.iteration, f"{rec.error_power_dbc:.6f}", rec.active_count) for rec in trace))


def save_model(model: DpdModel, stem: str | Path) -> Path:
    """Write <stem>.dpd.json: the basis spec, the linear gain ghat and the native
    gamma, each complex value an [re, im] pair of floats, which read back bit
    for bit."""
    path = Path(f"{stem}.dpd.json")
    fields = {"spec": model.spec.to_dict(), "ghat": [model.ghat.real, model.ghat.imag],
              "gamma": [[v.real, v.imag] for v in model.gamma.tolist()]}
    write_json(path, fields)
    return path


# each model field's test and what it asks for; read_pair reads ghat and every
# gamma entry
_MODEL_FIELDS = {"spec": (lambda v: isinstance(v, dict), "an object"),
                 "gamma": (lambda v: isinstance(v, list), "a list of [re, im] pairs")}


def _model_from(fields: dict) -> DpdModel:
    check_keys(check_fields(fields, _MODEL_FIELDS, "model"), ("spec", "ghat", "gamma"), "model")
    return DpdModel([read_pair(v, f"gamma[{i}]") for i, v in enumerate(fields["gamma"])],
                    BasisSpec.from_dict(fields["spec"]),
                    ghat=read_pair(fields.get("ghat"), "'ghat'"))


def load_model(stem: str | Path) -> DpdModel:
    """Read <stem>.dpd.json as save_model writes it; ConfigError naming the file
    and the field or key otherwise."""
    return read_json(Path(f"{stem}.dpd.json"), _model_from)
