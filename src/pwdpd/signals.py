"""Complex baseband signal container and its on-disk format.

An IqSignal on disk is a pair of files: ``<stem>.iq`` holding little-endian
interleaved float64 I/Q pairs, and a JSON sidecar ``<stem>.iq.json`` with its
format, sample_rate, length and the generating seed (if any). The samples
stay binary because a waveform runs to 1e4-1e6 of them; a DPD model, with its
K x B1 coefficients, is one JSON file (dpd.save_model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_fields, check_keys, is_int, is_number, read_json, write_json


@dataclass
class IqSignal:
    """Complex baseband sample sequence with sample-rate metadata."""

    samples: np.ndarray
    sample_rate: float
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ConfigError("IqSignal requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("IqSignal samples must be finite")
        if not 0 < self.sample_rate < np.inf:
            raise ConfigError(f"sample_rate must be positive and finite, got {self.sample_rate!r}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def power(self) -> float:
        """Mean sample power |x|^2."""
        return float(np.mean(np.abs(self.samples) ** 2))

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.power))

    def scaled_to_rms(self, rms: float) -> "IqSignal":
        """Return a copy scaled to the requested RMS amplitude, a finite rms > 0."""
        if not 0 < rms < np.inf:
            raise ConfigError(f"target rms must be positive and finite, got {rms!r}")
        if self.rms == 0:
            raise ConfigError("cannot rescale an all-zero signal")
        return IqSignal(self.samples * (rms / self.rms), self.sample_rate, self.seed)

    def with_samples(self, samples: np.ndarray) -> "IqSignal":
        return IqSignal(samples, self.sample_rate, self.seed)


IQ_FORMAT = "iq-float64-le-interleaved"

# each sidecar key's test and what it asks for; a missing seed reads as null
_SIDECAR_FIELDS = {"format": (lambda v: v == IQ_FORMAT, repr(IQ_FORMAT)),
                   "length": (lambda v: is_int(v) and v >= 1, "an int >= 1"),
                   "sample_rate": (lambda v: is_number(v) and v > 0, "a finite number > 0"),
                   "seed": (lambda v: v is None or is_int(v), "an int or null")}


def write_iq(stem: str | Path, sig: IqSignal) -> tuple[Path, Path]:
    """Write signal to <stem>.iq (+ JSON sidecar); returns both paths."""
    bin_path = Path(f"{stem}.iq")
    meta_path = Path(str(bin_path) + ".json")
    sig.samples.astype("<c16").tofile(bin_path)  # "<c16" is interleaved "<f8" re/im
    meta = {
        "format": IQ_FORMAT,
        "sample_rate": sig.sample_rate,
        "length": len(sig),
        "seed": sig.seed,
    }
    write_json(meta_path, meta)
    return bin_path, meta_path


def read_iq(stem: str | Path) -> IqSignal:
    """Read a signal written by write_iq; accepts the stem or the .iq path."""
    path = Path(stem if str(stem).endswith(".iq") else f"{stem}.iq")
    meta_path = Path(str(path) + ".json")
    if not path.exists() or not meta_path.exists():
        raise ConfigError(f"missing IQ file or sidecar for {path}")
    meta = read_json(meta_path, lambda fields: check_keys(
        check_fields(fields, _SIDECAR_FIELDS, "IQ sidecar"), _SIDECAR_FIELDS, "IQ sidecar"))
    length, sample_rate = meta["length"], float(meta["sample_rate"])
    n_bytes = path.stat().st_size
    if n_bytes != 16 * length:  # fromfile would drop a trailing partial sample
        raise ConfigError(f"IQ payload {path} of {n_bytes} bytes does not hold the sidecar's "
                          f"{length} samples ({16 * length} bytes)")
    samples = np.fromfile(path, dtype="<c16")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ConfigError(f"IQ payload {path}: sample {bad[0]} is {samples[bad[0]]}, not finite")
    return IqSignal(samples, sample_rate, meta.get("seed"))
