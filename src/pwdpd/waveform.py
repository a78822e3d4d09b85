"""OFDM excitation generator with crest-factor reduction and PAPR statistics.

Subcarrier mapping convention: the active allocation is centered on DC with
the DC bin left empty; floor(active/2) tones sit below DC and the remainder
above. Symbols are CP-OFDM with optional raised-cosine WOLA tapering, where
consecutive symbols overlap by ``wola_taper_samples`` and the FFT window of
every symbol lies in the flat (untapered) part, so demodulation is exact in
the absence of a channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DemodulationError
from .signals import IqSignal

_QAM_LEVELS = {"QPSK": 2, "16QAM": 4, "64QAM": 8}


def constellation_points(name: str) -> np.ndarray:
    """Unit-average-power square constellation alphabet."""
    try:
        m = _QAM_LEVELS[name]
    except KeyError:
        raise ConfigError(f"unknown constellation {name!r}") from None
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    alphabet = (levels[:, None] + 1j * levels[None, :]).ravel()
    return alphabet / np.sqrt(np.mean(np.abs(alphabet) ** 2))


@dataclass(frozen=True)
class OfdmConfig:
    subcarrier_spacing: float
    fft_size: int
    active_subcarriers: int
    oversampling: int = 1
    num_symbols: int = 1
    constellation: str = "64QAM"
    cp_fraction: float = 0.07
    wola_taper_samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.fft_size <= 0 or self.oversampling <= 0 or self.num_symbols <= 0:
            raise ConfigError("fft_size, oversampling and num_symbols must be positive")
        if not 0 < self.active_subcarriers < self.fft_size:
            raise ConfigError("active_subcarriers must be in (0, fft_size)")
        if not 0 <= self.cp_fraction < 1:
            raise ConfigError("cp_fraction must be in [0, 1)")
        if self.wola_taper_samples < 0:
            raise ConfigError("wola_taper_samples must be non-negative")
        if self.constellation not in _QAM_LEVELS:
            raise ConfigError(f"unknown constellation {self.constellation!r}")
        if self.subcarrier_spacing <= 0:
            raise ConfigError("subcarrier_spacing must be positive")

    @property
    def sample_rate(self) -> float:
        return self.fft_size * self.subcarrier_spacing * self.oversampling

    @property
    def occupied_bandwidth(self) -> float:
        return self.active_subcarriers * self.subcarrier_spacing

    @property
    def fft_size_os(self) -> int:
        """IFFT length at the oversampled rate."""
        return self.fft_size * self.oversampling

    @property
    def cp_samples(self) -> int:
        return int(round(self.cp_fraction * self.fft_size_os))

    @property
    def symbol_stride(self) -> int:
        """Output samples consumed per symbol (WOLA overlap already removed)."""
        return self.cp_samples + self.fft_size_os + self.wola_taper_samples

    @property
    def frame_length(self) -> int:
        return self.num_symbols * self.symbol_stride + self.wola_taper_samples

    def active_bins(self) -> np.ndarray:
        """FFT bin indices of the active subcarriers (DC excluded)."""
        below = self.active_subcarriers // 2
        above = self.active_subcarriers - below
        bins = np.concatenate([np.arange(-below, 0), np.arange(1, above + 1)])
        return bins % self.fft_size_os


def generate_ofdm(cfg: OfdmConfig) -> tuple[IqSignal, np.ndarray]:
    """Generate a random OFDM frame.

    Returns the time-domain signal and the transmitted symbol grid
    (num_symbols x active_subcarriers), kept as the EVM reference.
    """
    rng = np.random.default_rng(cfg.seed)
    alphabet = constellation_points(cfg.constellation)
    grid = alphabet[rng.integers(0, alphabet.size, size=(cfg.num_symbols, cfg.active_subcarriers))]

    n_fft = cfg.fft_size_os
    cp = cfg.cp_samples
    taper = cfg.wola_taper_samples
    bins = cfg.active_bins()
    # unit-mean-power normalization for unit-power constellation symbols
    scale = n_fft / np.sqrt(cfg.active_subcarriers)

    frame = np.zeros(cfg.frame_length, dtype=np.complex128)
    if taper:
        ramp = 0.5 * (1 - np.cos(np.pi * (np.arange(taper) + 0.5) / taper))
    for s in range(cfg.num_symbols):
        spectrum = np.zeros(n_fft, dtype=np.complex128)
        spectrum[bins] = grid[s]
        body = np.fft.ifft(spectrum) * scale
        sym = np.concatenate([body[-(cp + taper):] if cp + taper else body[:0], body, body[:taper]])
        if taper:
            sym[:taper] *= ramp
            sym[-taper:] *= ramp[::-1]
        start = s * cfg.symbol_stride
        frame[start:start + sym.size] += sym
    return IqSignal(frame, cfg.sample_rate, cfg.seed), grid


def demodulate_ofdm(sig: IqSignal, cfg: OfdmConfig) -> np.ndarray:
    """Recover the active-subcarrier grid from a frame with generate_ofdm framing.

    No equalization is applied; raises DemodulationError if the signal is
    shorter than the expected frame.
    """
    if len(sig) < cfg.frame_length:
        raise DemodulationError(
            f"signal length {len(sig)} shorter than expected frame {cfg.frame_length}")
    n_fft = cfg.fft_size_os
    bins = cfg.active_bins()
    scale = np.sqrt(cfg.active_subcarriers) / n_fft
    grid = np.empty((cfg.num_symbols, cfg.active_subcarriers), dtype=np.complex128)
    for s in range(cfg.num_symbols):
        start = s * cfg.symbol_stride + cfg.wola_taper_samples + cfg.cp_samples
        spectrum = np.fft.fft(sig.samples[start:start + n_fft])
        grid[s] = spectrum[bins] * scale
    return grid


def papr_ccdf(sig: IqSignal, probabilities) -> list[tuple[float, float]]:
    """Empirical CCDF of the sample-level PAPR.

    For each probability p returns (p, level_db) where level_db is the
    instantaneous-to-average power ratio exceeded by exactly the fraction p
    of samples (the ceil(p*N)-th largest sample ratio).
    """
    probabilities = list(probabilities)
    if len(sig) == 0:
        raise ConfigError("empty signal")
    for p in probabilities:
        if not 0 < p <= 1:
            raise ConfigError("probabilities must lie in (0, 1]")
    ratios = np.abs(sig.samples) ** 2
    ratios = ratios / ratios.mean()
    order = np.sort(ratios)[::-1]
    out = []
    for p in probabilities:
        k = max(1, int(np.ceil(p * order.size)))
        out.append((p, float(10 * np.log10(order[k - 1]))))
    return out


def papr_at(sig: IqSignal, probability: float) -> float:
    return papr_ccdf(sig, [probability])[0][1]


def crest_factor_reduce(sig: IqSignal, target_papr_db: float, iterations: int,
                        occupied_bandwidth: float) -> IqSignal:
    """Iterative clipping and filtering toward a target PAPR.

    Each iteration hard-clips the envelope at rms * 10^(target/20) and
    projects the result back onto the occupied band (brick-wall: FFT bins
    outside +-occupied_bandwidth/2 are zeroed, so clipping noise cannot grow
    out of band); iterations stop early once nothing exceeds the clip level,
    so a signal that never does is returned unchanged. The sequence ends on a
    clip, pinning the output peak exactly at the clip level; the unfiltered
    residue of that last pass is tiny (waveform self-ACLR stays above 60 dBc
    on the array8-deep and doherty-n3 waveforms). Best-effort: the achievable
    1% PAPR depends on the signal; no error is raised.
    """
    if not 0 < target_papr_db < np.inf:
        raise ConfigError(f"target_papr_db must be a positive finite number, got {target_papr_db!r}")
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    x = sig.samples.copy()
    drop = np.abs(np.fft.fftfreq(x.size, d=1.0 / sig.sample_rate)) > occupied_bandwidth / 2
    # clip level fixed against the input average power
    clip = np.sqrt(np.mean(np.abs(x) ** 2)) * 10 ** (target_papr_db / 20)

    def clip_pass(vec):
        """Clip vec in place (the private copy or a fresh ifft output); False if none was over."""
        env = np.abs(vec)
        over = env > clip
        if not np.any(over):
            return False
        vec[over] *= clip / env[over]
        return True

    for _ in range(iterations):
        if not clip_pass(x):
            break
        spectrum = np.fft.fft(x)
        spectrum[drop] = 0
        x = np.fft.ifft(spectrum)
    clip_pass(x)
    return IqSignal(x, sig.sample_rate, sig.seed)
