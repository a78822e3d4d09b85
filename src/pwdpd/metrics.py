"""FR2 figure-of-merit computation: EVM, PSD, ACLR (per-direction and
TRP-based), NMSE, and far-field beam patterns.

ACLR convention: adjacent channels sit at exactly +-channel_bw offsets; the
measurement bandwidth is the band holding 99% of the in-channel power (on a
WELCH_BINS-bin Welch spectrum), and the same bandwidth is used for the adjacent
channels. Only the worse adjacent channel enters the ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DemodulationError
from .signals import IqSignal
from .waveform import OfdmConfig, demodulate_ofdm

# 5G NR release-15 FR2 requirement tables
EVM_REQUIREMENTS_PERCENT = {"16QAM": 12.5, "64QAM": 8.0}
EVM_REQUIREMENTS_DB = {"16QAM": -18.0, "64QAM": -22.0}
ACLR_REQUIREMENTS_DBC = (
    (24.25e9, 33.4e9, 28.0),
    (37.0e9, 52.6e9, 26.0),
)

NMSE_FLOOR_DB = -300.0
# Welch segment length (frequency bins) of the PSD, ACLR and beam-pattern spectra
WELCH_BINS = 2048


def aclr_requirement(carrier_hz: float) -> float:
    for lo, hi, req in ACLR_REQUIREMENTS_DBC:
        if lo <= carrier_hz <= hi:
            return req
    raise ConfigError(f"no ACLR requirement tabulated for {carrier_hz / 1e9:.2f} GHz")


def nmse(reference: IqSignal, measured: IqSignal) -> float:
    """10 log10(sum |m - r|^2 / sum |r|^2), floored at -300 dB."""
    if len(reference) != len(measured):
        raise ConfigError("nmse requires equal-length signals")
    num = float(np.sum(np.abs(measured.samples - reference.samples) ** 2))
    den = float(np.sum(np.abs(reference.samples) ** 2))
    if den == 0:
        raise ConfigError("reference signal has zero energy")
    if num == 0:
        return NMSE_FLOOR_DB
    return max(10 * math.log10(num / den), NMSE_FLOOR_DB)


def evm(reference_grid: np.ndarray, received: IqSignal, cfg: OfdmConfig) -> float:
    """EVM percent after per-subcarrier single-tap LS equalization.

    The received frame must carry the generate_ofdm framing (alignment is
    the caller's responsibility); a too-short signal raises
    DemodulationError. Global complex scaling is absorbed by the equalizer.
    """
    grid = demodulate_ofdm(received, cfg)
    ref = np.asarray(reference_grid)
    if grid.shape != ref.shape:
        raise DemodulationError(
            f"demodulated grid {grid.shape} does not match reference {ref.shape}")
    # one LS tap per subcarrier across symbols
    num = np.sum(np.conj(ref) * grid, axis=0)
    den = np.sum(np.abs(ref) ** 2, axis=0)
    taps = np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0)
    err = grid / taps[None, :] - ref
    p_error = float(np.mean(np.abs(err) ** 2))
    p_ref = float(np.mean(np.abs(ref) ** 2))
    return 100.0 * math.sqrt(p_error / p_ref)


def _welch(samples: np.ndarray, sample_rate: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged periodogram (Hann, 50% overlap); linear PSD in 1/Hz units."""
    window = np.hanning(nperseg)
    norm = sample_rate * float(np.sum(window ** 2))
    hop = nperseg // 2
    acc = np.zeros(nperseg)
    count = 0
    for start in range(0, samples.size - nperseg + 1, hop):
        seg = samples[start:start + nperseg] * window
        acc += np.abs(np.fft.fft(seg)) ** 2
        count += 1
    if count == 0:
        raise ConfigError("signal shorter than one PSD segment")
    pxx = np.fft.fftshift(acc / (count * norm))
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, d=1.0 / sample_rate))
    return freqs, pxx


def psd(sig: IqSignal, resolution_bins: int = WELCH_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD estimate; returns (freqs, dB/Hz)."""
    if len(sig) < 4 * resolution_bins:
        raise ConfigError("signal must be at least 4 x resolution_bins long")
    freqs, pxx = _welch(sig.samples, sig.sample_rate, resolution_bins)
    return freqs, 10 * np.log10(pxx + np.finfo(float).tiny)


def band_power(freqs: np.ndarray, pxx: np.ndarray, lo: float, hi: float) -> float:
    df = freqs[1] - freqs[0]
    sel = (freqs >= lo) & (freqs < hi)
    return float(np.sum(pxx[sel]) * df)


def _occupied99_bandwidth(freqs: np.ndarray, pxx: np.ndarray, channel_bw: float) -> float:
    """Smallest symmetric band about DC holding 99% of the in-channel power."""
    inch = (freqs >= -channel_bw / 2) & (freqs < channel_bw / 2)
    total = np.sum(pxx[inch])
    if total <= 0:
        raise ConfigError("no in-channel power")
    half_widths = np.unique(np.abs(freqs[inch]))
    for hw in half_widths:
        sel = inch & (np.abs(freqs) <= hw)
        if np.sum(pxx[sel]) >= 0.99 * total:
            df = freqs[1] - freqs[0]
            return float(2 * hw + df)
    return channel_bw


def _channel_powers(freqs: np.ndarray, spectra, channel_bw: float) -> np.ndarray:
    """In-channel, lower and upper adjacent power of each spectrum, one row each:
    bands as wide as the occupied-99% bandwidth of the spectrum with the most
    in-channel power, centered at 0 and -+channel_bw."""
    channel = [band_power(freqs, pxx, -channel_bw / 2, channel_bw / 2) for pxx in spectra]
    mbw = _occupied99_bandwidth(freqs, spectra[int(np.argmax(channel))], channel_bw)
    bands = ((-mbw / 2, mbw / 2), (-channel_bw - mbw / 2, -channel_bw + mbw / 2),
             (channel_bw - mbw / 2, channel_bw + mbw / 2))
    return np.array([[band_power(freqs, pxx, lo, hi) for lo, hi in bands] for pxx in spectra])


def aclr_single_direction(sig: IqSignal, channel_bw: float) -> float:
    """In-channel to worst-adjacent power ratio in dBc for one direction."""
    if sig.sample_rate < 3 * channel_bw:
        raise ConfigError(
            f"sample rate {sig.sample_rate:.3g} < 3 x channel bandwidth; adjacent channels not in view")
    freqs, pxx = _welch(sig.samples, sig.sample_rate, WELCH_BINS)
    (p_ch, p_low, p_high), = _channel_powers(freqs, [pxx], channel_bw)
    p_adj = max(p_low, p_high)
    if p_adj <= 0:
        return 300.0
    return 10 * math.log10(p_ch / p_adj)


@dataclass
class AngleSweepResult:
    """Per-angle in-band and adjacent-channel powers over an azimuth sweep."""

    angles_deg: np.ndarray
    inband_power: np.ndarray
    adjacent_power_low: np.ndarray
    adjacent_power_high: np.ndarray

    def __post_init__(self):
        for name in ("angles_deg", "inband_power", "adjacent_power_low", "adjacent_power_high"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.angles_deg.size
        for arr in (self.inband_power, self.adjacent_power_low, self.adjacent_power_high):
            if arr.size != n:
                raise ConfigError("sweep arrays must share one length")
            if np.any(arr < 0):
                raise ConfigError("sweep powers must be non-negative")


def aclr_trp(sweep: AngleSweepResult) -> float:
    """TRP-based ACLR over the sweep (single polarization, fixed elevation).

    With the elevation factor constant, the TRP ratio reduces to the ratio
    of angle-summed powers; the worse adjacent channel is used. A one-point
    sweep degenerates to the per-direction ratio (with a warning, since
    main-beam-only ACLR is optimistic).
    """
    if sweep.angles_deg.size == 1:
        warnings.warn("single-angle sweep: falling back to per-direction ACLR",
                      stacklevel=2)
    trp_ch = float(np.sum(sweep.inband_power))
    trp_adj = max(float(np.sum(sweep.adjacent_power_low)),
                  float(np.sum(sweep.adjacent_power_high)))
    if trp_adj <= 0:
        return 300.0
    return 10 * math.log10(trp_ch / trp_adj)


def beam_pattern(per_element: list[IqSignal], angles_deg, channel_bw: float) -> AngleSweepResult:
    """Far-field in-band / adjacent powers versus azimuth.

    array_forward's element outputs are combined with the half-wavelength ULA
    array response exp(j pi i sin(angle)) per angle; powers integrate the
    Welch spectrum (WELCH_BINS bins) over the measurement bandwidth centered on the
    channel and the +-channel_bw adjacent offsets. The measurement bandwidth
    is the occupied-99% band of the angle with the strongest in-channel power,
    the rule of aclr_single_direction, so a one-point sweep reproduces that
    metric exactly.
    """
    angles_deg = np.asarray(list(angles_deg), dtype=float)
    if angles_deg.size == 0 or np.any(np.diff(angles_deg) < 0):
        raise ConfigError("angles must be non-empty and sorted")
    outputs = np.stack([sig.samples for sig in per_element])
    idx = np.arange(len(per_element))
    spectra = []
    freqs = None
    for ang in angles_deg:
        af = np.exp(1j * np.pi * idx * math.sin(math.radians(ang)))
        freqs, pxx = _welch(af @ outputs, per_element[0].sample_rate, WELCH_BINS)
        spectra.append(pxx)
    return AngleSweepResult(angles_deg, *_channel_powers(freqs, spectra, channel_bw).T)
