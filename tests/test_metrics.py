import math

import numpy as np
import pytest

from pwdpd.errors import ConfigError, DemodulationError
from pwdpd.metrics import (ACLR_REQUIREMENTS_DBC, EVM_REQUIREMENTS_DB,
                           EVM_REQUIREMENTS_PERCENT, AngleSweepResult, aclr_requirement,
                           aclr_single_direction, aclr_trp, beam_pattern, evm,
                           nmse, psd)
from pwdpd.plant import ArrayPlant, PaModel, array_forward
from pwdpd.signals import IqSignal
from pwdpd.waveform import OfdmConfig, generate_ofdm

from conftest import identity_coupling, random_signal


def eval_cfg(num_symbols=6, seed=3):
    return OfdmConfig(15e3, 256, 180, oversampling=4, num_symbols=num_symbols,
                      constellation="64QAM", seed=seed)


def test_requirement_tables():
    assert EVM_REQUIREMENTS_PERCENT == {"16QAM": 12.5, "64QAM": 8.0}
    assert EVM_REQUIREMENTS_DB == {"16QAM": -18.0, "64QAM": -22.0}
    assert ACLR_REQUIREMENTS_DBC[0][2] == 28.0 and ACLR_REQUIREMENTS_DBC[1][2] == 26.0
    assert aclr_requirement(28e9) == 28.0
    assert aclr_requirement(39e9) == 26.0
    with pytest.raises(ConfigError):
        aclr_requirement(6e9)


def test_evm_ideal_and_scaling_invariance():
    cfg = eval_cfg()
    sig, grid = generate_ofdm(cfg)
    assert evm(grid, sig, cfg) == pytest.approx(0.0, abs=1e-10)
    scaled = sig.with_samples(sig.samples * (0.3 - 1.7j))
    assert evm(grid, scaled, cfg) == pytest.approx(0.0, abs=1e-9)


def test_evm_additive_noise_analytic():
    cfg = eval_cfg(num_symbols=50, seed=8)
    sig, grid = generate_ofdm(cfg)
    rng = np.random.default_rng(4)
    # white noise sized so its share inside the occupied band is -22 dB of
    # the signal: EVM ~ 10^(-22/20) = 7.94%, less the (S-1)/S equalizer bias
    occupied_fraction = cfg.active_subcarriers / cfg.fft_size_os
    p_noise = sig.power * 10 ** (-22 / 10) / occupied_fraction
    noisy = sig.with_samples(sig.samples + np.sqrt(p_noise / 2) * (
        rng.standard_normal(len(sig)) + 1j * rng.standard_normal(len(sig))))
    expected = 100 * 10 ** (-22 / 20) * math.sqrt((50 - 1) / 50)
    assert evm(grid, noisy, cfg) == pytest.approx(expected, rel=0.05)


def test_evm_sync_loss():
    cfg = eval_cfg()
    sig, grid = generate_ofdm(cfg)
    short = IqSignal(sig.samples[:len(sig) // 2], sig.sample_rate)
    with pytest.raises(DemodulationError):
        evm(grid, short, cfg)


def test_psd_tone_peak():
    fs = 1000.0
    n = 8192
    tone = np.exp(2j * np.pi * 125.0 * np.arange(n) / fs)
    freqs, db = psd(IqSignal(tone, fs), 1024)
    assert freqs[int(np.argmax(db))] == pytest.approx(125.0, abs=fs / 1024)


def test_psd_white_noise_flat():
    rng = np.random.default_rng(5)
    n = 120000
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    freqs, db = psd(IqSignal(x, 1.0), 1024)  # > 100 averages at 50% overlap
    assert db.max() - db.min() < 2.0  # flat within +-1 dB


def test_psd_parseval():
    sig = random_signal(65536, rms=0.8, seed=6)
    freqs, db = psd(sig, 2048)
    power = np.sum(10 ** (db / 10)) * (freqs[1] - freqs[0])
    assert 10 * math.log10(power / sig.power) == pytest.approx(0.0, abs=0.1)


def test_psd_too_short():
    with pytest.raises(ConfigError):
        psd(random_signal(100), 1024)


def _synthetic_adjacent(ratio_db=-30.0, n=1 << 16, fs=10.0):
    """In-band block at [-1,1] plus an adjacent block at +2..+4 offset scaled
    to exactly ratio_db of the in-band power."""
    rng = np.random.default_rng(7)
    spec = np.zeros(n, dtype=complex)
    freqs = np.fft.fftfreq(n, d=1 / fs)
    inband = np.abs(freqs) < 1.0
    adj = (freqs > 1.0) & (freqs < 3.0)
    spec[inband] = rng.standard_normal(inband.sum()) + 1j * rng.standard_normal(inband.sum())
    spec[adj] = rng.standard_normal(adj.sum()) + 1j * rng.standard_normal(adj.sum())
    p_in = np.sum(np.abs(spec[inband]) ** 2)
    p_adj = np.sum(np.abs(spec[adj]) ** 2)
    spec[adj] *= np.sqrt(p_in * 10 ** (ratio_db / 10) / p_adj)
    return IqSignal(np.fft.ifft(spec), fs)


def test_aclr_band_limited_floor():
    rng = np.random.default_rng(9)
    n = 1 << 16
    spec = np.zeros(n, dtype=complex)
    freqs = np.fft.fftfreq(n, d=1 / 10.0)
    inband = np.abs(freqs) < 0.9
    spec[inband] = rng.standard_normal(inband.sum()) + 1j * rng.standard_normal(inband.sum())
    sig = IqSignal(np.fft.ifft(spec), 10.0)
    assert aclr_single_direction(sig, 2.0) > 60


def test_aclr_constructed_ratio():
    sig = _synthetic_adjacent(-30.0)
    got = aclr_single_direction(sig, 2.0)
    assert got == pytest.approx(30.0, abs=0.1)


def test_aclr_preconditions():
    sig = random_signal(10000, seed=10, sample_rate=2.0)
    with pytest.raises(ConfigError):
        aclr_single_direction(sig, 1.0)  # fs < 3 x bw


def test_aclr_trp_cases():
    iso = AngleSweepResult([0.0, 10.0], [1.0, 1.0], [0.01, 0.01], [0.005, 0.005])
    per_angle = 10 * math.log10(1.0 / 0.01)
    assert aclr_trp(iso) == pytest.approx(per_angle)
    hand = AngleSweepResult([0.0, 10.0], [1.0, 1.0], [0.001, 0.1], [0.0, 0.0])
    assert aclr_trp(hand) == pytest.approx(10 * math.log10(2.0 / 0.101), abs=1e-9)
    single = AngleSweepResult([0.0], [1.0], [0.01], [0.0])
    with pytest.warns(UserWarning):
        aclr_trp(single)


def _linear_array(n):
    pa = PaModel("memory_poly", {(1, 0): 1.0})
    return ArrayPlant((pa,) * n, np.ones(n, dtype=complex), identity_coupling(n),
                      np.ones((n, 1), dtype=complex))


def band_limited_signal(n=1 << 15, fs=10.0, seed=11):
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    freqs = np.fft.fftfreq(n, d=1 / fs)
    inband = np.abs(freqs) < 0.9
    spec[inband] = rng.standard_normal(inband.sum()) + 1j * rng.standard_normal(inband.sum())
    return IqSignal(np.fft.ifft(spec), fs)


def test_beam_pattern_single_element_flat():
    sig = band_limited_signal()
    per_element = array_forward(_linear_array(1), sig)
    sweep = beam_pattern(per_element, np.arange(-60, 61, 10), 2.0)
    assert np.max(sweep.inband_power) / np.min(sweep.inband_power) == pytest.approx(1.0, rel=1e-9)


def test_beam_pattern_matches_array_factor():
    n = 8
    sig = band_limited_signal()
    angles = np.array([-40.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0])
    per_element = array_forward(_linear_array(n), sig)
    sweep = beam_pattern(per_element, angles, 2.0)
    idx = np.arange(n)
    af = np.array([np.abs(np.sum(np.exp(1j * np.pi * idx * math.sin(math.radians(a))))) ** 2
                   for a in angles])
    got_db = 10 * np.log10(sweep.inband_power / sweep.inband_power.max())
    exp_db = 10 * np.log10(af / af.max())
    keep = exp_db > -30  # away from exact nulls
    np.testing.assert_allclose(got_db[keep], exp_db[keep], atol=0.2)


def test_one_point_sweep_equals_single_direction():
    n = 4
    plant = _linear_array(n)
    sig = band_limited_signal(seed=12)
    angle = 15.0
    per_element = array_forward(plant, sig)
    sweep = beam_pattern(per_element, [angle], 2.0)
    outputs = np.stack([s.samples for s in per_element])
    af = np.exp(1j * np.pi * np.arange(n) * math.sin(math.radians(angle)))
    far = IqSignal(af @ outputs, sig.sample_rate)
    with pytest.warns(UserWarning):
        trp = aclr_trp(sweep)
    assert trp == pytest.approx(aclr_single_direction(far, 2.0), abs=1e-9)


def test_nmse_cases():
    sig = random_signal(1000, seed=13)
    assert nmse(sig, sig) <= -150
    scaled = sig.with_samples(sig.samples * 1.01)
    assert nmse(sig, scaled) == pytest.approx(-40.0, abs=1e-6)
    rng = np.random.default_rng(14)
    err = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    err *= np.sqrt(sig.power / np.mean(np.abs(err) ** 2) / 2) * np.sqrt(2)
    # unit-power orthogonal-ish error on unit-power reference: ~0 dB
    meas = sig.with_samples(sig.samples + err)
    assert nmse(sig, meas) == pytest.approx(0.0, abs=0.2)


def test_angle_sweep_validation():
    with pytest.raises(ConfigError):
        AngleSweepResult([0.0, 1.0], [1.0], [0.1, 0.1], [0.1, 0.1])
    with pytest.raises(ConfigError):
        AngleSweepResult([0.0], [-1.0], [0.1], [0.1])
