import numpy as np
import pytest

from pwdpd.errors import ConfigError
from pwdpd.signals import IqSignal
from pwdpd.waveform import (OfdmConfig, crest_factor_reduce, demodulate_ofdm,
                            generate_ofdm, papr_at, papr_ccdf)


def small_cfg(**kw):
    base = dict(subcarrier_spacing=15e3, fft_size=64, active_subcarriers=52,
                oversampling=1, num_symbols=1, seed=1)
    base.update(kw)
    return OfdmConfig(**base)


def test_nr_dimension_arithmetic():
    cfg = OfdmConfig(120e3, 4096, 3168, oversampling=5)
    assert cfg.sample_rate == pytest.approx(2457.6e6)
    assert cfg.occupied_bandwidth == pytest.approx(380.16e6)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        OfdmConfig(15e3, 64, 0)
    with pytest.raises(ConfigError):
        OfdmConfig(15e3, 64, 64)
    with pytest.raises(ConfigError):
        OfdmConfig(15e3, 64, 80)


def _oracle_demap(sig, cfg):
    """Independent CP-removal + FFT demap (oracle for the round trip)."""
    n_fft = cfg.fft_size * cfg.oversampling
    below = cfg.active_subcarriers // 2
    above = cfg.active_subcarriers - below
    bins = np.concatenate([np.arange(-below, 0), np.arange(1, above + 1)]) % n_fft
    grid = np.zeros((cfg.num_symbols, cfg.active_subcarriers), dtype=complex)
    stride = cfg.cp_samples + n_fft + cfg.wola_taper_samples
    for s in range(cfg.num_symbols):
        start = s * stride + cfg.wola_taper_samples + cfg.cp_samples
        spec = np.fft.fft(sig.samples[start:start + n_fft])
        grid[s] = spec[bins] * np.sqrt(cfg.active_subcarriers) / n_fft
    return grid


def test_roundtrip_exact():
    cfg = small_cfg()
    sig, grid = generate_ofdm(cfg)
    assert len(sig) == 64 + cfg.cp_samples
    recovered = _oracle_demap(sig, cfg)
    np.testing.assert_allclose(recovered, grid, atol=1e-12)


def test_roundtrip_with_wola_and_multiple_symbols():
    cfg = small_cfg(num_symbols=5, wola_taper_samples=6, seed=9)
    sig, grid = generate_ofdm(cfg)
    assert len(sig) == cfg.frame_length
    np.testing.assert_allclose(_oracle_demap(sig, cfg), grid, atol=1e-12)
    np.testing.assert_allclose(demodulate_ofdm(sig, cfg), grid, atol=1e-12)


def test_mean_power_near_unity():
    cfg = small_cfg(num_symbols=20, oversampling=2, seed=4)
    sig, _ = generate_ofdm(cfg)
    assert sig.power == pytest.approx(1.0, rel=0.1)


def test_cfr_constant_envelope_unchanged():
    sig = IqSignal(np.exp(1j * np.linspace(0, 20, 4096)), 1.0)
    # nothing exceeds the clip level, so not even the half-band projection runs
    out = crest_factor_reduce(sig, 3.0, occupied_bandwidth=0.5)
    np.testing.assert_allclose(out.samples, sig.samples)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf, 0.0],
                         ids=["nan", "inf", "-inf", "zero"])
def test_cfr_refuses_target_that_is_not_positive_and_finite(target):
    """A NaN target used to return the input unchanged without a word."""
    sig = IqSignal(np.ones(64, dtype=complex), 1.0)
    with pytest.raises(ConfigError, match="target_papr_db"):
        crest_factor_reduce(sig, target, occupied_bandwidth=0.5)


def test_cfr_single_peak_clip_arithmetic():
    # carrier with one 5x peak; hard target, a projection onto the whole band
    # (no bin dropped): the peak lands exactly at the rms-referred clip level
    x = np.ones(1000, dtype=complex)
    x[371] = 5.0
    sig = IqSignal(x, 1.0)
    target_db = 3.0
    expected_clip = np.sqrt(np.mean(np.abs(x) ** 2)) * 10 ** (target_db / 20)
    out = crest_factor_reduce(sig, target_db, occupied_bandwidth=sig.sample_rate)
    assert np.max(np.abs(out.samples)) == pytest.approx(expected_clip, rel=1e-12)


def test_cfr_reaches_target_and_never_raises_papr():
    cfg = small_cfg(fft_size=256, active_subcarriers=180, num_symbols=8, oversampling=2, seed=5)
    sig, _ = generate_ofdm(cfg)
    before = papr_at(sig, 0.01)
    for target in (6.0, 7.0):
        out = crest_factor_reduce(sig, target, occupied_bandwidth=cfg.occupied_bandwidth)
        after = papr_at(out, 0.01)
        assert after <= target + 0.5
        assert after <= before + 1e-9


@pytest.mark.parametrize("num_symbols", [2, 4, 8])
@pytest.mark.parametrize("preset", ["array8-deep", "doherty-n3"])
def test_cfr_preset_waveform_self_aclr(preset, num_symbols):
    """The clip that ends crest_factor_reduce leaves the preset waveforms'
    self-ACLR above 60 dBc, as its docstring claims."""
    from pwdpd.metrics import aclr_single_direction
    from pwdpd.presets import preset_params
    from pwdpd.scenarios import preset_waveform

    params = preset_params(preset)
    sig, _, _ = preset_waveform(params, num_symbols, seed=1)
    assert aclr_single_direction(sig, params["channel_bw"]) > 60


def test_papr_ccdf_trivial_and_hand_quantile():
    const = IqSignal(np.exp(1j * np.arange(100)), 1.0)
    for _, level in papr_ccdf(const, [0.5, 0.1, 0.01]):
        assert level == pytest.approx(0.0, abs=1e-12)
    # powers {1,1,1,9}, mean 3: the level exceeded by 25% of samples is 9/3
    sig = IqSignal(np.array([1.0, 1.0, 1.0, 3.0], dtype=complex), 1.0)
    (_, level), = papr_ccdf(sig, [0.25])
    assert level == pytest.approx(10 * np.log10(3.0), abs=1e-12)


def test_papr_ccdf_gaussian_analytic():
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(10 ** 6) + 1j * rng.standard_normal(10 ** 6)) / np.sqrt(2)
    (_, level), = papr_ccdf(IqSignal(x, 1.0), [0.01])
    assert level == pytest.approx(10 * np.log10(-np.log(0.01)), abs=0.3)


def test_papr_ccdf_monotone_and_validation():
    sig = IqSignal((np.random.default_rng(0).standard_normal(4096)
                    + 1j * np.random.default_rng(1).standard_normal(4096)), 1.0)
    probs = [0.5, 0.2, 0.05, 0.01, 0.001]
    levels = [lvl for _, lvl in papr_ccdf(sig, probs)]
    assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))
    with pytest.raises(ConfigError):
        papr_ccdf(sig, [0.0])
    with pytest.raises(ConfigError):
        papr_ccdf(sig, [1.5])
