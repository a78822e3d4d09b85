import numpy as np
import pytest

from pwdpd.errors import ConfigError
from pwdpd.signals import IqSignal, read_iq, write_iq


def test_signal_validation():
    with pytest.raises(ConfigError):
        IqSignal(np.array([], dtype=complex), 1.0)
    with pytest.raises(ConfigError):
        IqSignal(np.array([1.0, np.inf]), 1.0)
    for rate in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            IqSignal(np.ones(4), rate)


def test_power_and_scaling():
    sig = IqSignal(np.array([1.0, 1j, -1.0, -1j]), 2.0)
    assert sig.power == pytest.approx(1.0)
    scaled = sig.scaled_to_rms(0.5)
    assert scaled.rms == pytest.approx(0.5)
    assert scaled.sample_rate == 2.0
    for rms in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ConfigError):
            sig.scaled_to_rms(rms)


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    sig = IqSignal(rng.standard_normal(257) + 1j * rng.standard_normal(257), 30.72e6, seed=3)
    bin_path, _ = write_iq(tmp_path / "x", sig)
    interleaved = np.stack([sig.samples.real, sig.samples.imag], axis=1).astype("<f8")
    assert bin_path.read_bytes() == interleaved.tobytes()
    back = read_iq(tmp_path / "x")
    assert back.sample_rate == sig.sample_rate
    assert back.seed == 3
    np.testing.assert_array_equal(back.samples, sig.samples)


def test_read_missing_and_corrupt(tmp_path):
    with pytest.raises(ConfigError):
        read_iq(tmp_path / "nope")
    sig = IqSignal(np.ones(8, dtype=complex), 1.0)
    bin_path, _ = write_iq(tmp_path / "y", sig)
    intact = bin_path.read_bytes()
    # a missing imaginary part, and a stray float after the last whole sample
    for payload in (intact[:-8], intact + bytes(8)):
        bin_path.write_bytes(payload)
        with pytest.raises(ConfigError, match="128 bytes"):
            read_iq(tmp_path / "y")
