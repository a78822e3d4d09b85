import ast
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pwdpd.dpd as dpd_mod
import pwdpd.ila as ila_mod
from pwdpd.basis import BasisSpec, block_cholesky, block_solve, gram_matrix, precompute_covariance
from pwdpd.dpd import (ClosedLoopSource, DpdModel, LearnConfig, distortion_power_identity,
                       error_signal, estimate_gain, learn, load_model, predistort, prune_select,
                       save_model, trace_to_csv)
from pwdpd.errors import ConfigError, DivergenceError
from pwdpd.partition import RegionPartition
from pwdpd.scenarios import SimulatedLoop
from pwdpd.signals import IqSignal

from conftest import PlantLoop, dense_basis, random_signal, single_element_plant, whiten


def test_predistort_identity_bit_exact():
    spec = BasisSpec("gmp", 5, 2)
    model = DpdModel.zero(spec)
    sig = random_signal(500, seed=1)
    out = predistort(model, sig)
    np.testing.assert_array_equal(out.samples, sig.samples)


def test_predistort_hand_expansion():
    spec = BasisSpec("gmp", 3)
    c = 0.2 - 0.1j
    model = DpdModel(np.array([0.0, c]), spec)
    sig = random_signal(200, seed=2)
    out = predistort(model, sig)
    expected = sig.samples + c * sig.samples * np.abs(sig.samples) ** 2
    np.testing.assert_allclose(out.samples, expected, rtol=1e-12)


def test_predistort_piecewise_region_masking():
    part = RegionPartition([0.0, 0.5, 10.0])
    spec = BasisSpec("gmp", 3, partition=part)
    gamma = np.zeros(4, dtype=complex)
    gamma[2] = 0.3  # region-2 linear term only
    model = DpdModel(gamma, spec)
    sig = IqSignal(np.array([0.2, 0.8, 0.4, 0.9], dtype=complex), 1.0)
    out = predistort(model, sig)
    np.testing.assert_array_equal(out.samples[[0, 2]], sig.samples[[0, 2]])
    np.testing.assert_allclose(out.samples[[1, 3]], 1.3 * sig.samples[[1, 3]], rtol=1e-12)


def test_estimate_gain_values():
    sig = random_signal(1000, seed=3)
    assert estimate_gain(sig, sig.with_samples(2.0 * sig.samples)) == pytest.approx(2.0)
    g = estimate_gain(sig, sig.with_samples((1 + 1j) * sig.samples))
    assert g == pytest.approx(1 + 1j)
    with pytest.raises(ConfigError):
        estimate_gain(sig.with_samples(np.zeros(1000, dtype=complex)), sig)


def test_estimate_gain_orthogonal_distortion():
    sig = random_signal(5000, seed=4)
    a = sig.samples
    d = a * np.abs(a) ** 2
    d = d - (np.vdot(a, d) / np.vdot(a, a)) * a  # orthogonal part only
    z = sig.with_samples(a + d)
    assert estimate_gain(sig, z) == pytest.approx(1.0, abs=1e-10)


def test_error_signal_cases():
    sig = random_signal(400, seed=5)
    lin = sig.with_samples(3.0 * sig.samples)
    np.testing.assert_allclose(error_signal(lin, sig, 3.0).samples, 0, atol=1e-14)
    d = 0.1 * sig.samples ** 2
    z = sig.with_samples(2.0 * sig.samples + d)
    np.testing.assert_allclose(error_signal(z, sig, 2.0).samples, d, rtol=1e-9, atol=1e-14)


def test_error_signal_third_order_energy_oracle():
    sig = random_signal(20000, seed=6)
    a = sig.samples
    c3 = -0.08 + 0.02j
    z = sig.with_samples(a + c3 * a * np.abs(a) ** 2)
    ghat = estimate_gain(sig, z)
    err = error_signal(z, sig, ghat)
    # oracle: distortion minus its projection onto a
    d = c3 * a * np.abs(a) ** 2
    d_perp = d - (np.vdot(a, d) / np.vdot(a, a)) * a
    assert np.sum(np.abs(err.samples) ** 2) == pytest.approx(np.sum(np.abs(d_perp) ** 2), rel=1e-10)


def test_learn_linear_plant_stays_zero():
    plant = single_element_plant({(1, 0): 1.0})
    loop = PlantLoop(plant, rms=0.3, seed=12)
    cfg = LearnConfig(mu=0.5, block_size=2000, iterations=5)
    model, trace = learn(loop, BasisSpec("gmp", 5), cfg)
    assert trace[-1].error_power_dbc < -60
    assert np.linalg.norm(model.gamma) < 1e-6


def test_learn_cubic_convergence(cubic_plant):
    loop = PlantLoop(cubic_plant, rms=0.25, seed=13)
    cfg = LearnConfig(mu=0.5, block_size=4000, iterations=10)
    model, trace = learn(loop, BasisSpec("gmp", 7), cfg)
    powers = [t.error_power_dbc for t in trace]
    # decreasing until the floor; near the floor fresh data wiggles a little
    assert all(b < a for a, b in zip(powers[:5], powers[1:5]))
    assert all(b <= a + 2.5 for a, b in zip(powers, powers[1:]))
    assert powers[-1] < -55
    # no-DPD distortion level for this plant/drive
    ref_loop = PlantLoop(cubic_plant, rms=0.25, seed=99)
    a1 = ref_loop.next_block(4000)
    z = ref_loop.transmit(a1)
    g = estimate_gain(a1, z)
    no_dpd = 10 * np.log10(np.mean(np.abs(error_signal(z, a1, g).samples) ** 2)
                           / (abs(g) ** 2 * a1.power))
    assert no_dpd - powers[-1] >= 20


def test_learn_single_update_matches_dense_algebra(cubic_plant):
    """One block update equals the documented rule evaluated with dense matrices:
    the whitened step c = -(mu / Ghat) L^-1 Psi^H e / N, applied as gamma = L^-H c,
    with L block diagonal over the regions (K = 1 and K = 3)."""
    from pwdpd.basis import STATS_LOADING
    from pwdpd.plant import array_forward, observation_receive

    mu, n = 0.5, 3000

    class OneShot:
        def __init__(self):
            self.blocks = [random_signal(n, rms=0.25, seed=s) for s in (20, 21, 22)]
            self.i = 0

        def next_block(self, size):
            blk = self.blocks[self.i]
            self.i += 1
            return blk

        def transmit(self, x):
            per = array_forward(cubic_plant, x)
            return observation_receive(cubic_plant, per)

    for spec in (BasisSpec("gmp", 5),
                 BasisSpec("gmp", 5, partition=RegionPartition([0.0, 0.15, 0.3, 2.0]))):
        src = OneShot()
        cfg = LearnConfig(mu=mu, block_size=n, iterations=1, stats_blocks=1)
        model, trace = learn(src, spec, cfg)

        # oracle: dense-matrix replication of the update on the same data
        stats, a1 = src.blocks[0], src.blocks[1]
        psi_stats = dense_basis(spec, stats.samples)
        gram = psi_stats.conj().T @ psi_stats / n  # block diagonal: regions share no rows
        b1 = spec.n_basis_single
        gram += (STATS_LOADING * np.trace(gram).real / spec.n_basis_total) * np.eye(gram.shape[0])
        lo = np.zeros_like(gram)
        for r in range(spec.n_regions):
            blk = slice(r * b1, (r + 1) * b1)
            lo[blk, blk] = np.linalg.cholesky(gram[blk, blk])
        z = src.transmit(a1)
        ghat = estimate_gain(a1, z)
        e = z.samples - ghat * a1.samples
        psi = dense_basis(spec, a1.samples)
        zeta = np.linalg.solve(lo, psi.conj().T @ e / n)
        expected = np.linalg.solve(lo.conj().T, -(mu / ghat) * zeta)
        skip = 0
        if spec.n_regions == 1:
            # zeta[0] pairs the linear column a1 with e, which the LS gain makes
            # orthogonal (a1^H e = 0): both sides hold round-off of a structural zero
            for got in (trace[0].zeta, zeta):
                assert abs(got[0]) <= 1e-12 * np.max(np.abs(got))
            skip = 1
        np.testing.assert_allclose(trace[0].zeta[skip:], zeta[skip:], rtol=1e-10)
        np.testing.assert_allclose(model.gamma, expected, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(expected)))


def test_learn_stability_fixed_source(cubic_plant):
    loop = PlantLoop(cubic_plant, rms=0.25, seed=14, fixed_data=True)
    cfg = LearnConfig(mu=1.0, block_size=3000, iterations=8)
    _, trace = learn(loop, BasisSpec("gmp", 7), cfg)
    powers = [t.error_power_dbc for t in trace]
    assert all(b <= a + 1e-6 for a, b in zip(powers, powers[1:]))


def test_model_whitener_is_region_block_stack():
    """The learner's L^-1 and L^-H solve each region block of its factor stack;
    a factor of any other shape is refused."""
    spec = BasisSpec("gmp", 5, partition=RegionPartition([0.0, 0.3, 2.0]))
    factor = block_cholesky(precompute_covariance(spec, random_signal(3000, rms=0.25, seed=23)))
    assert factor.shape == (2, 3, 3)
    assert np.all(factor == np.tril(factor))
    dense = np.zeros((6, 6), dtype=complex)
    dense[:3, :3], dense[3:, 3:] = factor
    rng = np.random.default_rng(23)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(block_solve(factor, c), np.linalg.solve(dense, c), rtol=1e-12)
    np.testing.assert_allclose(block_solve(factor, c, adjoint=True),
                               np.linalg.solve(dense.conj().T, c), rtol=1e-12)
    for bad in (dense, factor[:1], factor[:, :2, :2], factor[:, :, :2]):
        with pytest.raises(ValueError):
            block_solve(bad, c)


def test_model_holds_one_coefficient_domain():
    """A model is the native gamma its predistorter applies: pwdpd.dpd and
    pwdpd.ila name no whitener, orthogonal domain, native-gamma conversion,
    learning rule, active mask or noise floor, and a closed-loop source's
    transmit takes the block alone."""
    nodes = [node for module in (dpd_mod, ila_mod)
             for node in ast.walk(ast.parse(Path(module.__file__).read_text()))]
    names = {getattr(node, key, None) for node in nodes for key in ("name", "id", "attr", "arg")}
    keys = {node.value for node in nodes if isinstance(node, ast.Constant)}
    assert names.isdisjoint({"whitener", "orthogonal_domain", "native_gamma", "rule",
                             "LEARN_RULES", "active_mask", "noise_floor_dbc"})
    assert keys.isdisjoint({"whitener", "orthogonal_domain", "has_whitener", "active_mask"})
    assert [f.name for f in fields(DpdModel)] == ["gamma", "spec", "ghat"]
    assert [f.name for f in fields(LearnConfig)] == [
        "mu", "block_size", "iterations", "prune_threshold_db", "stats_blocks"]
    for source in (ClosedLoopSource, SimulatedLoop):
        assert list(inspect.signature(source.transmit).parameters) == ["self", "x"], source


def test_learn_divergence_detected(cubic_plant):
    class Exploding:
        def __init__(self):
            self.k = 0

        def next_block(self, n):
            return random_signal(n, rms=0.25, seed=30 + self.k)

        def transmit(self, x):
            self.k += 1
            garbage = random_signal(len(x), rms=0.25 * 4 ** self.k, seed=50 + self.k)
            return x.with_samples(x.samples + garbage.samples)

    with pytest.raises(DivergenceError) as err:
        learn(Exploding(), BasisSpec("gmp", 5),
              LearnConfig(mu=0.1, block_size=2000, iterations=8))
    assert len(err.value.trace) >= 4


def test_large_step_stability_depends_on_drive():
    """mu in (0, 2) is not stable at every drive level on a compressing PA."""
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.12 + 0.03j, (5, 0): 0.02}, sat=1.0)
    cfg = LearnConfig(mu=1.9, block_size=4000, iterations=12)
    learn(PlantLoop(plant, rms=0.5, seed=3), BasisSpec("gmp", 7), cfg)
    with pytest.raises(DivergenceError):
        learn(PlantLoop(plant, rms=0.8, seed=3), BasisSpec("gmp", 7), cfg)


def test_learn_config_validation():
    with pytest.raises(ConfigError):
        LearnConfig(mu=2.5)
    with pytest.raises(ConfigError):
        learn(None, BasisSpec("gmp", 9), LearnConfig(block_size=10))
    for threshold in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="prune_threshold_db"):
            LearnConfig(prune_threshold_db=threshold)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_model_refuses_non_finite_gamma(bad):
    gamma = np.zeros(3, dtype=complex)
    gamma[2] = bad
    with pytest.raises(ConfigError, match=r"gamma\[2\] is not finite"):
        DpdModel(gamma, BasisSpec("gmp", 5))


def test_prune_select_cases():
    zeta = np.array([10 ** (-30 / 20), 10 ** (-60 / 20)])
    np.testing.assert_array_equal(prune_select(zeta, -50.0, 1.0), [True, False])
    assert not prune_select(np.zeros(4), -50.0, 1.0).any()


def test_distortion_power_identity():
    lhs, rhs, gap = distortion_power_identity(np.zeros(2), IqSignal(np.zeros(10) + 0j, 1.0))
    assert lhs == rhs == 0 and gap == 0
    # constructed: orthonormal (in sample power) third/fifth-order components
    sig = random_signal(20000, rms=0.8, seed=18)
    spec = BasisSpec("gmp", 5)
    factor = block_cholesky(gram_matrix(spec, sig.samples))
    psi = whiten(dense_basis(spec, sig.samples), factor)[:, 1:]  # third and fifth order
    alpha = np.array([0.3 - 0.1j, 0.05 + 0.2j])
    e = IqSignal(psi @ alpha, 1.0)
    zeta = psi.conj().T @ e.samples / len(sig)
    lhs, rhs, gap = distortion_power_identity(zeta, e)
    assert gap < 1e-6
    # an unspanned component only increases the left side
    extra = random_signal(20000, rms=0.1, seed=19).samples
    e2 = IqSignal(e.samples + extra, 1.0)
    zeta2 = psi.conj().T @ e2.samples / len(sig)
    lhs2, rhs2, _ = distortion_power_identity(zeta2, e2)
    assert lhs2 > rhs2


def test_piecewise_continuity_after_convergence(cubic_plant):
    part = RegionPartition([0.0, 0.22, 2.0])
    spec = BasisSpec("gmp", 7, partition=part)
    cfg = LearnConfig(mu=0.4, block_size=6000, iterations=12)
    model, _ = learn(PlantLoop(cubic_plant, rms=0.25, seed=20), spec, cfg)
    amps = np.linspace(0.01, 0.8, 1200)
    # staircase holding each amplitude 64 samples so memory settles; the last
    # sample of each step reads the composite DPD AM/AM curve
    stair = IqSignal(np.repeat(amps.astype(np.complex128), 64), 1.0)
    curve = np.abs(predistort(model, stair).samples[63::64])
    boundary = 0.22
    i = int(np.searchsorted(amps, boundary))
    jump = abs(curve[i + 1] - curve[i - 1])
    assert jump < 0.01 * curve.max()


def test_model_file_keeps_every_bit(tmp_path):
    """The one JSON model file writes each float as its shortest repr, which
    reads back to the same bits: signed zeros, subnormals and extremes too."""
    spec = BasisSpec("gmp", 9)
    gamma = np.array([-0.0 + 5e-324j, 1.7976931348623157e308 - 2.2250738585072014e-308j,
                      0.1 + 1 / 3 * 1j, -1e-300 + 0.0j, np.pi - np.e * 1j])
    model = DpdModel(gamma, spec, ghat=complex(np.nextafter(1.0, 2.0), -0.0))
    assert save_model(model, tmp_path / "m") == tmp_path / "m.dpd.json"
    back = load_model(tmp_path / "m")
    assert back.gamma.tobytes() == gamma.tobytes() and back.spec == spec
    assert np.array([back.ghat]).tobytes() == np.array([model.ghat]).tobytes()


def test_model_save_load_roundtrip(tmp_path, cubic_plant):
    part = RegionPartition([0.0, 0.3, 2.0])
    spec = BasisSpec("gmp", 5, partition=part)
    cfg = LearnConfig(mu=0.5, block_size=3000, iterations=3,
                      prune_threshold_db=-60.0)
    model, trace = learn(PlantLoop(cubic_plant, rms=0.25, seed=21), spec, cfg)
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.gamma.tobytes() == model.gamma.tobytes()
    assert back.gamma.flags.writeable
    assert back.ghat == model.ghat
    sig = random_signal(1000, rms=0.25, seed=22)
    np.testing.assert_array_equal(predistort(back, sig).samples,
                                  predistort(model, sig).samples)
    trace_to_csv(trace, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,error_power_dbc,active_count"
    assert len(lines) == 1 + len(trace)
