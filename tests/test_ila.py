import numpy as np
import pytest

from pwdpd import basis as basis_mod
from pwdpd.basis import BasisSpec, regularized_lstsq, COVARIANCE_LOADING
from pwdpd.dpd import predistort
from pwdpd.errors import ConfigError, DegenerateRegionError
from pwdpd.ila import _postinverse_fit, ila_learn
from pwdpd.partition import RegionPartition

from conftest import PlantLoop, random_signal, single_element_plant


def test_regularized_lstsq_against_normal_equations():
    rng = np.random.default_rng(1)
    for n, b in ((50, 4), (200, 10), (120, 7)):
        a = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = regularized_lstsq(a, y)
        lam = COVARIANCE_LOADING * np.sum(np.abs(a) ** 2) / b
        oracle = np.linalg.solve(a.conj().T @ a + lam * np.eye(b), a.conj().T @ y)
        np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-12)


def test_ila_linear_plant_identity():
    plant = single_element_plant({(1, 0): 1.0})
    loop = PlantLoop(plant, rms=0.3, seed=2)
    model, _ = ila_learn(loop, BasisSpec("memoryless", 5), iterations=2, block_size=2000)
    assert np.max(np.abs(model.gamma)) < 1e-8


def test_ila_invertible_cubic_converges():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    loop = PlantLoop(plant, rms=0.25, seed=3)
    model, trace = ila_learn(loop, BasisSpec("memoryless", 7), iterations=4, block_size=4000)
    assert trace[-1].error_power_dbc <= -40


def test_pw_ila_single_region_matches_plain():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    spec = BasisSpec("memoryless", 5)
    piecewise = spec.with_partition(RegionPartition([0.0, 100.0]))
    plain_model, _ = ila_learn(PlantLoop(plant, rms=0.25, seed=4), spec,
                               iterations=2, block_size=2000)
    pw_model, _ = ila_learn(PlantLoop(plant, rms=0.25, seed=4), piecewise,
                            iterations=2, block_size=2000)
    np.testing.assert_array_equal(plain_model.gamma, pw_model.gamma)


def test_pw_ila_degenerate_region():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    # a region sliver so narrow the regressor never lands in it
    part = RegionPartition([0.0, 0.9999999, 1.0])
    spec = BasisSpec("memoryless", 5, partition=part)
    with pytest.raises(DegenerateRegionError):
        ila_learn(PlantLoop(plant, rms=0.25, seed=5), spec, iterations=1, block_size=2000)


def test_ila_validation():
    with pytest.raises(ConfigError):
        ila_learn(None, BasisSpec("memoryless", 5), iterations=0)
    with pytest.raises(ConfigError):
        ila_learn(None, BasisSpec("full_dual_input", 9, 3), block_size=100)


@pytest.mark.parametrize("headroom", [0.0, -1.0])
def test_ila_clip_headroom_must_be_positive(headroom):
    # a headroom <= 0 clamps every transmitted sample to zero or flips its sign
    loop = PlantLoop(single_element_plant({(1, 0): 1.0, (3, 0): -0.1}), rms=0.25, seed=9)
    with pytest.raises(ConfigError, match="clip_headroom"):
        ila_learn(loop, BasisSpec("memoryless", 5), iterations=1, block_size=2000,
                  clip_headroom=headroom)


def test_ila_model_predistorts_toward_inverse():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    loop = PlantLoop(plant, rms=0.25, seed=6)
    model, _ = ila_learn(loop, BasisSpec("memoryless", 7), iterations=3, block_size=4000)
    probe = random_signal(4000, rms=0.25, seed=7)
    x = predistort(model, probe)
    from pwdpd.plant import array_forward, observation_receive
    per = array_forward(plant, x)
    z = observation_receive(plant, per)
    from pwdpd.dpd import estimate_gain, error_signal
    g = estimate_gain(probe, z)
    res = np.mean(np.abs(error_signal(z, probe, g).samples) ** 2) / (abs(g) ** 2 * probe.power)
    assert 10 * np.log10(res) < -38


def test_regularized_lstsq_on_array8_deep_region_blocks():
    # one ILA fit of the array8-deep preset: the gain-normalized plant output
    # of an OFDM block, mapped onto the shipped Taylor partition the way
    # ila_learn maps it; region 0 holds the low-amplitude samples, where the
    # high-order columns are tiny and the 116-column block is ill-conditioned.
    # Without the refinement step region 1 misses the bound (2.3e-6 here).
    from pwdpd.dpd import estimate_gain
    from pwdpd.plant import array_forward, observation_receive
    from pwdpd.presets import load_plant_preset, preset_params
    from pwdpd.scenarios import SimulatedLoop, derive_partition, partition_seed, training_seed

    plant, params = load_plant_preset("array8-deep"), preset_params("array8-deep")
    part, _ = derive_partition(plant, params, partition_seed(7))
    loop = SimulatedLoop(plant, params, training_seed(7, 1))
    a1 = loop.next_block(20000)
    z = observation_receive(plant, array_forward(plant, a1))  # noise-free
    y = z.samples / estimate_gain(a1, z)
    scale = np.max(np.abs(y)) / part.a_max
    spec = BasisSpec("full_dual_input", 9, 3, partition=RegionPartition(part.edges * scale))
    blocks = list(basis_mod.region_blocks(spec, y, chunk=y.size))
    assert [k for k, _, _ in blocks] == [0, 1, 2]
    assert np.linalg.cond(blocks[0][2]) > 1e8

    for k, rows, psi in blocks:
        assert psi.shape[1] == 116 and rows.size >= 10 * 116
        target = a1.samples[rows]
        got = regularized_lstsq(psi, target)
        cols = psi.shape[1]
        lam = COVARIANCE_LOADING * np.sum(np.abs(psi) ** 2) / cols
        aug = np.vstack([psi, np.sqrt(lam) * np.eye(cols)])
        oracle = np.linalg.lstsq(aug, np.concatenate([target, np.zeros(cols)]), rcond=None)[0]
        assert np.max(np.abs(got - oracle)) <= 1e-6 * np.max(np.abs(oracle)), k


def test_postinverse_fit_all_zero_block_is_degenerate():
    # a regressor with no power leaves region 0 with an all-zero system
    spec = BasisSpec("memoryless", 5, partition=RegionPartition([0.0, 0.5, 1.0]))
    target = random_signal(400, seed=8).samples
    with pytest.raises(DegenerateRegionError) as info:
        _postinverse_fit(spec, np.zeros(400, dtype=np.complex128), target)
    assert info.value.region == 0
