import dataclasses
import json

import numpy as np
import pytest

from pwdpd.errors import ConfigError
from pwdpd import partition
from pwdpd.partition import (DERIVATIVE_GRID, MAX_REGIONS, WIDTH_TOLERANCE, AmAmModel,
                             RegionPartition, fit_amam, kmeans_partition, partition_regions)
from pwdpd.plant import array_forward, observation_receive
from pwdpd.signals import IqSignal

from conftest import random_signal, single_element_plant, traced_peak


def test_region_partition_validation():
    with pytest.raises(ConfigError):
        RegionPartition([0.5, 1.0])  # must start at 0
    with pytest.raises(ConfigError):
        RegionPartition([0.0, 0.4, 0.4])  # strictly increasing
    # a NaN edge passes the ordering check and would send every amplitude to region 0
    for edges in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [np.nan, 1.0]):
        with pytest.raises(ConfigError, match="edges must be finite"):
            RegionPartition(edges)
    with pytest.raises(ConfigError, match="'edges'"):
        RegionPartition.from_dict({"orders": None})  # no edges
    with pytest.raises(ConfigError, match="does not hold a JSON object"):
        RegionPartition.from_dict([{"edges": [0.0, 1.0]}])
    # edges of the wrong JSON type name the field rather than fail in numpy
    for value in ([0, "x", 2], "0 1", [0, True, 2], [0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ConfigError, match="'edges'"):
            RegionPartition.from_dict({"edges": value})


def test_region_index_clamps_top():
    part = RegionPartition([0.0, 0.5, 1.0])
    idx = part.region_index(np.array([0.1, 0.5, 0.99, 1.7]))
    np.testing.assert_array_equal(idx, [0, 1, 1, 1])
    # complex samples fall by their envelope
    samples = np.array([-0.1, 0.5j, 0.99 * np.exp(2j), -1.7j])
    np.testing.assert_array_equal(part.region_index(samples), [0, 1, 1, 1])


def test_partition_json_roundtrip(tmp_path):
    # a partition is its edges
    assert [f.name for f in dataclasses.fields(RegionPartition)] == ["edges"]
    part = RegionPartition([0.0, 0.3, 1.2])
    part.save(tmp_path / "p.json")
    assert json.loads((tmp_path / "p.json").read_text()) == {"edges": [0.0, 0.3, 1.2]}
    np.testing.assert_array_equal(RegionPartition.load(tmp_path / "p.json").edges, part.edges)


def test_fit_amam_linear():
    sig = random_signal(5000, rms=0.5, seed=1)
    z = sig.with_samples(2.0 * sig.samples)
    model = fit_amam(sig, z, fit_order=5)
    assert model.fit_residual < 1e-9
    coeffs = model.coefficients
    assert coeffs[1] == pytest.approx(2.0, abs=1e-6)
    assert np.max(np.abs(np.delete(coeffs, 1))) < 1e-6


def test_fit_amam_known_plant_recovery():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    sig = random_signal(40000, rms=0.5, seed=7)
    per = array_forward(plant, sig)
    z = observation_receive(plant, per)
    model = fit_amam(sig, z, fit_order=5)
    coeffs = model.coefficients
    assert coeffs[1] == pytest.approx(1.0, abs=1e-3)
    assert coeffs[3] == pytest.approx(-0.1, abs=1e-3)


def test_fit_amam_noise_robustness():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    sig = random_signal(60000, rms=0.5, seed=17)
    per = array_forward(plant, sig)
    clean = observation_receive(plant, per)
    ref = fit_amam(sig, clean, fit_order=3).coefficients
    rng = np.random.default_rng(23)
    p_noise = clean.power * 1e-4  # 40 dB SNR
    noisy = clean.with_samples(clean.samples + np.sqrt(p_noise / 2) * (
        rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean))))
    got = fit_amam(sig, noisy, fit_order=3).coefficients
    for idx in (1, 3):
        assert got[idx] == pytest.approx(ref[idx], rel=0.01)


def test_partition_linear_single_region():
    model = AmAmModel.from_coefficients([0.0, 1.0], a_max=1.0)
    part = partition_regions(model, order=2, target_error=0.01)
    assert part.n_regions == 1
    np.testing.assert_allclose(part.edges, [0.0, 1.0])


def test_partition_cubic_closed_form():
    # f = a + 0.1 a^3, Q=2: f''' = 0.6 everywhere, so every region width is
    # (3! * 0.01 / 0.6)^(1/3) = 0.1^(1/3)
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, 0.1], a_max=1.0)
    delta = WIDTH_TOLERANCE * model.a_max
    part = partition_regions(model, order=2, target_error=0.01)
    width = (6 * 0.01 / 0.6) ** (1 / 3)
    assert part.n_regions == 3
    assert part.edges[1] == pytest.approx(width, abs=2 * delta)
    assert part.edges[2] == pytest.approx(2 * width, abs=4 * delta)
    assert part.edges[3] == pytest.approx(1.0)


def test_partition_grid_refinement_stable():
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, -0.2, 0.0, 0.05], a_max=1.0)
    coarse = model.derivative_max(0.1, 0.9, 3)
    fine = float(np.max(np.abs(model.derivative_values(
        np.linspace(0.1, 0.9, 4 * DERIVATIVE_GRID), 3))))
    assert abs(coarse - fine) / fine < 1e-4


def test_partition_monotone_in_target_error():
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, 0.1], a_max=1.0)
    loose = partition_regions(model, 2, 0.01)
    tight = partition_regions(model, 2, 0.004)
    assert tight.edges[1] <= loose.edges[1] + 1e-9
    assert tight.n_regions >= loose.n_regions


def test_partition_monotone_in_order_cubic():
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, 0.1], a_max=1.0)
    q2 = partition_regions(model, 2, 0.01)
    q3 = partition_regions(model, 3, 0.01)  # f'''' = 0: single region
    assert q3.edges[1] >= q2.edges[1] - 1e-9


def test_partition_doherty_width_ordering():
    """On the two-branch PA fit, region widths follow the remainder formula
    (narrower where the fitted high-order derivative is larger), and the
    compression-knee region is narrower than the near-zero region."""
    import math
    from pwdpd.presets import load_plant_preset
    from pwdpd.scenarios import ramp_probe
    from pwdpd.dpd import estimate_gain
    plant = load_plant_preset("doherty-n3")
    probe = ramp_probe(1.1, 1.0)
    per = array_forward(plant, probe)
    z = observation_receive(plant, per)
    g = estimate_gain(probe, z)
    model = fit_amam(probe, z.with_samples(z.samples / g), fit_order=9)
    q = 5
    part = partition_regions(model, q, 0.01)
    assert part.n_regions > 3  # strongly local nonlinearity splits finely
    # width/derivative consistency (all regions except the clipped last one)
    for k in range(part.n_regions - 1):
        u, v = part.edges[k], part.edges[k + 1]
        fmax = model.derivative_max(u, v, q + 1)
        expected = (math.factorial(q + 1) * 0.01 / fmax) ** (1 / (q + 1))
        assert v - u == pytest.approx(expected, rel=1e-2)
    # compression knee (top region) narrower than the region holding a ~ 0
    assert part.widths[-1] < part.widths[0]


def test_partition_validation_errors():
    model = AmAmModel.from_coefficients([0.0, 1.0], a_max=1.0)
    with pytest.raises(ConfigError):
        partition_regions(model, 0, 0.01)
    with pytest.raises(ConfigError):
        partition_regions(model, 2, -1.0)


def test_kmeans_single_region():
    sig = random_signal(500, seed=3)
    part = kmeans_partition(sig, 1)
    np.testing.assert_array_equal(part.edges, [0.0, np.abs(sig.samples).max()])


def test_kmeans_two_cluster_closed_form():
    env = np.concatenate([np.full(400, 0.1), np.full(400, 0.9)])
    sig = IqSignal(env * np.exp(1j * 1.2), 1.0)
    part = kmeans_partition(sig, 2)
    assert part.edges[1] == pytest.approx(0.5, abs=1e-9)


def _oracle_kmeans_1d(values, k, iters=100):
    centroids = np.quantile(values, (np.arange(k) + 0.5) / k)
    for _ in range(iters):
        assign = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        new = centroids.copy()
        for j in range(k):
            members = values[assign == j]
            if members.size:
                new[j] = members.mean()
        new.sort()
        if np.allclose(new, centroids, atol=1e-12):
            return new
        centroids = new
    return centroids


def test_kmeans_rayleigh_centroids_cluster_near_mode():
    rng = np.random.default_rng(5)
    sig = IqSignal((rng.standard_normal(40000) + 1j * rng.standard_normal(40000)) / np.sqrt(2), 1.0)
    part = kmeans_partition(sig, 4)
    centroids = _oracle_kmeans_1d(np.abs(sig.samples), 4)
    mids = 0.5 * (centroids[:-1] + centroids[1:])
    np.testing.assert_allclose(part.edges[1:-1], mids, rtol=1e-6)
    spacing = np.diff(centroids)
    assert spacing[0] < spacing[-1]  # tighter near the mode than near the peak


def test_kmeans_too_many_regions():
    sig = IqSignal(np.array([1.0, 1.0, 2.0], dtype=complex), 1.0)
    with pytest.raises(ConfigError):
        kmeans_partition(sig, 3)


def test_kmeans_collapsed_centroids_name_n_regions():
    """Centroids that end up equal (two of three clusters hold no sample) are
    refused naming K-means and n_regions, not by the edge check of the
    partition they would make."""
    env = np.repeat([0.1, 0.5, 1.0], [1, 1, 98])
    with pytest.raises(ConfigError, match="K-means .* n_regions=3"):
        kmeans_partition(IqSignal(env.astype(complex), 1.0), 3)


def test_kmeans_region_cap():
    """K-means refuses more than MAX_REGIONS regions however many distinct
    amplitudes the signal holds."""
    sig = random_signal(4 * MAX_REGIONS)
    assert kmeans_partition(sig, MAX_REGIONS).n_regions == MAX_REGIONS
    with pytest.raises(ConfigError, match=f"between 1 and {MAX_REGIONS}"):
        kmeans_partition(sig, MAX_REGIONS + 1)


def test_kmeans_assignment_holds_no_distance_matrix():
    """At K = MAX_REGIONS the assignment step allocates a few envelope-sized
    arrays, not a samples x K distance matrix (128 x the samples' bytes)."""
    sig = random_signal(20000, seed=4)
    assert traced_peak(kmeans_partition, sig, MAX_REGIONS) < 8 * sig.samples.nbytes


def test_taylor_region_cap(monkeypatch):
    """The Taylor partitioner refuses to make more than MAX_REGIONS regions."""
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, -0.12], 1.0)
    assert partition_regions(model, 1, 1e-3).n_regions > 2
    monkeypatch.setattr(partition, "MAX_REGIONS", 2)
    with pytest.raises(ConfigError, match="more than 2 regions"):
        partition_regions(model, 1, 1e-3)
