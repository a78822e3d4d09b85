import math
import warnings

import numpy as np
import pytest

from pwdpd.errors import ConfigError
from pwdpd.plant import (ArrayPlant, PaModel, _soft_limit, array_forward, load_plant,
                         observation_receive, save_plant, steer)
from pwdpd.signals import IqSignal

from conftest import identity_coupling, random_signal, single_element_plant


def test_linear_pa_exact():
    plant = single_element_plant({(1, 0): 2.5 - 0.5j})
    plant = ArrayPlant(plant.elements, np.array([np.exp(0.7j)]), plant.coupling,
                       plant.branch_filters, plant.channel)
    sig = random_signal(256, seed=1)
    out = array_forward(plant, sig)[0][0]
    np.testing.assert_allclose(out.samples, (2.5 - 0.5j) * np.exp(0.7j) * sig.samples, rtol=1e-14)


def test_memoryless_hand_value():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    sig = IqSignal(np.array([0.5], dtype=complex), 1.0)
    out = array_forward(plant, sig)[0][0]
    assert out.samples[0] == pytest.approx(0.5 - 0.1 * 0.5 * 0.25, abs=1e-15)


def test_memory_tap_hand_convolution():
    plant = single_element_plant({(1, 0): 1.0, (1, 1): 0.2}, kind="memory_poly")
    out = array_forward(plant, IqSignal(np.array([1.0, 1.0], dtype=complex), 1.0))[0][0]
    np.testing.assert_allclose(out.samples, [1.0, 1.2], rtol=1e-14)


def _oracle_dual_input(pa, w, f, a):
    """Naive per-sample evaluation of the four-term dual-wave model."""
    n = a.size
    fc = np.convolve(a, f)[:n]
    out = np.zeros(n, dtype=complex)

    def lag(arr, m, i):
        return arr[i - m] if i - m >= 0 else 0.0

    for i in range(n):
        acc = 0.0 + 0.0j
        for (order, m1), coef in pa.coefficients["alpha"].items():
            p = (order - 1) // 2
            x = lag(a, m1, i)
            acc += coef * w * abs(w) ** (2 * p) * x * abs(x) ** (2 * p)
        for m2, coef in pa.coefficients["beta0"].items():
            acc += coef * lag(fc, m2, i)
        for (order, m3, m4), coef in pa.coefficients["beta"].items():
            p = (order - 1) // 2
            acc += coef * abs(w) ** (2 * p) * lag(fc, m3, i) * abs(lag(a, m4, i)) ** (2 * p)
        for (order, m5, m6), coef in pa.coefficients["zeta"].items():
            p = (order - 1) // 2
            x6 = lag(a, m6, i)
            acc += (coef * w ** 2 * abs(w) ** (p - 1)
                    * np.conj(lag(fc, m5, i)) * x6 ** 2 * abs(x6) ** (2 * (p - 1)))
        out[i] = acc
    return out


def test_dual_input_against_scalar_oracle():
    rng = np.random.default_rng(8)
    tables = {
        "alpha": {(1, 0): 1.0 + 0j, (3, 1): -0.2 + 0.05j, (5, 0): 0.03j},
        "beta0": {0: 0.1 - 0.02j, 2: 0.01j},
        "beta": {(3, 0, 1): 0.05 + 0.01j, (5, 1, 0): -0.008},
        "zeta": {(3, 0, 1): 0.02 - 0.01j, (5, 2, 0): 0.004j},
    }
    pa = PaModel("dual_input_lumped", tables)
    w = np.exp(0.4j) * np.array([1.0, 1.0])
    coupling = identity_coupling(2, taps=2)
    coupling[0, 1, 0] = 0.3
    coupling[1, 0, 1] = 0.2j
    branch = np.zeros((2, 2), dtype=complex)
    branch[:, 0] = 1.0
    branch[:, 1] = 0.1
    plant = ArrayPlant((pa, pa), w, coupling, branch, np.conj(w), coupling_strength=0.5)
    sig = random_signal(64, rms=0.4, seed=5)
    for element in (0, 1):
        got = array_forward(plant, sig)[0][element]
        f = plant.branch_response(element)
        expected = _oracle_dual_input(pa, w[element], f, sig.samples)
        np.testing.assert_allclose(got.samples, expected, rtol=1e-10, atol=1e-14)


def test_array_forward_coherent_combining():
    n = 4
    pa = PaModel("memoryless_poly", {(1, 0): 3.0 + 0j})
    w = np.exp(1j * np.array([0.1, -0.5, 1.2, 2.0]))
    plant = ArrayPlant((pa,) * n, w, identity_coupling(n), np.ones((n, 1), dtype=complex),
                       np.conj(w))
    sig = random_signal(128, seed=2)
    _, combined = array_forward(plant, sig)
    np.testing.assert_allclose(combined.samples, n * 3.0 * sig.samples, rtol=1e-12)


def test_array_forward_zero_gain_element():
    live = PaModel("memoryless_poly", {(1, 0): 1.0, (3, 0): -0.1})
    dead = PaModel("memoryless_poly", {(1, 0): 0.0})
    plant = ArrayPlant((live, dead), np.ones(2, dtype=complex), identity_coupling(2),
                       np.ones((2, 1), dtype=complex), np.ones(2, dtype=complex))
    sig = random_signal(64, seed=3)
    per, combined = array_forward(plant, sig)
    np.testing.assert_allclose(combined.samples, per[0].samples, atol=1e-15)


def test_array_forward_third_order_symbolic():
    alphas = [-0.1 + 0.02j, -0.15 - 0.01j]
    pas = tuple(PaModel("memoryless_poly", {(1, 0): 1.0, (3, 0): a}) for a in alphas)
    w = np.exp(1j * np.array([0.3, -1.1]))
    h = np.conj(w) * np.array([0.9, 1.2])
    plant = ArrayPlant(pas, w, identity_coupling(2), np.ones((2, 1), dtype=complex), h)
    sig = random_signal(64, seed=4)
    _, combined = array_forward(plant, sig)
    a = sig.samples
    expected = sum(h[i] * (w[i] * a + alphas[i] * w[i] * abs(w[i]) ** 2 * a * np.abs(a) ** 2)
                   for i in range(2))
    np.testing.assert_allclose(combined.samples, expected, rtol=1e-12)


def test_observation_trivial_and_los_equivalence():
    pa = PaModel("memoryless_poly", {(1, 0): 1.0, (3, 0): -0.2})
    w = np.ones(3, dtype=complex)
    plant = ArrayPlant((pa,) * 3, w, identity_coupling(3), np.ones((3, 1), dtype=complex),
                       np.conj(w))
    sig = random_signal(200, seed=6)
    per, combined = array_forward(plant, sig)
    z = observation_receive(plant, per)
    np.testing.assert_allclose(z.samples, sum(p.samples for p in per), atol=1e-15)

    # pure LOS with unit |h|: the aligned sum equals the OTA combination
    steered = steer(plant, 25.0)
    per2, combined2 = array_forward(steered, sig)
    z2 = observation_receive(steered, per2)
    np.testing.assert_allclose(z2.samples, combined2.samples, rtol=1e-12)


def test_observation_noise_floor_level():
    pa = PaModel("memoryless_poly", {(1, 0): 1.0})
    plant = ArrayPlant((pa,), np.ones(1, dtype=complex), identity_coupling(1),
                       np.ones((1, 1), dtype=complex), np.ones(1, dtype=complex))
    sig = random_signal(200000, seed=9)
    per, _ = array_forward(plant, sig)
    clean = observation_receive(plant, per)
    noisy = observation_receive(plant, per, noise_floor_dbc=-54.0,
                                rng=np.random.default_rng(12))
    snr = 10 * np.log10(clean.power / np.mean(np.abs(noisy.samples - clean.samples) ** 2))
    assert snr == pytest.approx(54.0, abs=0.5)


def test_steer_geometry():
    pa = PaModel("memoryless_poly", {(1, 0): 1.0})
    plant = ArrayPlant((pa,) * 4, np.ones(4, dtype=complex), identity_coupling(4),
                       np.ones((4, 1), dtype=complex), np.ones(4, dtype=complex))
    flat = steer(plant, 0.0)
    np.testing.assert_allclose(flat.weights, np.ones(4))
    plus = steer(plant, 30.0)
    minus = steer(plant, -30.0)
    np.testing.assert_allclose(plus.weights, np.conj(minus.weights), rtol=1e-12)
    with pytest.raises(ConfigError):
        steer(plant, 91.0)


def test_zero_coupling_angle_invariance():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.2 + 0.05j, (3, 1): 0.02})
    plant = ArrayPlant((pa,) * 4, np.ones(4, dtype=complex), identity_coupling(4),
                       np.ones((4, 1), dtype=complex), np.ones(4, dtype=complex),
                       coupling_strength=0.0)
    sig = random_signal(256, seed=10)
    _, ref = array_forward(steer(plant, 0.0), sig)
    for angle in (15.0, -40.0, 60.0):
        _, out = array_forward(steer(plant, angle), sig)
        np.testing.assert_allclose(out.samples, ref.samples, rtol=1e-12)


def test_linearity_superposition():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (1, 1): 0.3 - 0.2j})
    plant = ArrayPlant((pa,) * 3, np.exp(1j * np.arange(3)), identity_coupling(3),
                       np.ones((3, 1), dtype=complex), np.ones(3, dtype=complex))
    x = random_signal(300, seed=11)
    y = random_signal(300, seed=12)
    _, fx = array_forward(plant, x)
    _, fy = array_forward(plant, y)
    both = x.with_samples(x.samples + y.samples)
    _, fxy = array_forward(plant, both)
    np.testing.assert_allclose(fxy.samples, fx.samples + fy.samples, rtol=1e-12, atol=1e-14)


def test_saturation_bounds_output():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.3, (3, 1): 0.05j},
                 saturation_level=0.8)
    plant = ArrayPlant((pa,), np.ones(1, dtype=complex), identity_coupling(1),
                       np.ones((1, 1), dtype=complex), np.ones(1, dtype=complex))
    huge = random_signal(500, rms=50.0, seed=13)
    out = array_forward(plant, huge)[0][0]
    ceiling = pa.output_ceiling()
    assert np.max(np.abs(out.samples)) <= ceiling + 1e-12
    with pytest.raises(ConfigError):
        PaModel("memoryless_poly", {(1, 0): 1.0}).output_ceiling()  # needs finite sat


def test_pa_validation():
    with pytest.raises(ConfigError):
        PaModel("memoryless_poly", {(2, 0): 1.0})
    with pytest.raises(ConfigError):
        PaModel("memoryless_poly", {(1, 0): 1.0}, saturation_level=0.0)
    with pytest.raises(ConfigError):
        PaModel("unknown", {})


def test_plant_json_roundtrip(tmp_path):
    from pwdpd.presets import load_plant_preset
    for plant in (load_plant_preset("array8-deep"), load_plant_preset("doherty-n3")):
        save_plant(plant, tmp_path / "p.json")
        back = load_plant(tmp_path / "p.json")
        np.testing.assert_allclose(back.weights, plant.weights)
        np.testing.assert_allclose(back.coupling, plant.coupling)
        assert back.coupling_strength == plant.coupling_strength
        sig = random_signal(128, rms=0.4, seed=14)
        _, a = array_forward(plant, sig)
        _, b = array_forward(back, sig)
        np.testing.assert_allclose(a.samples, b.samples, rtol=1e-12)


def test_coupled_drive_against_per_pair_oracle():
    # the coupled drive and branch_response come from one composite FIR per
    # element; the oracle filters each neighbor's wave pair by pair
    rng = np.random.default_rng(15)
    n, taps = 4, 3
    coupling = identity_coupling(n, taps)
    off = ~np.eye(n, dtype=bool)
    coupling[off] = 0.1 * (rng.standard_normal((n * (n - 1), taps))
                           + 1j * rng.standard_normal((n * (n - 1), taps)))
    coupling[0, 2] = 0.0  # an uncoupled pair
    branch = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    pa = PaModel("memoryless_poly", {(1, 0): 1.0})
    plant = steer(ArrayPlant((pa,) * n, np.ones(n, dtype=complex), coupling, branch,
                             np.ones(n, dtype=complex), coupling_strength=0.3), 25.0)
    a1 = random_signal(256, seed=16).samples
    w, scale = plant.weights, 0.3 * plant.angle_factor
    for i in range(n):
        expected = w[i] * a1
        f = w[i] * np.convolve(coupling[i, i], branch[i])
        for l in range(n):
            if l != i:
                mu = np.convolve(a1, branch[l])[:a1.size]
                expected = expected + scale * w[l] * np.convolve(mu, coupling[i, l])[:a1.size]
                f = f + w[l] * np.convolve(scale * coupling[i, l], branch[l])
        np.testing.assert_allclose(plant.drive_signal(a1, i), expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(plant.branch_response(i), f, rtol=1e-12, atol=1e-15)


def test_soft_limit_bounded_and_monotone_without_overflow():
    # (|x|/sat)^4 overflows past |x|/sat ~ 1e77 when formed directly, which
    # would zero the output. Where the curve is flat (|x|/sat beyond ~1e4)
    # its exact value is sat to within eps/4, so each sample's own rounding
    # of x / |x| moves |out| by an ulp or two either way: monotone is checked
    # strictly where the curve still rises and to that rounding above.
    eps = np.finfo(float).eps
    r = np.logspace(-3, 300, 3031)
    for sat in (1.0, 1.15, 0.37):
        for phase in (0.0, 0.3, 2.0):
            x = r * sat * np.exp(1j * phase)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mag = np.abs(_soft_limit(x, sat))
            assert np.all(mag <= sat * (1 + 4 * eps))
            assert mag[-1] >= sat * (1 - 4 * eps)
            step = np.diff(mag)
            assert np.all(step[r[1:] <= 100] > 0)
            assert np.all(step >= -4 * eps * sat)
            rising = r <= 1e3
            np.testing.assert_allclose(mag[rising], sat * r[rising] / (1 + r[rising] ** 4) ** 0.25,
                                       rtol=1e-15)


def _oracle_simple_forward(plant, a1):
    """Per-element outputs of the memory-polynomial and Doherty kinds, term by
    term with np.convolve and pow, straight from the module docstring."""
    n = a1.size
    scale = plant.coupling_strength * plant.angle_factor
    outs = []
    for i, pa in enumerate(plant.elements):
        u = plant.weights[i] * a1
        for l in range(plant.n_elements):
            if l != i:
                mu = np.convolve(a1, plant.branch_filters[l])[:n]
                u = u + scale * plant.weights[l] * np.convolve(mu, plant.coupling[i, l])[:n]
        sat = pa.saturation_level
        if math.isfinite(sat):
            u = u / (1 + (np.abs(u) / sat) ** 4) ** 0.25

        def poly(table):
            out = np.zeros(n, dtype=complex)
            for (order, tap), coef in table.items():
                um = np.concatenate([np.zeros(tap), u[:n - tap]])
                out += coef * um * np.abs(um) ** (order - 1)
            return out

        if pa.kind == "doherty_like":
            c = pa.coefficients
            level = sat if math.isfinite(sat) else 1.0
            blend = 0.5 * (1 + np.tanh((np.abs(u) - c["crossover"] * level)
                                       / (c["blend_width"] * level)))
            outs.append((1 - blend) * poly(c["main"]) + blend * poly(c["aux"]))
        else:
            outs.append(poly(pa.coefficients))
    return outs


_MEMORY_TABLE = {(1, 0): 1.0 + 0j, (1, 1): 0.03 + 0.04j, (1, 2): -0.005 - 0.01j,
                 (3, 0): -0.44 + 0.12j, (3, 1): -0.006 + 0.018j, (3, 2): 0.004j,
                 (5, 0): 0.13 - 0.05j, (5, 1): 0.01, (7, 0): -0.018 + 0.006j}
_DOHERTY = {"main": {(1, 0): 1.0, (1, 1): 0.03 + 0.026j, (3, 0): -0.055 + 0.02j,
                     (5, 0): 0.004 - 0.003j},
            "aux": {(1, 0): 1.22 - 0.05j, (1, 1): 0.03 + 0.026j, (3, 0): -0.32 + 0.07j,
                    (5, 0): 0.045 - 0.02j, (7, 2): 0.003j},
            "crossover": 0.5, "blend_width": 0.07}


@pytest.mark.parametrize("kind", ["memory_poly", "doherty_like"])
@pytest.mark.parametrize("coupling_strength", [0.4, 0.0])
@pytest.mark.parametrize("sat", [1.1, math.inf])
def test_simple_kinds_against_convolve_pow_oracle(kind, coupling_strength, sat):
    rng = np.random.default_rng(21)
    n = 3
    coupling = identity_coupling(n, taps=2)
    off = ~np.eye(n, dtype=bool)
    coupling[off] = 0.1 * (rng.standard_normal((n * (n - 1), 2))
                           + 1j * rng.standard_normal((n * (n - 1), 2)))
    branch = np.ones((n, 2), dtype=complex)
    branch[:, 1] = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    table = _MEMORY_TABLE if kind == "memory_poly" else _DOHERTY
    pas = tuple(PaModel(kind, table, saturation_level=sat) for _ in range(n))
    plant = steer(ArrayPlant(pas, np.ones(n, dtype=complex), coupling, branch,
                             np.ones(n, dtype=complex), coupling_strength=coupling_strength), 20.0)
    sig = random_signal(3000, rms=0.6, seed=22)
    per, combined = array_forward(plant, sig)
    expected = _oracle_simple_forward(plant, sig.samples)
    for got, want in zip(per, expected):
        np.testing.assert_allclose(got.samples, want, rtol=1e-12)
    np.testing.assert_allclose(combined.samples, sum(h * b for h, b in zip(plant.channel, expected)),
                               rtol=1e-12)
