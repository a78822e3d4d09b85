import json
import math
import warnings

import numpy as np
import pytest

from pwdpd.errors import ConfigError
from pwdpd.metrics import beam_pattern
from pwdpd.plant import (ArrayPlant, PaModel, _soft_limit, array_forward, load_plant,
                         observation_receive, save_plant, steer)
from pwdpd.signals import IqSignal

from conftest import identity_coupling, random_signal, single_element_plant


def test_linear_pa_exact():
    # at 30 degrees the second element's weight is exp(-j pi / 2) = -j
    pa = PaModel("memory_poly", {(1, 0): 2.5 - 0.5j})
    plant = ArrayPlant((pa,) * 2, identity_coupling(2), np.ones((2, 1), dtype=complex),
                       steer_angle_deg=30.0)
    sig = random_signal(256, seed=1)
    out = array_forward(plant, sig)[1]
    np.testing.assert_allclose(out.samples, (2.5 - 0.5j) * -1j * sig.samples, rtol=1e-14)


def test_memoryless_hand_value():
    plant = single_element_plant({(1, 0): 1.0, (3, 0): -0.1})
    sig = IqSignal(np.array([0.5], dtype=complex), 1.0)
    out = array_forward(plant, sig)[0]
    assert out.samples[0] == pytest.approx(0.5 - 0.1 * 0.5 * 0.25, abs=1e-15)


def test_memory_tap_hand_convolution():
    plant = single_element_plant({(1, 0): 1.0, (1, 1): 0.2}, kind="memory_poly")
    out = array_forward(plant, IqSignal(np.array([1.0, 1.0], dtype=complex), 1.0))[0]
    np.testing.assert_allclose(out.samples, [1.0, 1.2], rtol=1e-14)


_BAD_TABLES = {
    "even-order": {(1, 0): 1.0, (2, 0): 0.1},
    "order-0": {(0, 0): 0.1},
    "negative-order": {(-1, 0): 0.1},
    "negative-tap": {(3, -1): 0.1},
    "one-int-key": {(3,): 0.1},
    "three-int-key": {(3, 0, 1): 0.1},
    "bare-tap-key": {1: 0.1},
    "float-order-key": {(1, 0): 1.0, (3.5, 1): 0.1},
    "bool-order-key": {(True, 0): 0.1},
    "float-tap-key": {(1, 1.0): 0.1},
    "table-not-a-dict": [0.1],
    "empty-table": {},
}


@pytest.mark.parametrize("table", list(_BAD_TABLES.values()), ids=list(_BAD_TABLES))
def test_table_key_validation(table):
    """Every table of every kind has a row and is keyed by (order, tap): two
    ints, an odd order >= 1 and a tap >= 0."""
    with pytest.raises(ConfigError, match="'table'"):
        PaModel("memory_poly", {"table": table})
    with pytest.raises(ConfigError, match="'aux'"):
        PaModel("doherty_like", {"main": {(1, 0): 1.0}, "aux": table})


def test_removed_pa_kinds_and_tables_refused():
    """memoryless_poly is a memory_poly table with tap 0 only, and the
    dual-input kind and its tables are gone: each is refused by name."""
    for kind in ("memoryless_poly", "dual_input_lumped"):
        with pytest.raises(ConfigError, match=f"unknown PA kind {kind!r}"):
            PaModel(kind, {(1, 0): 1.0})
    for table in ("alpha", "beta", "zeta"):
        with pytest.raises(ConfigError, match=table):
            PaModel("memory_poly", {"table": {(1, 0): 1.0}, table: {(1, 0): 0.1}})


@pytest.mark.parametrize("name", ["beta0", "gamma"], ids=["beta0-table", "unknown-table"])
def test_dual_input_table_validation(name):
    """A table name no kind takes, such as the beta0 table of the removed
    dual-input kind, is refused by name."""
    with pytest.raises(ConfigError, match=name):
        PaModel("memory_poly", {"table": {(1, 0): 1.0}, name: {(1, 0): 0.1}})


def test_shipped_plants_run_every_pa_kind():
    """The PA kinds of the shipped plant presets are exactly the kinds the
    plant knows, so a kind no preset runs fails here."""
    from pwdpd.plant import _KIND_FIELDS
    from pwdpd.presets import PLANT_PRESETS, load_plant_preset
    kinds = {pa.kind for name in PLANT_PRESETS for pa in load_plant_preset(name).elements}
    assert kinds == set(_KIND_FIELDS)


def test_coupling_diagonal_not_read():
    """drive_signal reads only the pairs l != i of the coupling, so zeroing
    array8-deep's coupling diagonal leaves array_forward bit-identical."""
    from dataclasses import replace

    from pwdpd.presets import load_plant_preset

    plant = load_plant_preset("array8-deep")
    diagonal = range(plant.n_elements)
    coupling = plant.coupling.copy()
    assert plant.coupling_strength > 0 and np.any(coupling[diagonal, diagonal])
    coupling[diagonal, diagonal] = 0
    sig = random_signal(512, rms=0.4, seed=8)
    for ours, zeroed in zip(array_forward(plant, sig),
                            array_forward(replace(plant, coupling=coupling), sig)):
        np.testing.assert_array_equal(ours.samples, zeroed.samples)


def test_array_forward_coherent_combining():
    """The main-beam observation adds the element outputs in phase."""
    n = 4
    pa = PaModel("memory_poly", {(1, 0): 3.0 + 0j})
    plant = ArrayPlant((pa,) * n, identity_coupling(n), np.ones((n, 1), dtype=complex),
                       steer_angle_deg=-35.0)
    sig = random_signal(128, seed=2)
    z = observation_receive(plant, array_forward(plant, sig))
    np.testing.assert_allclose(z.samples, n * 3.0 * sig.samples, rtol=1e-12)


def test_array_forward_zero_gain_element():
    live = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.1})
    dead = PaModel("memory_poly", {(1, 0): 0.0})
    plant = ArrayPlant((live, dead), identity_coupling(2), np.ones((2, 1), dtype=complex))
    sig = random_signal(64, seed=3)
    per = array_forward(plant, sig)
    assert not np.any(per[1].samples)
    z = observation_receive(plant, per)
    np.testing.assert_allclose(z.samples, per[0].samples, atol=1e-15)


def test_array_forward_third_order_symbolic():
    # non-unit gains h weight the element outputs, so the sum is formed here
    alphas = [-0.1 + 0.02j, -0.15 - 0.01j]
    pas = tuple(PaModel("memory_poly", {(1, 0): 1.0, (3, 0): a}) for a in alphas)
    plant = ArrayPlant(pas, identity_coupling(2), np.ones((2, 1), dtype=complex),
                       steer_angle_deg=40.0)
    w = plant.weights
    h = np.conj(w) * np.array([0.9, 1.2])
    sig = random_signal(64, seed=4)
    combined = sum(h_i * b.samples for h_i, b in zip(h, array_forward(plant, sig)))
    a = sig.samples
    expected = sum(h[i] * (w[i] * a + alphas[i] * w[i] * abs(w[i]) ** 2 * a * np.abs(a) ** 2)
                   for i in range(2))
    np.testing.assert_allclose(combined, expected, rtol=1e-12)


def test_observation_trivial_and_beam_pattern_equivalence():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.2})
    plant = ArrayPlant((pa,) * 3, identity_coupling(3), np.ones((3, 1), dtype=complex))
    sig = random_signal(200, seed=6)
    per = array_forward(plant, sig)
    z = observation_receive(plant, per)
    np.testing.assert_allclose(z.samples, sum(p.samples for p in per), atol=1e-15)

    # the two main-beam combiners agree: beam_pattern at the steering angle and
    # a one-angle sweep of the noise-free observation (one element at 0 degrees)
    n, angle, channel_bw = 8, 25.0, 0.2
    rng = np.random.default_rng(24)
    coupling = identity_coupling(n, taps=2)
    off = ~np.eye(n, dtype=bool)
    coupling[off] = 0.05 * (rng.standard_normal((n * (n - 1), 2))
                            + 1j * rng.standard_normal((n * (n - 1), 2)))
    pas = tuple(PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.2 + 0.03j * i, (3, 1): 0.02})
                for i in range(n))
    steered = steer(ArrayPlant(pas, coupling, np.ones((n, 1), dtype=complex),
                               coupling_strength=0.3), angle)
    per = array_forward(steered, random_signal(16384, rms=0.5, seed=25))
    beam = beam_pattern(per, [angle], channel_bw)
    main = beam_pattern([observation_receive(steered, per)], [0.0], channel_bw)
    np.testing.assert_allclose(beam, main, rtol=1e-9)


def test_observation_noise_floor_level():
    pa = PaModel("memory_poly", {(1, 0): 1.0})
    plant = ArrayPlant((pa,), identity_coupling(1), np.ones((1, 1), dtype=complex))
    sig = random_signal(200000, seed=9)
    per = array_forward(plant, sig)
    clean = observation_receive(plant, per)
    noisy = observation_receive(plant, per, noise_floor_dbc=-54.0,
                                rng=np.random.default_rng(12))
    snr = 10 * np.log10(clean.power / np.mean(np.abs(noisy.samples - clean.samples) ** 2))
    assert snr == pytest.approx(54.0, abs=0.5)


def test_observation_noise_floor_needs_rng():
    """Receiver noise is drawn only from the stream the caller hands in: a
    noise floor without an rng is refused, not drawn from a fixed seed."""
    pa = PaModel("memory_poly", {(1, 0): 1.0})
    plant = ArrayPlant((pa,), identity_coupling(1), np.ones((1, 1), dtype=complex))
    per = array_forward(plant, random_signal(64, seed=9))
    with pytest.raises(ConfigError, match="rng"):
        observation_receive(plant, per, noise_floor_dbc=-54.0)


def test_steer_geometry():
    """The weights are the half-wavelength ULA phases of the steering angle, and
    an angle beyond +-90 degrees is refused by the constructor and steer alike."""
    pa = PaModel("memory_poly", {(1, 0): 1.0})
    plant = ArrayPlant((pa,) * 4, identity_coupling(4), np.ones((4, 1), dtype=complex))
    flat = steer(plant, 0.0)
    np.testing.assert_allclose(flat.weights, np.ones(4))
    plus = steer(plant, 30.0)
    minus = steer(plant, -30.0)
    np.testing.assert_allclose(plus.weights, np.conj(minus.weights), rtol=1e-12)
    np.testing.assert_allclose(plus.weights, [1, -1j, -1, 1j], atol=1e-15)
    for angle in (91.0, -120.0):
        with pytest.raises(ConfigError, match="'steer_angle_deg'"):
            steer(plant, angle)
        with pytest.raises(ConfigError, match="'steer_angle_deg'"):
            ArrayPlant(plant.elements, plant.coupling, plant.branch_filters,
                       steer_angle_deg=angle)
    with pytest.raises(ConfigError, match="nan"):
        steer(plant, np.nan)


def test_zero_coupling_angle_invariance():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.2 + 0.05j, (3, 1): 0.02})
    plant = ArrayPlant((pa,) * 4, identity_coupling(4), np.ones((4, 1), dtype=complex),
                       coupling_strength=0.0)
    sig = random_signal(256, seed=10)

    def main_beam(angle):
        steered = steer(plant, angle)
        return observation_receive(steered, array_forward(steered, sig)).samples

    ref = main_beam(0.0)
    for angle in (15.0, -40.0, 60.0):
        np.testing.assert_allclose(main_beam(angle), ref, rtol=1e-12)


def test_linearity_superposition():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (1, 1): 0.3 - 0.2j})
    plant = ArrayPlant((pa,) * 3, identity_coupling(3), np.ones((3, 1), dtype=complex),
                       steer_angle_deg=20.0)
    x = random_signal(300, seed=11)
    y = random_signal(300, seed=12)
    both = x.with_samples(x.samples + y.samples)
    for fx, fy, fxy in zip(*(array_forward(plant, s) for s in (x, y, both))):
        np.testing.assert_allclose(fxy.samples, fx.samples + fy.samples, rtol=1e-12, atol=1e-14)


def test_saturation_bounds_output():
    pa = PaModel("memory_poly", {(1, 0): 1.0, (3, 0): -0.3, (3, 1): 0.05j},
                 saturation_level=0.8)
    plant = ArrayPlant((pa,), identity_coupling(1), np.ones((1, 1), dtype=complex))
    huge = random_signal(500, rms=50.0, seed=13)
    out = array_forward(plant, huge)[0]
    ceiling = pa.output_ceiling()
    assert np.max(np.abs(out.samples)) <= ceiling + 1e-12
    with pytest.raises(ConfigError):
        PaModel("memory_poly", {(1, 0): 1.0}).output_ceiling()  # needs finite sat


def test_pa_validation():
    with pytest.raises(ConfigError):
        PaModel("memory_poly", {(2, 0): 1.0})
    with pytest.raises(ConfigError):
        PaModel("memory_poly", {(1, 0): 1.0}, saturation_level=0.0)
    with pytest.raises(ConfigError):
        PaModel("unknown", {})
    with pytest.raises(ConfigError):
        PaModel("doherty_like", {"main": {(1, 0): 1.0}})  # no aux branch
    with pytest.raises(ConfigError):
        PaModel("doherty_like", {"main": {(1, 0): 1.0}, "aux": {(1, 0): 1.0}, "crossing": 0.4})
    branches = {"main": {(1, 0): 1.0}, "aux": {(1, 0): 1.0}}
    for crossover in (-0.1, np.inf, np.nan, None, "0.5", True):
        with pytest.raises(ConfigError, match="'crossover' must be a finite number >= 0"):
            PaModel("doherty_like", dict(branches, crossover=crossover))
    for blend_width in (0, 0.0, -0.1, np.inf, np.nan, None, "0.1"):
        with pytest.raises(ConfigError, match="'blend_width' must be a finite number > 0"):
            PaModel("doherty_like", dict(branches, blend_width=blend_width))
    PaModel("doherty_like", dict(branches, crossover=0, blend_width=1))


def _two_kind_plant():
    # keys out of order: the file lists each table's rows sorted
    memory = PaModel("memory_poly", {(3, 1): -0.2 + 0.05j, (1, 0): 1.0 + 0j, (5, 0): 0.03j,
                                     (1, 2): 0.01 - 0.02j}, saturation_level=1.2)
    doherty = PaModel("doherty_like", {"main": {(3, 0): -0.05 + 0.02j, (1, 0): 1.0},
                                       "aux": {(1, 1): 0.03j, (1, 0): 1.2, (3, 0): -0.3},
                                       "crossover": 0.45, "blend_width": 0.08})
    coupling = identity_coupling(2, taps=2)
    coupling[0, 1, 1] = 0.3
    return ArrayPlant((memory, doherty), coupling, np.ones((2, 1), dtype=complex),
                      coupling_strength=0.5, steer_angle_deg=12.0)


def test_plant_json_roundtrip(tmp_path):
    """save_plant writes every shipped preset byte for byte, and a plant read
    back writes the same bytes again and computes what the original does."""
    from importlib import resources

    from pwdpd.presets import PLANT_PRESETS, load_plant_preset
    plants = {name: load_plant_preset(name) for name in PLANT_PRESETS}
    plants["two-kind"] = _two_kind_plant()
    sig = random_signal(128, rms=0.4, seed=14)
    for name, plant in plants.items():
        save_plant(plant, tmp_path / "p.json")
        if name in PLANT_PRESETS:
            shipped = resources.files("pwdpd").joinpath(f"presets/plants/{name}.json")
            assert (tmp_path / "p.json").read_bytes() == shipped.read_bytes(), name
        for element in json.loads((tmp_path / "p.json").read_text())["elements"]:
            tables = [v for v in element["coefficients"].values() if isinstance(v, list)]
            assert all(rows == sorted(rows) for rows in tables), name
        back = load_plant(tmp_path / "p.json")
        save_plant(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "p.json").read_bytes(), name
        assert back.coupling_strength == plant.coupling_strength
        np.testing.assert_array_equal(back.weights, plant.weights)
        np.testing.assert_array_equal(back.coupling, plant.coupling)
        # a table read back is in sorted order, so its taps sum in another order
        for a, b in zip(array_forward(plant, sig), array_forward(back, sig)):
            np.testing.assert_allclose(a.samples, b.samples, rtol=1e-12)


def test_coupled_drive_against_per_pair_oracle():
    # the coupled drive comes from one composite FIR per element; the oracle
    # filters each neighbor's wave pair by pair
    rng = np.random.default_rng(15)
    n, taps = 4, 3
    coupling = identity_coupling(n, taps)
    off = ~np.eye(n, dtype=bool)
    coupling[off] = 0.1 * (rng.standard_normal((n * (n - 1), taps))
                           + 1j * rng.standard_normal((n * (n - 1), taps)))
    coupling[0, 2] = 0.0  # an uncoupled pair
    branch = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    pa = PaModel("memory_poly", {(1, 0): 1.0})
    plant = steer(ArrayPlant((pa,) * n, coupling, branch, coupling_strength=0.3), 25.0)
    a1 = random_signal(256, seed=16).samples
    w, scale = plant.weights, 0.3 * plant.angle_factor
    for i in range(n):
        expected = w[i] * a1
        for l in range(n):
            if l != i:
                mu = np.convolve(a1, branch[l])[:a1.size]
                expected = expected + scale * w[l] * np.convolve(mu, coupling[i, l])[:a1.size]
        np.testing.assert_allclose(plant.drive_signal(a1, i), expected, rtol=1e-12, atol=1e-15)


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
            outs.append(poly(pa.coefficients["table"]))
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
    plant = steer(ArrayPlant(pas, coupling, branch, coupling_strength=coupling_strength), 20.0)
    sig = random_signal(3000, rms=0.6, seed=22)
    per = array_forward(plant, sig)
    expected = _oracle_simple_forward(plant, sig.samples)
    for got, want in zip(per, expected):
        np.testing.assert_allclose(got.samples, want, rtol=1e-12)
    main_beam = sum(np.conj(w) * b for w, b in zip(plant.weights, expected))
    np.testing.assert_allclose(observation_receive(plant, per).samples, main_beam, rtol=1e-12)
