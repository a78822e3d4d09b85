import argparse
import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pwdpd.basis import BasisSpec
from pwdpd.cli import build_parser, finite_float, main, scenario_preset
from pwdpd.complexity import ComplexityParams, reference_params
from pwdpd.errors import ConfigError, DivergenceError, write_csv
from pwdpd.metrics import aclr_single_direction, psd
from pwdpd.partition import MAX_REGIONS, RegionPartition
from pwdpd.plant import load_plant, save_plant, steer
from pwdpd.presets import PLANT_PRESETS, load_plant_preset, preset_params
import pwdpd
from pwdpd.scenarios import (METHODS, evaluation_seed, load_scenario_plant, observe,
                             preset_waveform, training_seed, write_manifest)
from pwdpd.signals import read_iq, write_iq

from conftest import random_signal


def test_generate_writes_bundle(tmp_path, capsys):
    """generate --preset doherty-n3 writes the 8 symbols its config evaluates."""
    stem = tmp_path / "wave"
    assert main(["generate", "--preset", "doherty-n3", "--output", str(stem)]) == 0
    sig = read_iq(stem)
    assert sig.sample_rate == pytest.approx(2048 * 15e3 * 4)
    assert sig.rms == pytest.approx(preset_params("doherty-n3")["drive_rms"])
    grid = np.load(str(stem) + ".grid.npy")
    assert grid.shape == (8, 1272)
    out = capsys.readouterr().out
    assert "RMS 0.52" in out and "PAPR" in out


def test_generate_then_simulate_and_evaluate(tmp_path, capsys):
    """simulate --preset NAME runs the input as given (generate writes the
    preset's drive level) through the config's plant, and its ACLR line is
    the one evaluate --preset NAME prints for no DPD."""
    stem = tmp_path / "w"
    assert main(["generate", "--preset", "array8-deep", "--output", str(stem)]) == 0
    assert main(["simulate", "--preset", "array8-deep", "--input", str(stem),
                 "--output", str(tmp_path / "z")]) == 0
    aclr = capsys.readouterr().out.splitlines()[-1]
    assert len(read_iq(tmp_path / "z")) == len(read_iq(stem))
    assert main(["evaluate", "--preset", "array8-deep", "--output", str(tmp_path / "e.json")]) == 0
    want = json.loads((tmp_path / "e.json").read_text())["aclr_dbc"]
    assert aclr == f"observation ACLR: {want:.2f} dBc"


def test_dotted_stems_keep_their_names(tmp_path, capsys):
    """A stem's files are the stem plus their suffix, a dot in the stem kept:
    generate, simulate, train and evaluate chain on dotted stems, and each file
    lands under the name its command printed."""
    cfg = _json_file(tmp_path / "c.json", dict(_QUICK_TRAIN_CONFIG, eval={"num_symbols": 1}))
    wave, obs, model = (str(tmp_path / name) for name in ("wave.v1", "obs.v1", "m.v1"))
    for argv, written in ((["generate", "--output", wave], f"{wave}.iq"),
                          (["simulate", "--input", wave, "--output", obs], f"{obs}.iq"),
                          (["train", "--output", model], f"{model}.dpd.json")):
        assert main([*argv, "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {written} ")
    assert main(["evaluate", "--config", cfg, "--model", model]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "m.v1.dpd.json", "m.v1.trace.csv", "obs.v1.iq", "obs.v1.iq.json",
        "wave.v1.grid.npy", "wave.v1.iq", "wave.v1.iq.json"]


@pytest.mark.parametrize("plant", PLANT_PRESETS)
def test_generate_writes_the_preset_waveform(tmp_path, plant):
    """generate writes, bit for bit, the samples and grid a config's evaluation
    scores: eval.num_symbols of its plant preset's waveform at the evaluation seed."""
    stem = tmp_path / "w"
    config = {"kind": "linearization", "preset": plant, "seed": 5, "eval": {"num_symbols": 2}}
    assert main(["generate", "--config", _json_file(tmp_path / "c.json", config),
                 "--output", str(stem)]) == 0
    sig, grid, _ = preset_waveform(preset_params(plant), 2, evaluation_seed(5))
    got = read_iq(stem)
    assert got.samples.tobytes() == sig.samples.tobytes()
    assert got.sample_rate == sig.sample_rate
    assert np.load(str(stem) + ".grid.npy").tobytes() == grid.tobytes()


# the numerology and CFR flags generate took before it wrote a preset's
# waveform, and the plant, symbol count and seed it took before it read a
# scenario config
_REMOVED_GENERATE_FLAGS = [("--scs", "120000"), ("--fft", "256"), ("--active", "180"),
                           ("--oversampling", "2"), ("--constellation", "16QAM"),
                           ("--cp-fraction", "0.07"), ("--wola", "100000"),
                           ("--cfr-target", "6.5"), ("--cfr-iterations", "3"),
                           ("--plant", "linear8"), ("--symbols", "2"), ("--seed", "5")]


@pytest.mark.parametrize("flag, value", _REMOVED_GENERATE_FLAGS,
                         ids=[f for f, _ in _REMOVED_GENERATE_FLAGS])
def test_generate_removed_flag_exit_code(tmp_path, capsys, flag, value):
    assert main(["generate", "--preset", "linear-sanity", "--output", str(tmp_path / "w"),
                 flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_partition_subcommand(tmp_path, capsys):
    rc = main(["partition", "--preset", "doherty-n3", "--output",
               str(tmp_path / "part.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "u_k" in out and "share" in out
    data = json.loads((tmp_path / "part.json").read_text())
    assert data["edges"][0] == 0.0


def test_complexity_subcommand(tmp_path, capsys):
    rc = main(["complexity", "--json-out", str(tmp_path / "ledger.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "926" in out and "27,847" in out
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger["pwcl_orth_pruned"]["learn_est"] == pytest.approx(323.2032)


def test_complexity_params_file_wins(tmp_path):
    from pwdpd import complexity

    fields = dict(complexity.reference_params().__dict__, k=6)
    (tmp_path / "p.json").write_text(json.dumps(fields))
    assert main(["complexity", "--params", str(tmp_path / "p.json"),
                 "--json-out", str(tmp_path / "ledger.json")]) == 0
    ledger = json.loads((tmp_path / "ledger.json").read_text())

    def as_json(params):
        return json.loads(json.dumps(complexity.full_ledger(params)))

    assert ledger == as_json(complexity.ComplexityParams(**fields))
    assert ledger != as_json(complexity.reference_params())


def _json_file(path, value):
    path.write_text(json.dumps(value))
    return str(path)


# a no-DPD doherty-n3 linearization bundle, the quickest scenario config
_NO_DPD_CONFIG = {"kind": "linearization", "preset": "doherty-n3", "seed": 3, "methods": ["none"]}

# a doherty-n3 config that trains in about a second: a memoryless order-5
# basis and one 2000-sample block per learner
_QUICK_TRAIN_CONFIG = {"kind": "linearization", "preset": "doherty-n3",
                       "basis": {"family": "memoryless", "max_order": 5},
                       "learn": {"block_size": 2000, "iterations": 1},
                       "ila": {"block_size": 2000, "iterations": 1}}


def _train_argv(tmp_path, method, *flags, stem="m", **sections):
    """pwdpd train of method on _QUICK_TRAIN_CONFIG, its sections updated by
    sections, writing the model stem tmp_path/stem."""
    config = dict(_QUICK_TRAIN_CONFIG)
    for name, keys in sections.items():
        config[name] = dict(config.get(name, {}), **keys)
    return ["train", "--config", _json_file(tmp_path / "train.json", config), "--method", method,
            *flags, "--output", str(tmp_path / stem)]


@pytest.mark.parametrize("make_argv", [
    lambda d: ["complexity", "--params", _json_file(d / "p.json", {"n_isp": 5, "bogus": 1})],
    lambda d: ["complexity", "--preset", "reference"],
    lambda d: ["complexity", "--exact-division"],
], ids=["unknown-field", "preset-flag-gone", "exact-division-flag-gone"])
def test_complexity_bad_params_exit_code(tmp_path, make_argv):
    try:
        rc = main(make_argv(tmp_path))
    except SystemExit as exc:  # argparse refuses the value before main's handlers
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize("key, value", [("n_ipw", 15), ("n_pw", 348)])
def test_complexity_params_derived_count_refused(tmp_path, capsys, key, value):
    """The piecewise counts are k times n_isp and n_sp; a params file that
    still gives one is refused, naming the key."""
    params = {**reference_params().__dict__, key: value}
    assert main(["complexity", "--params", _json_file(tmp_path / "p.json", params)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["cli"])  # the one front end that reads a params file
@pytest.mark.parametrize("value", [math.nan, 1.5, True, "3"], ids=["nan", "1.5", "true", "str"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ComplexityParams)])
def test_complexity_params_must_be_positive_integers(tmp_path, capsys, name, value, via):
    params = {**reference_params().__dict__, name: value}
    assert main(["complexity", "--params", _json_file(tmp_path / "p.json", params)]) == 2
    assert f"{name!r} must be an integer > 0" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nonsense", "seed": 1}))
    assert main(["scenario", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["scenario", "--preset", "missing-preset", "--out", str(tmp_path)]) == 2
    assert main(["train", "--preset", "not-a-preset", "--output", str(tmp_path / "m")]) == 2
    # the "preset" of the config generate, partition, train and evaluate read
    # is a plant preset name: a saved plant file is refused by the preset
    # lookup, which lists the presets
    save_plant(load_plant_preset("doherty-n3"), tmp_path / "p.json")
    cfg = _json_file(tmp_path / "c.json", dict(_NO_DPD_CONFIG, preset=str(tmp_path / "p.json")))
    capsys.readouterr()
    for argv in (["generate", "--config", cfg, "--output", str(tmp_path / "w")],
                 ["partition", "--config", cfg],
                 ["train", "--config", cfg, "--output", str(tmp_path / "m")],
                 ["evaluate", "--config", cfg]):
        assert main(argv) == 2
        assert str(PLANT_PRESETS) in capsys.readouterr().err


def test_degenerate_region_exit_code(tmp_path):
    # a partition whose top region can never be populated
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"edges": [0.0, 0.9999999, 1.0]}))
    assert main(_train_argv(tmp_path, "pw_ila", "--partition", str(part))) == 3


def test_divergence_exit_code(tmp_path, monkeypatch):
    import pwdpd.cli as cli_mod

    def boom(config, outdir):
        raise DivergenceError("test divergence", [])

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "linearization", "seed": 0}))
    assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path)]) == 4


def _edit(edit, names):
    """A model-file fault: edit changes the file's JSON object in place, and the
    refusal must match the regex names."""
    edit.names = names
    return edit


_MODEL_KEYS = ("spec", "ghat", "gamma")

_SPEC_NOT_INT = [("max_order", 5.0), ("max_order", True), ("memory_depth", 1.5),
                 ("cross_memory_depth", "1")]


@pytest.mark.parametrize("edit", [
    _edit(lambda f: f["gamma"].pop(), "gamma length 2 != basis size 3"),  # one short of its spec
    # a real part without its imaginary part, and a triple
    _edit(lambda f: f["gamma"].__setitem__(1, [1.0]), r"gamma\[1\]"),
    _edit(lambda f: f["gamma"].__setitem__(1, [1.0, 2.0, 3.0]), r"gamma\[1\]"),
    _edit(lambda f: f["gamma"].append([0.0, 0.0]), "gamma length 4 != basis size 3"),
    *(_edit(lambda f, key=key: f.pop(key), repr(key)) for key in _MODEL_KEYS),
    _edit(lambda f: f.update(ghat=[1.0]), "'ghat'"),
    _edit(lambda f: f.update(ghat=[math.nan, 0.0]), "'ghat'"),
    _edit(lambda f: f.update(ghat=[1, True]), "'ghat'"),
    _edit(lambda f: f["spec"].pop("family"), "'family'"),
    # gamma followed by an n x n whitener, as earlier orthogonal models stored it
    _edit(lambda f: f["gamma"].extend([[0.0, 0.0]] * 9), "gamma length 12 != basis size 3"),
    *(_edit(lambda f, key=key, value=value: f["spec"].update({key: value}), repr(key))
      for key, value in _SPEC_NOT_INT),
    # a key save_model does not write in the spec
    _edit(lambda f: f["spec"].update(cross_memory_dept=2), "unknown key 'cross_memory_dept'"),
], ids=["truncated", "odd-length", "ragged", "trailing",
        *(f"no-{key}" for key in _MODEL_KEYS),
        "short-ghat", "nan-ghat", "bool-ghat", "spec-without-family", "dense-whitener-layout",
        *(f"spec-{key}={value!r}" for key, value in _SPEC_NOT_INT),
        "spec-unknown-key"])
def test_corrupt_model_payload_exit_code(tmp_path, edit):
    """A model file is one JSON object of spec, ghat and gamma; a field that is
    missing, ill-typed or the wrong length, and a spec key save_model does not
    write, exits 2 naming it."""
    from pwdpd.dpd import DpdModel, load_model, save_model

    model = DpdModel(np.arange(3) + 1j, BasisSpec("memoryless", 5))
    path = save_model(model, tmp_path / "m")
    assert path == tmp_path / "m.dpd.json" and sorted(tmp_path.iterdir()) == [path]
    np.testing.assert_array_equal(load_model(tmp_path / "m").gamma, model.gamma)
    fields = json.loads(path.read_text())
    assert sorted(fields) == sorted(_MODEL_KEYS) and len(fields["gamma"]) == 3
    edit(fields)
    path.write_text(json.dumps(fields))
    with pytest.raises(ConfigError, match=edit.names):
        load_model(tmp_path / "m")
    assert main(["evaluate", "--preset", "doherty-n3", "--model", str(tmp_path / "m")]) == 2


def test_non_finite_model_coefficient_exit_code(tmp_path, capsys):
    """A NaN coefficient is refused where it is read, naming the file and the coefficient."""
    from pwdpd.dpd import DpdModel, save_model

    path = save_model(DpdModel(np.arange(3) + 1j, BasisSpec("memoryless", 5)), tmp_path / "m")
    fields = json.loads(path.read_text())
    fields["gamma"][1] = [math.nan, 0.0]
    path.write_text(json.dumps(fields))
    assert main(["evaluate", "--preset", "doherty-n3", "--model", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "gamma[1] holds [nan, 0.0]" in err


def _model_case(tmp_path):
    """A piecewise model file, its reader, and evaluate of it."""
    from pwdpd.dpd import DpdModel, load_model, save_model

    spec = BasisSpec("memoryless", 5, partition=RegionPartition([0.0, 0.3, 2.0]))
    path = save_model(DpdModel(np.arange(6) + 1j, spec), tmp_path / "m")
    return path, lambda: load_model(tmp_path / "m"), ["evaluate", "--preset", "doherty-n3",
                                                     "--model", str(tmp_path / "m")]


def _partition_case(tmp_path):
    """A partition file, its reader, and train of a piecewise method on it."""
    path = tmp_path / "part.json"
    RegionPartition([0.0, 0.5, 2.0]).save(path)
    return path, lambda: RegionPartition.load(path), _train_argv(tmp_path, "pwcl_orth",
                                                                "--partition", str(path))


def _plant_case(tmp_path):
    """A plant file, its reader, and its path: no command reads a plant file."""
    path = tmp_path / "p.json"
    save_plant(load_plant_preset("array8-deep"), path)
    return path, lambda: load_plant(path), path


_FALSY_PARTITIONS = [{}, 0, False, "", []]

# (file, where, edit, the key its refusal names): edit changes the JSON object
# the file's writer wrote in place
_UNWRITTEN = [
    (_model_case, "top", lambda f: f.update(active_mask=[1] * 6), "active_mask"),
    (_model_case, "top", lambda f: f.update(gamma_scale=2.0), "gamma_scale"),
    (_model_case, "spec", lambda f: f["spec"].update(orders=[5] * 3), "orders"),
    (_model_case, "spec", lambda f: f["spec"].update(memories=[0] * 6), "memories"),
    (_model_case, "spec", lambda f: f["spec"].pop("memory_depth"), "memory_depth"),
    (_model_case, "spec", lambda f: f["spec"].pop("cross_memory_depth"), "cross_memory_depth"),
    # {} is read as a partition without edges
    *((_model_case, f"partition={value!r}", lambda f, v=value: f["spec"].update(partition=v),
       "edges" if value == {} else "partition") for value in _FALSY_PARTITIONS),
    (_model_case, "partition", lambda f: f["spec"]["partition"].update(orders=[5, 5]), "orders"),
    (_model_case, "partition", lambda f: f["spec"]["partition"].update(target_error=[0.01] * 2),
     "target_error"),
    (_partition_case, "top", lambda f: f.update(orders=[5, 5]), "orders"),
    (_partition_case, "top", lambda f: f.update(target_error=[0.01] * 2), "target_error"),
    (_plant_case, "top", lambda f: f.update(channel=[[0.3, -0.1]] * 8), "channel"),
    *((_plant_case, "top", lambda f, key=key: f.pop(key), key)
      for key in ("coupling_strength", "steer_angle_deg", "angle_coupling_slope")),
    (_plant_case, "element", lambda f: f["elements"][0].update(orders=[5]), "orders"),
    (_plant_case, "coupling", lambda f: f["coupling"].update(strength=0.9), "strength"),
]


@pytest.mark.parametrize("case, edit, key", [
    pytest.param(case, edit, key, id=f"{case.__name__[1:-5]}-{where}-{key}")
    for case, where, edit, key in _UNWRITTEN])
def test_reader_refuses_what_its_writer_does_not_write(tmp_path, capsys, case, edit, key):
    """Each workbench file reader takes the one shape its writer writes: a key
    the writer does not write (the model's active_mask, the spec's orders and
    memories, a partition's orders and target_error, a plant's channel among
    them), a missing field it writes and a falsy partition that is not null
    each exit 2 naming the file and the key."""
    path, read, argv = case(tmp_path)
    read()
    fields = json.loads(path.read_text())
    edit(fields)
    path.write_text(json.dumps(fields))
    err = _refusal(argv, capsys)
    assert str(path) in err and repr(key) in err, err


def test_parent_orthogonal_model_file_refused(tmp_path, capsys):
    """A model of the earlier two-file format (a .dpd.json header of spec, ghat
    and n_coefficients, the coefficients in a .dpd.bin payload) has no gamma and
    exits 2 naming it. That holds for the orthogonal models of that format too,
    whose payload held whitened coefficients and K blocks of B1 x B1, so a
    whitened gamma is never applied as a native one."""
    from pwdpd.dpd import load_model

    spec = BasisSpec("memoryless", 5, partition=RegionPartition([0.0, 0.3, 0.6, 2.0]))
    n, k, b1 = spec.n_basis_total, spec.n_regions, spec.n_basis_single
    assert (n, k, b1) == (9, 3, 3)
    rng = np.random.default_rng(4)
    gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    whitener = np.tril(rng.standard_normal((k, b1, b1)) + 1j * rng.standard_normal((k, b1, b1)))
    header = {"spec": spec.to_dict(), "ghat": [1.0, 0.0], "n_coefficients": n}
    for whitened, payload in ((False, gamma), (True, np.concatenate([gamma, whitener.ravel()]))):
        (tmp_path / "m.dpd.json").write_text(json.dumps({**header, "orthogonal_domain": whitened,
                                                          "has_whitener": whitened}))
        payload.astype("<c16").tofile(tmp_path / "m.dpd.bin")
        with pytest.raises(ConfigError, match="'gamma'"):
            load_model(tmp_path / "m")
        assert main(["evaluate", "--preset", "doherty-n3", "--model", str(tmp_path / "m")]) == 2
        assert "'gamma' must be a list of [re, im] pairs" in capsys.readouterr().err


def test_scenario_preset_loader():
    cfg = scenario_preset("doherty-n3")
    assert cfg["kind"] == "linearization" and cfg["preset"] == "doherty-n3"
    with pytest.raises(ConfigError):
        scenario_preset("not-there")


def test_scenario_bit_reproducibility(tmp_path):
    cfg = scenario_preset("linear-sanity")
    for name in ("a", "b"):
        assert main(["scenario", "--preset", "linear-sanity",
                     "--out", str(tmp_path), "--name", name]) == 0
    m_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m_a["artifacts"] == m_b["artifacts"]
    assert len(m_a["artifacts"]) >= 5
    assert cfg == m_a["config"]


def test_manifest_records_versions(tmp_path):
    """manifest.json names the package and numpy versions beside the
    artifacts, whose own bytes (and so sha256s) do not depend on them."""
    (tmp_path / "metrics.json").write_text("{}")
    manifest = json.loads(write_manifest(tmp_path, {"kind": "x"}).read_text())
    assert manifest["versions"] == {"pwdpd": pwdpd.__version__, "numpy": np.__version__}
    assert [e["name"] for e in manifest["artifacts"]] == ["metrics.json"]


def test_linear_sanity_scenario_results(tmp_path):
    assert main(["scenario", "--preset", "linear-sanity",
                 "--out", str(tmp_path), "--name", "lin"]) == 0
    metrics = json.loads((tmp_path / "lin" / "metrics.json").read_text())["methods"]
    assert metrics["none"]["evm_percent"] < 0.1
    assert metrics["none"]["aclr_dbc"] > 55
    assert metrics["pwcl_orth"]["evm_percent"] < 0.1
    assert metrics["pwcl_orth"]["aclr_dbc"] > 55
    assert metrics["pwcl_orth"]["gamma_norm"] < 1e-3


def test_descriptor_export_round_trip():
    from pwdpd.basis import BasisSpec, descriptors_json
    spec = BasisSpec("gmp", 5, 2, 1)
    desc = descriptors_json(spec)
    assert len(desc) == spec.n_basis_single
    assert desc[0] == {"family": "aligned", "order": 1, "lags": [0]}
    assert json.dumps(desc)  # JSON-ready


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PWDPD_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", "--config", _json_file(tmp_path / "c.json", _NO_DPD_CONFIG),
                 "--name", "x"]) == 0
    assert (tmp_path / "root" / "x" / "metrics.json").exists()


def test_powersweep_rows_follow_offsets_db(tmp_path, monkeypatch):
    import pwdpd.scenarios as scenarios

    monkeypatch.setattr(scenarios, "POWERSWEEP_OFFSETS_DB", (-1.0, 0.0))
    monkeypatch.setattr(scenarios, "POWERSWEEP_METHODS", ("none",))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(scenario_preset("powersweep")))
    assert main(["scenario", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--name", "sweep"]) == 0
    rows = json.loads((tmp_path / "sweep" / "metrics.json").read_text())["rows"]
    assert [r["offset_db"] for r in rows] == [-1.0, 0.0]


def test_scenario_taylor_and_kmeans_partitions():
    """A bundle's K-means partition has as many regions as its Taylor one, and
    each partition's info names its method."""
    from pwdpd.scenarios import _partitions, load_scenario_plant

    cfg = scenario_preset("doherty-n3")
    plant, preset = load_scenario_plant(cfg)
    partitions = _partitions(plant, preset, 13, {"taylor", "kmeans"})
    (taylor, taylor_info), (km, km_info) = partitions["taylor"], partitions["kmeans"]
    assert taylor.n_regions == km.n_regions
    assert taylor_info["method"] == "taylor" and km_info["method"] == "kmeans"


def test_scenario_failure_writes_error_record(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nonsense", "seed": 1}))
    rc = main(["scenario", "--config", str(bad), "--out", str(tmp_path), "--name", "x"])
    assert rc == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "nonsense" in record["message"]


def test_failed_bundle_keeps_finished_runs(tmp_path, monkeypatch):
    import pwdpd.scenarios as scenarios
    from pwdpd.basis import BasisSpec
    from pwdpd.dpd import DpdModel, TraceRecord
    from pwdpd.partition import RegionPartition

    def fake_partition(*args, **kwargs):
        return RegionPartition(np.array([0.0, 0.5, 1.0])), {"method": "taylor"}

    def fake_train(method, *args, **kwargs):
        if method == "cl_orth":
            raise DivergenceError("test divergence", [TraceRecord(1, -40.0, 3),
                                                      TraceRecord(2, -12.5, 3)])
        return DpdModel(np.arange(3) + 0j, BasisSpec("memoryless", 5)), [TraceRecord(1, -40.0, 3)]

    def fake_evaluate(*args, **kwargs):
        return scenarios.EvalResult({"aclr_dbc": -40.0}, np.zeros(2), np.zeros(2))

    monkeypatch.setattr(scenarios, "derive_partition", fake_partition)
    monkeypatch.setattr(scenarios, "train_method", fake_train)
    monkeypatch.setattr(scenarios, "evaluate", fake_evaluate)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "linearization", "preset": "doherty-n3",
                               "methods": ["pwcl_orth", "cl_orth"]}))
    assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path), "--name", "x"]) == 4
    bundle = tmp_path / "x"
    record = json.loads((bundle / "error.json").read_text())
    assert record["error"] == "DivergenceError"
    assert record["trace"] == [{"iteration": 1, "error_power_dbc": -40.0, "active_count": 3},
                               {"iteration": 2, "error_power_dbc": -12.5, "active_count": 3}]
    for name in ("partition.json", "pwcl_orth.dpd.json", "trace_pwcl_orth.csv",
                 "psd_pwcl_orth.csv"):
        assert (bundle / name).exists(), name
    assert not (bundle / "metrics.json").exists()


class _Stop(Exception):
    """Raised by a stub to end a bundle at the call it stands in for."""


@pytest.mark.parametrize("kind, own", [("linearization", {"methods": ["pwcl_orth"]}),
                                       ("powersweep", {}), ("anglesweep", {}), ("pruning", {})],
                         ids=["linearization", "powersweep", "anglesweep", "pruning"])
def test_trained_kinds_pass_partition_settings(tmp_path, monkeypatch, kind, own):
    """Every trained kind derives its Taylor partition at order 5 and target
    error 0.01, the settings all shipped presets use."""
    import pwdpd.scenarios as scenarios

    seen = []

    def record(model, order, target_error):
        seen.append((order, target_error))
        raise _Stop

    monkeypatch.setattr(scenarios, "partition_regions", record)
    config = {"kind": kind, "preset": "doherty-n3", "seed": 3, **own}
    with pytest.raises(_Stop):
        scenarios.run_scenario(config, tmp_path)
    assert seen == [(5, 0.01)]


def test_one_run_checks_each_section_once(tmp_path, monkeypatch):
    """scenario_settings is the one check of a config: an array8-deep bundle,
    its learners and evaluation stubbed, checks each section exactly once."""
    import pwdpd.scenarios as scenarios
    from pwdpd.dpd import DpdModel, TraceRecord

    checked = []
    check_settings = scenarios.check_settings

    def counted(values, accepted, where):
        checked.extend(name for name in scenarios.SECTIONS if repr(name) in where)
        return check_settings(values, accepted, where)

    def learned(source, spec, *args, **kwargs):
        return DpdModel.zero(spec), [TraceRecord(1, -40.0, spec.n_basis_total)]

    def evaluated(*args, **kwargs):
        return scenarios.EvalResult({"aclr_dbc": -40.0}, np.zeros(2), np.zeros(2))

    monkeypatch.setattr(scenarios, "check_settings", counted)
    monkeypatch.setattr(scenarios, "learn", learned)
    monkeypatch.setattr(scenarios, "ila_learn", learned)
    monkeypatch.setattr(scenarios, "evaluate", evaluated)
    scenarios.run_scenario(scenario_preset("array8-deep"), tmp_path / "bundle")
    assert sorted(checked) == sorted(scenarios.SECTIONS)


def test_shipped_scenario_presets_are_well_formed():
    from importlib import resources

    from pwdpd.dpd import LearnConfig
    from pwdpd.scenarios import (METHODS, RUNNERS, SECTIONS, accepted_settings,
                                 load_scenario_plant, scenario_settings)

    names = [p.name[:-5] for p in resources.files("pwdpd").joinpath("presets/scenarios").iterdir()]
    assert names
    for name in names:
        cfg = scenario_preset(name)
        assert cfg["kind"] in RUNNERS, name
        methods = cfg.get("methods", []) + ([cfg["method"]] if "method" in cfg else [])
        assert set(methods) <= set(METHODS), name
        load_scenario_plant(cfg)
        settings = scenario_settings(cfg)  # the whole top level and every section
        for section in SECTIONS:
            assert settings[section] == {**accepted_settings(SECTIONS[section]),
                                         **cfg.get(section, {})}, (name, section)
        BasisSpec(**settings["basis"])
        LearnConfig(**settings["learn"])
        assert isinstance(settings["eval"]["trp"], bool), name


def _scenario_exit_code(tmp_path, **config):
    """Exit code of a no-DPD doherty-n3 linearization bundle with the given config keys."""
    cfg = _json_file(tmp_path / "c.json", dict(_NO_DPD_CONFIG, **config))
    return main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "x"])


@pytest.mark.parametrize("section", ["learn", "ila", "basis", "eval"])
def test_misspelled_section_key_exit_code(tmp_path, section):
    assert _scenario_exit_code(tmp_path, **{section: {"iteratons": 1}}) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "'iteratons'" in record["message"] and repr(section) in record["message"]


@pytest.mark.parametrize("kind, key, value", [("linearization", "method", ["none"]),
                                             ("powersweep", "offset_db", [0.0]),
                                             ("anglesweep", "angle", [0]),
                                             ("pruning", "prune_threshold", -30.0)],
                         ids=["linearization", "powersweep", "anglesweep", "pruning"])
def test_misspelled_top_level_key_exit_code(tmp_path, kind, key, value):
    cfg = _json_file(tmp_path / "c.json", {"kind": kind, key: value})
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "x"]) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert f"unknown key {key!r}" in record["message"] and repr(kind) in record["message"]


def _ill_typed_cases():
    """(kind, config keys, key) for one ill-typed value of every key a scenario
    config takes (SHARED, the section names, each section's keys and each
    runner's keys) and one ill-typed element of every array-valued key, keyed
    by a test id. Each value is the first of a few candidates that the key's
    type check rejects, so a key added later is covered without a new row."""
    from pwdpd.scenarios import RUNNERS, SECTIONS, SHARED, accepted_settings, check_settings

    def rejected(accepted, key, candidates):
        for value in candidates:
            try:
                check_settings({key: value}, accepted, "")
            except ConfigError:
                return value
        raise AssertionError(f"no ill-typed candidate for {key!r}")

    values, elements = ("x", [1.5]), (["x"], [1.5])
    cases = {}
    top = {**SHARED, **{name: {} for name in SECTIONS}}
    for key in top:
        cases[key] = ("linearization", {key: rejected(top, key, values)}, key)
    for name, consumer in SECTIONS.items():
        accepted = accepted_settings(consumer)
        for key in accepted:
            cases[f"{name}.{key}"] = ("linearization",
                                      {name: {key: rejected(accepted, key, values)}}, key)
    for kind, runner in RUNNERS.items():
        accepted = accepted_settings(runner)
        for key, default in accepted.items():
            cases[f"{kind}.{key}"] = (kind, {key: rejected(accepted, key, values)}, key)
            if isinstance(default, (list, tuple)):
                cases[f"{kind}.{key}[0]"] = (kind, {key: rejected(accepted, key, elements)},
                                             key)
    return cases


_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _non_finite_cases():
    """(kind, config keys, key) putting NaN, Infinity and -Infinity in every
    number key a scenario config takes (SHARED, each section's keys and each
    runner's keys) and in the first element of every array of numbers, keyed
    by a test id. A key is a number key when its type check takes 1 or 0.5,
    so a key added later is covered without a new row."""
    from pwdpd.scenarios import RUNNERS, SECTIONS, SHARED, accepted_settings, check_settings

    def takes(accepted, key, value):
        try:
            check_settings({key: value}, accepted, "")
        except ConfigError:
            return False
        return True

    tables = [("linearization", None, {**SHARED, **{name: {} for name in SECTIONS}})]
    tables += [("linearization", name, accepted_settings(SECTIONS[name])) for name in SECTIONS]
    tables += [(kind, None, accepted_settings(runner)) for kind, runner in RUNNERS.items()]
    cases = {}
    for kind, section, accepted in tables:
        for key in accepted:
            for suffix, wrap in (("", lambda v: v), ("[0]", lambda v: [v])):
                if not (takes(accepted, key, wrap(1)) or takes(accepted, key, wrap(0.5))):
                    continue
                for label, value in _NON_FINITE.items():
                    keys = {key: wrap(value)}
                    cases[f"{section or kind}.{key}{suffix}={label}"] = (
                        kind, {section: keys} if section else keys, key)
    return cases


# linearization.methods names METHODS entries only; an element that is no
# name, or cannot be hashed, is refused as well
_BAD_METHODS = {f"linearization.methods={label}": ("linearization", {"methods": value}, "methods")
                for label, value in (("bogus", ["bogus"]), ("number", [3]),
                                     ("object", [{"a": 1}]))}
_ILL_TYPED = {**_ill_typed_cases(), **_non_finite_cases(), **_BAD_METHODS}


@pytest.mark.parametrize("kind, config, key", list(_ILL_TYPED.values()), ids=list(_ILL_TYPED))
def test_ill_typed_value_exit_code(tmp_path, kind, config, key):
    cfg = _json_file(tmp_path / "c.json", {"kind": kind, "preset": "doherty-n3", **config})
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "x"]) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError" and repr(key) in record["message"]
    assert sorted(p.name for p in (tmp_path / "x").iterdir()) == ["error.json"]


def test_every_scenario_key_has_one_rule():
    """Every default a scenario config may replace (SHARED and the section
    names, each SECTIONS consumer's and each RUNNERS runner's keywords) is
    typed by _KEY_TYPES or by a _VALUE_TYPES row, and every array default by
    _KEY_TYPES, which checks its elements."""
    from pwdpd.scenarios import (_KEY_TYPES, _VALUE_TYPES, RUNNERS, SECTIONS, SHARED,
                                 accepted_settings)

    tables = [{**SHARED, **{name: {} for name in SECTIONS}}]
    tables += [accepted_settings(consumer) for consumer in SECTIONS.values()]
    tables += [accepted_settings(runner) for runner in RUNNERS.values()]
    for accepted in tables:
        for key, default in accepted.items():
            if isinstance(default, (list, tuple)):
                assert key in _KEY_TYPES, key
            assert key in _KEY_TYPES or any(isinstance(default, t) for t, _ in _VALUE_TYPES), key


@pytest.mark.parametrize("kind", ["partition", "complexity"])
def test_removed_scenario_kind_exit_code(tmp_path, kind):
    """The partition and the FLOP ledger have one front end each, pwdpd
    partition and pwdpd complexity; a config of either kind exits 2 naming 'kind'."""
    cfg = _json_file(tmp_path / "c.json", {"kind": kind})
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "x"]) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError" and "'kind'" in record["message"]


# (kind, config keys, key) of each key a scenario config no longer takes, in
# its place and with a value it took before: the preset supplies the drive,
# CFR target and noise floor, derive_partition's constants the Taylor
# partition, eval.trp the TRP sweep and module constants the runners' settings
_REMOVED_KEYS = {
    "drive_rms": ("linearization", {"methods": ["none"], "drive_rms": 0.25}, "drive_rms"),
    "cfr_target_papr_db": ("linearization", {"methods": ["none"], "cfr_target_papr_db": 7.5},
                           "cfr_target_papr_db"),
    "noise_floor_dbc": ("linearization", {"methods": ["none"], "noise_floor_dbc": None},
                        "noise_floor_dbc"),
    "partition": ("linearization", {"methods": ["none"],
                                    "partition": {"order": 5, "target_error": 0.01}}, "partition"),
    "eval.trp_angles": ("linearization", {"methods": ["none"], "eval": {"trp_angles": None}},
                        "trp_angles"),
    "anglesweep.angles": ("anglesweep", {"angles": [0]}, "angles"),
    "anglesweep.method": ("anglesweep", {"method": "pwcl_orth"}, "method"),
    "powersweep.methods": ("powersweep", {"methods": ["none"]}, "methods"),
    "powersweep.offsets_db": ("powersweep", {"offsets_db": [0.0]}, "offsets_db"),
    "pruning.prune_threshold_db": ("pruning", {"prune_threshold_db": -40.0}, "prune_threshold_db"),
}


@pytest.mark.parametrize("kind, config, key", list(_REMOVED_KEYS.values()), ids=list(_REMOVED_KEYS))
def test_removed_scenario_key_exit_code(tmp_path, kind, config, key):
    """A config that still holds a removed key exits 2 naming it, before any run."""
    cfg = _json_file(tmp_path / "c.json", {"kind": kind, "preset": "doherty-n3", **config})
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "x"]) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError" and f"unknown key {key!r}" in record["message"]
    assert sorted(p.name for p in (tmp_path / "x").iterdir()) == ["error.json"]


def test_negative_scenario_seed_exit_code(tmp_path):
    """A seed is a non-negative integer, as numpy's SeedSequence asks."""
    assert _scenario_exit_code(tmp_path, seed=-1) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError" and "'seed'" in record["message"]


def test_ill_typed_kind_without_name_exit_code(tmp_path):
    """The bundle directory falls back to "scenario" when kind cannot name it."""
    cfg = _json_file(tmp_path / "c.json", {"kind": ["x"]})
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "scenario" / "error.json").read_text())
    assert record["error"] == "ConfigError" and "'kind'" in record["message"]


@pytest.mark.parametrize("trp", [{"start": -10, "stop": 10}, {"start": -10, "stop": 10, "step": 0},
                                 {"start": -180, "stop": 180, "step": 2},
                                 {"start": -91, "stop": 0, "step": 1},
                                 {"start": 0, "stop": 90.5, "step": 0.5}, True, False],
                         ids=["no-step", "zero-step", "full-circle", "below-minus-90", "above-90",
                              "true", "false"])
def test_malformed_trp_angles_exit_code(tmp_path, trp):
    """eval.trp_angles is refused, naming it, whatever grid it holds: the TRP
    sweep is eval.trp over the one grid TRP_ANGLES."""
    assert _scenario_exit_code(tmp_path, eval={"trp_angles": trp}) == 2
    assert "trp_angles" in json.loads((tmp_path / "x" / "error.json").read_text())["message"]


def test_readme_commands_parse():
    """Every pwdpd command line in the README still parses, so a renamed or
    removed flag cannot outlive its documentation."""
    from pathlib import Path
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line, comments=True)
                for line in readme.replace("\\\n", " ").splitlines() if line.startswith("pwdpd ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


def test_readme_library_layout_names():
    """Every plain-identifier code span of the README's library layout table
    names an attribute of a pwdpd module, of a class in one, or a METHODS key,
    so a deleted or renamed function cannot outlive its documentation."""
    import importlib
    import inspect
    import pkgutil
    import re
    from pathlib import Path

    import pwdpd

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Library layout")[1].split("\n## ")[0]
    names = {span for line in table.splitlines() if line.startswith("| `pwdpd.")
             for span in re.findall(r"`([A-Za-z_]\w*)`", line)}
    assert len(names) >= 30
    modules = [importlib.import_module(f"pwdpd.{m.name}")
               for m in pkgutil.iter_modules(pwdpd.__path__)]
    owners = modules + [cls for m in modules for _, cls in inspect.getmembers(m, inspect.isclass)]
    unresolved = {n for n in names if n not in METHODS and not any(hasattr(o, n) for o in owners)}
    assert unresolved == set()


def _readme_table(readme, header):
    """The rows below the README table header line `header` (the separator
    row skipped), each a list of its cells."""
    table = readme.split(header + "\n")[1].split("\n\n")[0]
    return [line.strip("| ").split(" | ") for line in table.splitlines()[1:]]


def test_readme_method_table():
    """The README's method table has one row per METHODS entry, with its
    partition and learner."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {method.strip("`"): cells
            for method, *cells in _readme_table(readme, "| method | partition | learner |")}
    assert list(rows) == list(METHODS)
    names = {"taylor": "Taylor", "kmeans": "K-means", None: "none"}
    for method, (kind, learner) in METHODS.items():
        partition, learner_cell = rows[method]
        assert partition.startswith(names[kind]), method
        assert (f"(`{learner}`)" in learner_cell if learner
                else learner_cell.startswith("no DPD")), method


def test_readme_params_fields():
    """The README's params-file table lists exactly the ComplexityParams fields."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [field.strip("`") for field, *_ in _readme_table(readme, "| params field | meaning |")]
    assert rows == [f.name for f in dataclasses.fields(ComplexityParams)]


def test_readme_scenario_tables():
    """The README's preset table lists exactly the shipped scenario presets,
    and its kind table exactly the RUNNERS kinds, each with its runner's own
    keys and defaults."""
    import re
    from importlib import resources
    from pathlib import Path

    from pwdpd.scenarios import RUNNERS, accepted_settings

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    presets = [name.strip("`") for name, _ in _readme_table(readme, "| preset | what it does |")]
    shipped = resources.files("pwdpd").joinpath("presets/scenarios").iterdir()
    assert sorted(presets) == sorted(p.name[:-5] for p in shipped)

    kinds = {kind.strip("`"): keys
             for kind, keys in _readme_table(readme, "| kind | own keys (default) |")}
    assert list(kinds) == list(RUNNERS)
    for kind, runner in RUNNERS.items():
        documented = {key: json.loads(default.strip("`"))
                      for key, default in re.findall(r"`(\w+)` \(([^)]*)\)", kinds[kind])}
        defaults = {key: list(value) if isinstance(value, tuple) else value
                    for key, value in accepted_settings(runner).items()}
        assert documented == defaults, kind


# (method, exit code, partition the saved model carries)
_TRAIN_ROWS = [
    ("none", 2, None),
    ("bogus", 2, None),
    ("pwcl_orth", 0, "taylor"),
    ("pwcl_selforth", 0, "taylor"),
    ("pwcl_kmeans", 0, "kmeans"),
    ("cl_orth", 0, None),
    ("cl_selforth", 0, None),
    ("pw_ila", 0, "taylor"),
    ("ila", 0, None),
]


@pytest.mark.parametrize("method, code, partition", _TRAIN_ROWS,
                         ids=[row[0] for row in _TRAIN_ROWS])
def test_train_method_table(tmp_path, method, code, partition):
    assert set(METHODS) <= {row[0] for row in _TRAIN_ROWS}
    assert main(_train_argv(tmp_path, method)) == code
    header_path = tmp_path / "m.dpd.json"
    assert header_path.exists() == (code == 0)
    if code == 0:
        saved = json.loads(header_path.read_text())["spec"]["partition"]
        if partition is None:
            assert saved is None
        else:
            assert list(saved) == ["edges"] and len(saved["edges"]) >= 3


@pytest.mark.parametrize("method, code", [("pwcl_orth", 0), ("cl_orth", 2), ("cl_selforth", 2),
                                          ("ila", 2)])
def test_train_partition_file_needs_piecewise_method(tmp_path, capsys, method, code):
    part = tmp_path / "part.json"
    assert main(["partition", "--preset", "doherty-n3", "--output", str(part)]) == 0
    assert main(_train_argv(tmp_path, method, "--partition", str(part))) == code
    assert (tmp_path / "m.dpd.json").exists() == (code == 0)
    assert ("--partition" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("method", ["ila", "pw_ila"])
@pytest.mark.parametrize("flag, value", [("--mu", "0.5"), ("--prune", "-40")])
def test_train_ila_refuses_closed_loop_flags(tmp_path, capsys, method, flag, value):
    """train takes the closed-loop step and pruning threshold from the config's
    learn section only: --mu and --prune are usage errors for every method."""
    assert main(_train_argv(tmp_path, method, flag, value)) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "m.dpd.json").exists()


# the flags train, evaluate and simulate took before they read a scenario
# config and its seed, each with a value it took
_REMOVED_FLAGS = [("train", "--plant", "doherty-n3"), ("train", "--family", "gmp"),
                  ("train", "--order", "5"), ("train", "--memory", "3"),
                  ("train", "--cross-memory", "2"), ("train", "--mu", "0.8"),
                  ("train", "--block-size", "2000"), ("train", "--iterations", "1"),
                  ("train", "--prune", "-40"), ("evaluate", "--plant", "doherty-n3"),
                  ("evaluate", "--symbols", "8"), ("evaluate", "--trp"),
                  ("evaluate", "--seed", "777"), ("simulate", "--plant", "doherty-n3"),
                  ("simulate", "--drive-rms", "0.56"), ("simulate", "--coupling-strength", "0.5"),
                  ("simulate", "--noise-floor", "-54"), ("simulate", "--channel-bw", "2e7"),
                  ("simulate", "--seed", "3")]


@pytest.mark.parametrize("command, flag", [(c, f) for c, *f in _REMOVED_FLAGS],
                         ids=[f"{c}{f}" for c, f, *_ in _REMOVED_FLAGS])
def test_train_and_evaluate_removed_flag_exit_code(tmp_path, capsys, command, flag):
    """train, evaluate and simulate take their plant, basis, learner, eval and
    noise settings from --preset or --config only; each flag that set one is a
    usage error."""
    out = tmp_path / "out"
    inputs = ["--input", str(tmp_path / "wave")] if command == "simulate" else []
    assert main([command, "--preset", "doherty-n3", *inputs, "--output", str(out), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_reads_the_preset_config(tmp_path):
    """train --preset doherty-n3 trains that config's gmp 5/3/2 basis with its
    learn section (mu 0.8, 3 statistics blocks), the gamma train_method gives
    on the config's own sections, bit for bit."""
    from pwdpd.dpd import load_model
    from pwdpd.scenarios import scenario_settings, train_method

    assert main(["train", "--preset", "doherty-n3", "--method", "pwcl_orth",
                 "--output", str(tmp_path / "m")]) == 0
    model = load_model(tmp_path / "m")
    config = scenario_preset("doherty-n3")
    settings = scenario_settings(config)
    assert BasisSpec(**settings["basis"]) == BasisSpec("gmp", 5, 3, 2) \
        == dataclasses.replace(model.spec, partition=None)
    assert (settings["learn"]["mu"], settings["learn"]["stats_blocks"]) == (0.8, 3)
    want, _ = train_method("pwcl_orth", *load_scenario_plant(config), settings,
                           model.spec.partition, seed=7)
    assert want.spec == model.spec
    assert model.gamma.tobytes() == want.gamma.tobytes()


def test_evaluate_reads_the_preset_config(tmp_path):
    """evaluate --preset doherty-n3 demodulates the config's 8 symbols at the
    evaluation seed of the config's seed, as its bundle does."""
    from pwdpd.scenarios import evaluate

    assert main(["evaluate", "--preset", "doherty-n3", "--output", str(tmp_path / "e.json")]) == 0
    want = evaluate(load_plant_preset("doherty-n3"), preset_params("doherty-n3"), None,
                    evaluation_seed(scenario_preset("doherty-n3")["seed"]), num_symbols=8).metrics
    assert json.loads((tmp_path / "e.json").read_text()) == json.loads(json.dumps(want))


# the flags partition took before it read a scenario config, and the Taylor
# order and target error it took before they became derive_partition's
# constants, each with a value it took
_REMOVED_PARTITION_FLAGS = [("--plant", "doherty-n3"), ("--seed", "17"), ("--order", "5"),
                            ("--target-error", "0.01")]


@pytest.mark.parametrize("flag, value", _REMOVED_PARTITION_FLAGS,
                         ids=[f for f, _ in _REMOVED_PARTITION_FLAGS])
def test_partition_removed_flag_exit_code(tmp_path, capsys, flag, value):
    """partition takes its plant and seed from --preset or --config only, and
    sets no Taylor order or target error."""
    assert main(["partition", "--preset", "doherty-n3", "--output", str(tmp_path / "p.json"),
                 flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_PARTITIONED_PRESETS = ["linear-sanity", "array8-deep", "doherty-n3", "pruning-study", "beamsweep"]


@pytest.mark.parametrize("preset", _PARTITIONED_PRESETS)
def test_partition_reproduces_the_bundle_partition(tmp_path, monkeypatch, preset):
    """partition --preset NAME writes, byte for byte, the Taylor partition the
    bundle of NAME trains on (and writes, when it writes one), and --regions K
    at the Taylor K its K-means one. The bundle is stopped at its first
    training call, by which point its partition files are written."""
    import pwdpd.scenarios as scenarios

    trained_on = []

    def stop(method, plant, preset, settings, partition, seed):
        trained_on.append(partition)
        raise _Stop

    monkeypatch.setattr(scenarios, "train_method", stop)
    bundle = tmp_path / "bundle"
    with pytest.raises(_Stop):
        scenarios.run_scenario(scenario_preset(preset), bundle)
    taylor = tmp_path / "taylor.json"
    assert main(["partition", "--preset", preset, "--output", str(taylor)]) == 0
    if trained_on[0] is not None:
        trained_on[0].save(tmp_path / "trained_on.json")
        assert (tmp_path / "trained_on.json").read_bytes() == taylor.read_bytes()
    written = bundle / "partition.json"
    assert written.exists() == (scenario_preset(preset)["kind"] == "linearization")
    if written.exists():
        assert written.read_bytes() == taylor.read_bytes()
    if (bundle / "partition_kmeans.json").exists():
        regions = str(RegionPartition.load(taylor).n_regions)
        assert main(["partition", "--preset", preset, "--regions", regions,
                     "--output", str(tmp_path / "kmeans.json")]) == 0
        assert ((tmp_path / "kmeans.json").read_bytes()
                == (bundle / "partition_kmeans.json").read_bytes())


def test_train_and_evaluate_reproduce_the_bundle(tmp_path):
    """On a quick bundle at config seed S, train --seed S*100+i writes method
    i's model and trace byte for byte, and evaluate --model scores it with
    every evaluation figure of the bundle's metrics.json."""
    methods = ["none", "pwcl_orth", "pwcl_kmeans", "pw_ila"]
    config = dict(_QUICK_TRAIN_CONFIG, seed=2, methods=methods)
    cfg = _json_file(tmp_path / "c.json", config)
    assert main(["scenario", "--config", cfg, "--out", str(tmp_path), "--name", "b"]) == 0
    bundle = tmp_path / "b"
    metrics = json.loads((bundle / "metrics.json").read_text())["methods"]
    for index, method in enumerate(methods):
        model = []
        if method != "none":
            assert main(["train", "--config", cfg, "--method", method, "--seed",
                         str(training_seed(2, index)), "--output", str(tmp_path / method)]) == 0
            assert (tmp_path / f"{method}.dpd.json").read_bytes() == \
                (bundle / f"{method}.dpd.json").read_bytes()
            assert (tmp_path / f"{method}.trace.csv").read_bytes() == \
                (bundle / f"trace_{method}.csv").read_bytes()
            model = ["--model", str(bundle / method)]
        assert main(["evaluate", "--config", cfg, *model,
                     "--output", str(tmp_path / "e.json")]) == 0
        figures = json.loads((tmp_path / "e.json").read_text())
        assert figures == {key: metrics[method][key] for key in figures}, method
        assert "aclr_dbc" in figures and "evm_percent" in figures
    # generate then simulate writes the observation the bundle scores for none
    assert main(["generate", "--config", cfg, "--output", str(tmp_path / "w")]) == 0
    assert main(["simulate", "--config", cfg, "--input", str(tmp_path / "w"),
                 "--output", str(tmp_path / "z")]) == 0
    z = read_iq(tmp_path / "z")
    channel_bw = preset_params(config["preset"])["channel_bw"]
    assert aclr_single_direction(z, channel_bw) == metrics["none"]["aclr_dbc"]
    freqs, db = psd(z)
    write_csv(tmp_path / "psd.csv", "freq_hz,psd_db_hz", zip(freqs.tolist(), db.tolist()))
    assert (tmp_path / "psd.csv").read_bytes() == (bundle / "psd_none.csv").read_bytes()


def test_scenario_refuses_a_directory_with_files(tmp_path, capsys):
    """A bundle goes to a new or empty directory, so its manifest lists its own
    files only: a second run into the same directory exits 2 naming it, and
    leaves the first run's files as they were, with no error.json."""
    first = _json_file(tmp_path / "first.json", _NO_DPD_CONFIG)
    assert main(["scenario", "--config", first, "--out", str(tmp_path / "r"), "--name", "x"]) == 0
    bundle = tmp_path / "r" / "x"
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}
    capsys.readouterr()
    second = _json_file(tmp_path / "second.json", dict(_NO_DPD_CONFIG, seed=4))
    assert main(["scenario", "--config", second, "--out", str(tmp_path / "r"), "--name", "x"]) == 2
    assert str(bundle) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before


_OUT_OF_RANGE = [("learn", "mu", 2.5), ("learn", "mu", 0), ("learn", "block_size", 0),
                 ("learn", "iterations", 0), ("learn", "stats_blocks", 0),
                 ("eval", "num_symbols", 0), ("ila", "iterations", 0), ("ila", "block_size", 0),
                 ("ila", "clip_headroom", 0.0), ("ila", "clip_headroom", -1.0)]


@pytest.mark.parametrize("section, key, value", _OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v}" for s, k, v in _OUT_OF_RANGE])
def test_out_of_range_section_value_exit_code(tmp_path, capsys, monkeypatch, section, key, value):
    """A section value its consumer refuses exits 2 naming the section and the
    key before any waveform is drawn, in a bundle and in train."""
    import pwdpd.scenarios as scenarios

    def drawn(*args, **kwargs):
        raise AssertionError("waveform drawn before the config was checked")

    monkeypatch.setattr(scenarios, "preset_waveform", drawn)
    named = f"config section {section!r}: {key!r} must be"
    assert _scenario_exit_code(tmp_path, **{section: {key: value}}) == 2
    assert named in json.loads((tmp_path / "x" / "error.json").read_text())["message"]
    assert capsys.readouterr().err.count(str(tmp_path / "c.json")) == 1
    assert main(_train_argv(tmp_path, "pwcl_orth", **{section: {key: value}})) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "m.dpd.json").exists()


def _not_utf8(path):
    path.write_bytes(bytes(range(128, 256)))
    return str(path)


# each JSON reader: the file it reads in a scratch directory d, the argv that
# reads it (with any companion file written) or, for a plant file, which no
# command reads, the path load_plant reads, and an object the reader refuses
_READERS = {
    "train-config": ("c.json", lambda d: ["train", "--config", str(d / "c.json"),
                                          "--output", str(d / "m")],
                     dict(_NO_DPD_CONFIG, seed=-1)),
    "train-partition": ("part.json", lambda d: ["train", "--preset", "doherty-n3", "--partition",
                                                str(d / "part.json"), "--output", str(d / "m")],
                        {"edges": [0, 0.5, 0.3]}),
    "evaluate-model": ("m.dpd.json", lambda d: ["evaluate", "--preset", "doherty-n3",
                                                "--model", str(d / "m")],
                       {"gamma": []}),
    "plant-file": ("p.json", lambda d: d / "p.json",
                   dict(load_plant_preset("doherty-n3").to_dict(), weights=[[1.0]])),
    "complexity-params": ("params.json", lambda d: ["complexity", "--params",
                                                    str(d / "params.json")],
                          dict(dataclasses.asdict(reference_params()), k=0)),
    "simulate-sidecar": ("wave.iq.json", lambda d: [
        "simulate", "--preset", "doherty-n3", "--output", str(d / "z"),
        "--input", str(write_iq(d / "wave", random_signal(64, rms=0.3, seed=3))[0])],
        {"length": -1, "sample_rate": 1e9, "seed": None}),
}

# each fault, written to a reader's file at path from the object the reader refuses
_FAULTS = {
    "truncated": lambda path, refused: path.write_text(json.dumps(refused)[:-1]),
    "not-utf8": lambda path, refused: _not_utf8(path),
    "list": lambda path, refused: path.write_text("[]"),
    "refused-field": lambda path, refused: path.write_text(json.dumps(refused)),
}


def _faulty_file(reader, fault):
    """The (argv or plant path, file) of reader reading its file with fault, for a
    scratch directory d."""
    name, make_argv, refused = _READERS[reader]

    def make_case(d):
        argv = make_argv(d)
        _FAULTS[fault](d / name, refused)
        return argv, d / name
    return make_case


# (argv, the path its refusal names) for a scratch directory d: a directory
# where a file belongs, and each reader's file with each fault
_UNREADABLE = {
    "scenario-config-dir": lambda d: (["scenario", "--config", str(d), "--out", str(d)], d),
    "scenario-config-not-utf8": lambda d: (["scenario", "--config", _not_utf8(d / "c.json"),
                                            "--out", str(d)], d / "c.json"),
    "partition-output-dir": lambda d: (["partition", "--preset", "doherty-n3", "--output", str(d)],
                                       d),
    **{f"{reader}-{fault}": _faulty_file(reader, fault) for reader in _READERS for fault in _FAULTS},
}


@pytest.mark.parametrize("make_case", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
def test_unreadable_input_file_exit_code(tmp_path, capsys, make_case):
    """A directory where a file belongs, and a JSON file that is truncated, not
    UTF-8, not an object or holds a field its reader refuses, is a configuration
    error (exit 2, or load_plant's ConfigError), not a traceback, and the
    message names the file once."""
    argv, named = make_case(tmp_path)
    err = _refusal(argv, capsys)
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert err.count(str(named)) == 1, err


def _refusal(case, capsys) -> str:
    """The error main(case) prints on exit 2 or, for a plant path, the
    ConfigError of load_plant(case) in the form main prints it."""
    if isinstance(case, Path):
        with pytest.raises(ConfigError) as refused:
            load_plant(case)
        return f"configuration error: {refused.value}"
    assert main(case) == 2
    return capsys.readouterr().err


_UNREAD_PARTITION_FLAGS = [
    (["--method", "kmeans", "--regions", "4"], "--method"),
    (["--method", "taylor", "--regions", "4"], "--method"),
]


@pytest.mark.parametrize("flags, named", _UNREAD_PARTITION_FLAGS,
                         ids=["method-kmeans", "taylor-regions"])
def test_partition_refuses_flags_its_method_does_not_read(tmp_path, capsys, flags, named):
    """--regions K alone selects K-means; there is no --method flag, so giving
    one is a usage error."""
    part = tmp_path / "part.json"
    assert main(["partition", "--preset", "doherty-n3", *flags, "--output", str(part)]) == 2
    assert named in capsys.readouterr().err
    assert not part.exists()


@pytest.mark.parametrize("method, twin", [("pwcl_selforth", "pwcl_orth"),
                                          ("cl_selforth", "cl_orth")])
def test_train_selforth_prunes_like_orth(tmp_path, capsys, method, twin):
    """Every closed-loop method prunes, and a *_selforth method writes the same
    gamma as its *_orth twin at the same seed, since one update serves both
    rules; the summary line counts the coefficients the pruned learner updates."""
    from pwdpd.dpd import load_model

    payloads = {}
    for name in (method, twin):
        stem = tmp_path / name
        assert main(_train_argv(tmp_path, name, stem=name, basis={"max_order": 9},
                                learn={"iterations": 3, "prune_threshold_db": -40})) == 0
        payloads[name] = load_model(stem).gamma.tobytes()
        n = len(payloads[name]) // 16
        rows = (tmp_path / f"{name}.trace.csv").read_text().splitlines()
        active = int(rows[1].split(",")[2])
        assert active < n
        assert f"({active}/{n} active coefficients)" in capsys.readouterr().out
    assert payloads[method] == payloads[twin]


@pytest.mark.parametrize("edge", [math.nan, math.inf], ids=["nan", "inf"])
def test_train_non_finite_partition_file_exit_code(tmp_path, capsys, edge):
    argv = _partition_file(tmp_path, broken=False)
    (tmp_path / "part.json").write_text(json.dumps({"edges": [0.0, edge, 2.0]}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'edges'" in err and "finite numbers" in err
    assert not (tmp_path / "m.dpd.json").exists()


def _subcommands() -> dict:
    """Each subcommand of build_parser() by name, with its parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_command_reads_the_scenario_config():
    """Every subcommand but complexity takes its plant, seed and settings from
    --preset or --config, and none reads a plant file."""
    for name, parser in _subcommands().items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert ({"--preset", "--config"} <= flags) == (name != "complexity"), name
        assert "--plant" not in flags, name


def _float_flags():
    """(subcommand, flag) of every float-typed flag of build_parser()."""
    return [(name, action.option_strings[-1]) for name, parser in _subcommands().items()
            for action in parser._actions if action.type in (float, finite_float)]


# the required flags of each subcommand with a float flag or a --seed, for an
# output root d
_REQUIRED_FLAGS = {
    "simulate": lambda d: ["--preset", "doherty-n3", "--input", str(d / "wave"),
                           "--output", str(d / "z")],
    "train": lambda d: ["--preset", "doherty-n3", "--output", str(d / "m")],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", _float_flags(),
                         ids=[f"{c}{f}" for c, f in _float_flags()])
def test_non_finite_float_flag_exit_code(tmp_path, capsys, command, flag, value):
    """Every float flag is a finite_float: nan and inf are usage errors naming the flag."""
    write_iq(tmp_path / "wave", random_signal(64, rms=0.3, seed=3))
    before = sorted(tmp_path.iterdir())
    assert main([command, *_REQUIRED_FLAGS[command](tmp_path), flag, value]) == 2
    assert f"argument {flag}: must be a finite number" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def _seed_commands():
    """Every subcommand of build_parser() that takes --seed."""
    return [name for name, parser in _subcommands().items()
            if any("--seed" in action.option_strings for action in parser._actions)]


@pytest.mark.parametrize("command", _seed_commands())
def test_negative_seed_flag_exit_code(tmp_path, capsys, command):
    """Every --seed is a non_negative_int: a negative seed is a usage error
    naming the flag, not a traceback from numpy's seeding."""
    write_iq(tmp_path / "wave", random_signal(64, rms=0.3, seed=3))
    before = sorted(tmp_path.iterdir())
    assert main([command, *_REQUIRED_FLAGS[command](tmp_path), "--seed", "-1"]) == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_partition_region_cap_exit_code(tmp_path, capsys, monkeypatch):
    """K-means refuses fewer than 1 or more than MAX_REGIONS regions, and does
    so before the preset's OFDM block is drawn and crest-factor reduced."""
    import pwdpd.scenarios as scenarios

    def drawn(*args, **kwargs):
        raise AssertionError("waveform drawn before --regions was checked")

    monkeypatch.setattr(scenarios, "preset_waveform", drawn)
    part = tmp_path / "part.json"
    for regions in (0, MAX_REGIONS + 1):
        assert main(["partition", "--preset", "doherty-n3", "--regions", str(regions),
                     "--output", str(part)]) == 2
        assert f"between 1 and {MAX_REGIONS}, got {regions}" in capsys.readouterr().err
        assert not part.exists()


def test_simulate_without_aclr_view_still_succeeds(tmp_path, capsys):
    # 64 samples at rate 1: shorter than one PSD segment and narrower than 3 channels
    write_iq(tmp_path / "wave", random_signal(64, rms=0.3, seed=3))
    rc = main(["simulate", "--preset", "doherty-n3", "--input", str(tmp_path / "wave"),
               "--output", str(tmp_path / "z")])
    assert rc == 0
    assert len(read_iq(tmp_path / "z")) == 64
    assert "observation ACLR: n/a (" in capsys.readouterr().out


@pytest.mark.parametrize("drive_rms", [-0.25, 0])
def test_non_positive_scenario_drive_exit_code(tmp_path, drive_rms):
    """The drive comes from the plant preset: a drive_rms in the config exits 2
    naming it before any run."""
    assert _scenario_exit_code(tmp_path, drive_rms=drive_rms) == 2
    record = json.loads((tmp_path / "x" / "error.json").read_text())
    assert record["error"] == "ConfigError" and "'drive_rms'" in record["message"]
    assert not (tmp_path / "x" / "metrics.json").exists()


_REMOVED_PA_KINDS = {
    "dual_input_lumped": {"alpha": [[[1, 0], [1.0, 0.0]]], "beta": [[[1, 1, 1], [0.1, 0.0]]]},
    "memoryless_poly": {"table": [[[1, 0], [1.0, 0.0]]]},
}


def _plant_refusal(tmp_path, plant) -> str:
    """load_plant's refusal of the plant dict saved as a file, which names the file once."""
    plant_file = _json_file(tmp_path / "p.json", plant)
    with pytest.raises(ConfigError) as refused:
        load_plant(plant_file)
    assert str(refused.value).count(plant_file) == 1, refused.value
    return str(refused.value)


@pytest.mark.parametrize("kind", list(_REMOVED_PA_KINDS))
def test_simulate_removed_pa_kind_exit_code(tmp_path, kind):
    """A plant file naming a removed PA kind is refused naming it: a memoryless
    PA is a memory_poly table with tap 0 only, and no preset runs a dual-input
    PA."""
    plant = load_plant_preset("doherty-n3").to_dict()
    plant["elements"][0] = {"kind": kind, "saturation_level": None,
                            "coefficients": _REMOVED_PA_KINDS[kind]}
    assert f"unknown PA kind {kind!r}" in _plant_refusal(tmp_path, plant)


def _set_plant_field(plant, field, value):
    """Put value in a plant dict's top-level field or, for saturation_level, in
    its first element's."""
    (plant["elements"][0] if field == "saturation_level" else plant)[field] = value


_PLANT_SCALARS = [("saturation_level", math.nan), ("coupling_strength", math.nan),
                  ("coupling_strength", math.inf), ("steer_angle_deg", math.nan),
                  ("steer_angle_deg", -math.inf), ("angle_coupling_slope", math.nan),
                  ("angle_coupling_slope", math.inf), ("saturation_level", "1.2"),
                  ("saturation_level", True), ("coupling_strength", True),
                  ("steer_angle_deg", "0"), ("angle_coupling_slope", False)]


@pytest.mark.parametrize("field, value", _PLANT_SCALARS,
                         ids=[f"{f}={v!r}" for f, v in _PLANT_SCALARS])
def test_plant_file_non_finite_scalar_exit_code(tmp_path, field, value):
    """A plant scalar that is not a finite JSON number is refused naming it; a
    NaN saturation_level would otherwise switch the limiter off, and a string
    or bool would be read as a number."""
    plant = load_plant_preset("array8-deep").to_dict()
    _set_plant_field(plant, field, value)
    assert repr(field) in _plant_refusal(tmp_path, plant)


@pytest.mark.parametrize("row", [[[1, 0], [0.5, 0.0]], [[3.5, 1], [0.1, 0.0]],
                                 [[True, 0], [0.1, 0.0]]],
                         ids=["key-twice", "float-order", "bool-order"])
def test_plant_file_table_key_exit_code(tmp_path, row):
    """A coefficient table's keys are JSON integers, each listed once; any
    other row is refused naming the table instead of being rounded or
    overwritten."""
    plant = load_plant_preset("array8-deep").to_dict()
    plant["elements"][0]["coefficients"]["table"].append(row)
    assert "'table'" in _plant_refusal(tmp_path, plant)


def _set_first_pair(plant, field, value):
    """Put value in place of the first [re, im] pair of a plant dict's weights,
    coupling or branch_filters, or of its first element's main table."""
    if field == "main":
        plant["elements"][0]["coefficients"]["main"][0][1] = value
    else:
        (plant[field] if field == "weights" else plant[field]["values"])[0] = value


_PLANT_PAIRS = [("weights", [True, False]), ("weights", [math.nan, 0.0]), ("weights", ["1", 0.0]),
                ("branch_filters", [1.0, math.nan]), ("coupling", [1.0]),
                ("main", [math.nan, 0.0]), ("main", [math.inf, 0.0]), ("main", [1.0]),
                ("main", [True, 0.0])]


@pytest.mark.parametrize("field, value", _PLANT_PAIRS,
                         ids=[f"{f}={v!r}" for f, v in _PLANT_PAIRS])
def test_plant_file_complex_pair_exit_code(tmp_path, field, value):
    """Every complex number in a plant file (weights, coupling, branch filters,
    coefficient rows) is an [re, im] pair of finite JSON numbers; anything else
    is refused naming the field or table instead of loading as a number."""
    plant = load_plant_preset("doherty-n3").to_dict()
    _set_first_pair(plant, field, value)
    assert repr(field) in _plant_refusal(tmp_path, plant)


_PLANT_SHAPES = [("coupling", [1, -1, 1]), ("coupling", [1, 1.0, 1]), ("coupling", [1, 1]),
                 ("coupling", [1, 1, 2]), ("branch_filters", [1, -1]),
                 ("branch_filters", [1, True]), ("branch_filters", [1])]


@pytest.mark.parametrize("field, shape", _PLANT_SHAPES,
                         ids=[f"{f}={s!r}" for f, s in _PLANT_SHAPES])
def test_plant_file_shape_exit_code(tmp_path, field, shape):
    """A coupling or branch_filters shape is a list of integers >= 1, three for
    coupling and two for branch_filters, whose product is the field's value
    count; a -1 (which reshape would infer), a float, a bool, a missing axis or
    a shape the values do not fill is refused naming the field."""
    plant = load_plant_preset("doherty-n3").to_dict()
    plant[field]["shape"] = shape
    assert repr(field) in _plant_refusal(tmp_path, plant)


_SIDECAR_VALUES = [("length", "4096"), ("length", 4096.0), ("length", True), ("length", 0),
                   ("sample_rate", "2e9"), ("sample_rate", True), ("sample_rate", -1.0),
                   ("sample_rate", 0), ("seed", {"x": 1}), ("seed", 2.5)]


@pytest.mark.parametrize("field, value", _SIDECAR_VALUES,
                         ids=[f"{f}={v!r}" for f, v in _SIDECAR_VALUES])
def test_iq_sidecar_field_type_exit_code(tmp_path, capsys, field, value):
    """length is an int >= 1, sample_rate a finite number > 0 and seed an int
    or null; a string, bool, float or value out of range in their place exits 2
    naming the sidecar and the field."""
    _, sidecar = write_iq(tmp_path / "wave", random_signal(4096, rms=0.3, seed=3, sample_rate=2e9))
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **{field: value})))
    assert main(["simulate", "--preset", "doherty-n3", "--input", str(tmp_path / "wave"),
                 "--output", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert str(sidecar) in err and repr(field) in err
    assert not (tmp_path / "z.iq").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_iq_payload_non_finite_sample_exit_code(tmp_path, capsys, value):
    """A NaN or infinite sample in an IQ payload exits 2 naming the payload and
    the sample."""
    sig = random_signal(64, rms=0.3, seed=3)
    path, _ = write_iq(tmp_path / "wave", sig)
    np.concatenate([sig.samples[:5], [complex(0.1, value)], sig.samples[6:]]).astype("<c16").tofile(path)
    assert main(["simulate", "--preset", "doherty-n3", "--input", str(path),
                 "--output", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert f"IQ payload {path}: sample 5 is" in err
    assert not (tmp_path / "z.iq").exists()


def test_plant_file_unlimited_saturation_level(tmp_path):
    """Infinity and null both mean no limiter."""
    for name, level in (("inf", math.inf), ("null", None)):
        plant = load_plant_preset("array8-deep").to_dict()
        _set_plant_field(plant, "saturation_level", level)
        loaded = load_plant(_json_file(tmp_path / f"{name}.json", plant))
        assert loaded.elements[0].saturation_level == math.inf


def test_simulate_angle_zero_resteers(tmp_path):
    """--angle A steers the config's plant to A degrees: simulate writes, bit
    for bit, observe's observation of the steered plant at the evaluation seed,
    and --angle 0 that of the plant at broadside."""
    write_iq(tmp_path / "wave", random_signal(256, rms=0.4, seed=5))
    config = scenario_preset("array8-deep")
    plant, params = load_scenario_plant(config)
    outputs = {}
    for angle in (30.0, 0.0):
        assert main(["simulate", "--preset", "array8-deep", "--input", str(tmp_path / "wave"),
                     "--output", str(tmp_path / "z"), "--angle", str(angle)]) == 0
        _, want = observe(steer(plant, angle), params, read_iq(tmp_path / "wave"),
                          evaluation_seed(config["seed"]))
        outputs[angle] = read_iq(tmp_path / "z").samples
        assert outputs[angle].tobytes() == want.samples.tobytes()
    assert not np.allclose(outputs[30.0], outputs[0.0])


def _plant_file(tmp_path, broken):
    save_plant(load_plant_preset("doherty-n3"), tmp_path / "p.json")
    if broken:
        plant = json.loads((tmp_path / "p.json").read_text())
        del plant["weights"]
        (tmp_path / "p.json").write_text(json.dumps(plant))
    return tmp_path / "p.json"


def _doherty_blend_width(tmp_path, broken):
    plant = load_plant_preset("doherty-n3").to_dict()
    plant["elements"][0]["coefficients"]["blend_width"] = 0 if broken else 0.07
    return Path(_json_file(tmp_path / "p.json", plant))


def _iq_sidecar(tmp_path, broken):
    _, sidecar = write_iq(tmp_path / "wave", random_signal(4096, rms=0.3, seed=3, sample_rate=2e9))
    if broken:
        meta = json.loads(sidecar.read_text())
        del meta["length"]
        sidecar.write_text(json.dumps(meta))
    return ["simulate", "--preset", "doherty-n3", "--input", str(tmp_path / "wave"),
            "--output", str(tmp_path / "z")]


def _sidecar_with(**fields):
    """The simulate argv of a valid IQ sidecar, or with broken set, of one
    whose fields are updated."""
    def make_argv(tmp_path, broken):
        argv = _iq_sidecar(tmp_path, broken=False)
        if broken:
            sidecar = tmp_path / "wave.iq.json"
            sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **fields)))
        return argv
    return make_argv


def _partition_file(tmp_path, broken):
    RegionPartition([0.0, 0.5, 2.0]).save(tmp_path / "part.json")
    if broken:
        (tmp_path / "part.json").write_text(json.dumps({"orders": None}))
    return _train_argv(tmp_path, "pwcl_orth", "--partition", str(tmp_path / "part.json"))


def _partition_with(**fields):
    """A valid partition file, or with broken set, one whose fields are replaced."""
    def make_argv(tmp_path, broken):
        argv = _partition_file(tmp_path, broken=False)
        if broken:
            (tmp_path / "part.json").write_text(json.dumps({"edges": [0.0, 0.5, 2.0], **fields}))
        return argv
    return make_argv


def _plant_with(preset, edit):
    """The path of a saved plant preset, or with broken set, of that plant's
    JSON changed by edit."""
    def make_path(tmp_path, broken):
        plant = load_plant_preset(preset).to_dict()
        if broken:
            edit(plant)
        return Path(_json_file(tmp_path / "p.json", plant))
    return make_path


def _scenario_config(tmp_path, broken):
    config = _NO_DPD_CONFIG
    (tmp_path / "c.json").write_text(json.dumps([config] if broken else config))
    return ["scenario", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]


@pytest.mark.parametrize("make_argv", [
    _plant_file, _doherty_blend_width, _iq_sidecar, _scenario_config, _partition_file,
    _partition_with(edges=[0, "x", 2]),
    _plant_with("array8-deep", lambda p: p["branch_filters"].update(shape=[16])),
    _plant_with("array8-deep", lambda p: p["coupling"].update(shape=[64, 2])),
    _plant_with("array8-deep", lambda p: p["elements"][0]["coefficients"].update(table=[])),
    _plant_with("array8-deep", lambda p: p.update(coupling_strenght=p.pop("coupling_strength"))),
    _plant_with("array8-deep",
                lambda p: p["elements"][0].update(saturation_levl=p["elements"][0].pop("saturation_level"))),
    _plant_with("array8-deep", lambda p: p["coupling"].update(strength=0.9)),
    _plant_with("array8-deep", lambda p: p["branch_filters"].update(taps=2)),
    _sidecar_with(format="iq-float64-be-interleaved"), _sidecar_with(sampel_rate=2e9),
    _partition_with(target_errors=[0.01, 0.01]),
], ids=["plant-without-weights", "doherty-blend-width-zero", "sidecar-without-length",
        "config-as-list", "partition-without-edges", "partition-edge-string",
        "branch-filters-1d", "coupling-2d", "empty-table", "misspelled-plant-key",
        "misspelled-element-key", "coupling-unknown-key", "branch-filters-unknown-key",
        "sidecar-big-endian", "sidecar-unknown-key", "partition-unknown-key"])
def test_malformed_input_file_exit_code(tmp_path, capsys, make_argv):
    """Exit 2 with one message (for a plant file, which no command reads,
    load_plant's ConfigError): a refused plant file is named once, and no
    exception repr is wrapped inside it."""
    good = make_argv(tmp_path, broken=False)
    if isinstance(good, Path):
        load_plant(good)
    else:
        assert main(good) == 0
        capsys.readouterr()
    case = make_argv(tmp_path, broken=True)
    err = _refusal(case, capsys)
    assert "configuration error" in err and "ConfigError(" not in err
    if isinstance(case, Path):
        assert err.count(str(case)) == 1
