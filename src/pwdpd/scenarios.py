"""Config-driven experiment pipelines and their output bundles.

Every scenario is deterministic given its seed: waveform seeds, learning
block seeds, and observation noise all derive from the config. A run writes
its artifacts plus a manifest.json listing each file with a sha256 checksum,
so identical configs produce identical bundles at a fixed BLAS thread count;
across thread counts the learning and ILA solves round differently, and the
floats in metrics.json (and the files that hold them) differ in their last bits.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import complexity as complexity_mod
from .basis import BasisSpec
from .basis import descriptors_json as basis_descriptors_json
from .dpd import (DpdModel, LearnConfig, estimate_gain, learn, predistort, save_model,
                  trace_to_csv)
from .errors import ConfigError
from .ila import ila_learn
from .metrics import (aclr_single_direction, aclr_trp, beam_pattern, evm, nmse, psd)
from .partition import RegionPartition, fit_amam, kmeans_partition, partition_regions
from .plant import ArrayPlant, array_forward, observation_receive, steer
from .presets import load_plant_preset, preset_params
from .signals import IqSignal
from .waveform import OfdmConfig, crest_factor_reduce, generate_ofdm, papr_at

METHODS = ("none", "pwcl_orth", "pwcl_selforth", "pwcl_kmeans", "cl_orth", "cl_selforth",
           "pw_ila", "ila")

# derive_partition: AM/AM fit order of the ramp probe, OFDM samples that set
# the amplitude range and region shares, and the smallest share a trailing
# region may hold before it is merged into its neighbor
FIT_ORDER = 9
PARTITION_BLOCK = 40000
MIN_SHARE = 0.025


def preset_waveform(preset: dict, num_symbols: int,
                    seed: int) -> tuple[IqSignal, np.ndarray, OfdmConfig]:
    """OFDM of the preset's numerology, crest-factor reduced to its PAPR target
    (when it has one) and scaled to its drive level; returns (signal, symbol
    grid, OFDM config)."""
    cfg = OfdmConfig(num_symbols=num_symbols, seed=seed, **preset["ofdm"])
    sig, grid = generate_ofdm(cfg)
    if preset["cfr_target_papr_db"] is not None:
        sig = crest_factor_reduce(sig, preset["cfr_target_papr_db"], preset["cfr_iterations"],
                                  occupied_bandwidth=cfg.occupied_bandwidth)
    return sig.scaled_to_rms(preset["drive_rms"]), grid, cfg


class SimulatedLoop:
    """Closed-loop source backed by a simulated plant.

    next_block synthesizes a fresh block of the preset's waveform (new data
    every call, see preset_waveform); transmit runs the array forward and the
    phase-aligned observation combiner, adding receiver noise when requested.
    """

    def __init__(self, plant: ArrayPlant, preset: dict, seed: int = 0):
        self.plant = plant
        self.preset = preset
        self.seed = seed
        self._counter = 0
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEED]))

    def make_block(self, n: int, seed: int) -> IqSignal:
        ofdm = OfdmConfig(**self.preset["ofdm"])
        symbols = max(1, math.ceil((n - ofdm.wola_taper_samples) / ofdm.symbol_stride))
        sig, _, _ = preset_waveform(self.preset, symbols, seed)
        return IqSignal(sig.samples[:n], sig.sample_rate, seed)

    def next_block(self, n: int) -> IqSignal:
        self._counter += 1
        return self.make_block(n, self.seed + self._counter)

    def transmit(self, x: IqSignal, noise_floor_dbc: float | None = None) -> IqSignal:
        per_element, _ = array_forward(self.plant, x)
        return observation_receive(self.plant, per_element, noise_floor_dbc, self._noise_rng)


def ramp_probe(amax: float, sample_rate: float, n: int = 32768,
               phase_rate: float = 1e-3) -> IqSignal:
    """Slow full-scale envelope ramp (power-sweep characterization probe).

    The envelope rises linearly to amax while the phase rotates slowly, so
    plant memory taps add coherently and the observed response is the static
    amplitude curve rather than a memory-smeared cloud.
    """
    env = np.linspace(0.0, amax, n)
    phase = np.exp(2j * np.pi * phase_rate * np.arange(n))
    return IqSignal(env * phase, sample_rate)


def derive_partition(plant: ArrayPlant, preset: dict, seed: int, method: str = "taylor",
                     order: int = 5, target_error: float = 0.01,
                     n_regions: int | None = None) -> tuple[RegionPartition, dict]:
    """Amplitude partition from a characterization pass.

    An OFDM block sets the amplitude range and the per-region sample shares;
    the amplitude response itself is extracted from a slow full-scale ramp
    probe, whose scatter-free response makes the fitted derivatives (and so
    the Taylor partition) reproducible. K-means partitioning clusters the
    OFDM block's envelope directly. A trailing region holding less than
    MIN_SHARE of the waveform samples is merged into its neighbor: such a
    region cannot support the per-region coefficient estimation downstream.
    """
    loop = SimulatedLoop(plant, preset, seed)
    a1 = loop.next_block(PARTITION_BLOCK)
    env = np.abs(a1.samples)
    amax = float(env.max())
    if method == "taylor":
        probe = ramp_probe(amax, a1.sample_rate)
        per_element, _ = array_forward(plant, probe)
        zp = observation_receive(plant, per_element)
        ghat = estimate_gain(probe, zp)
        model = fit_amam(probe, zp.with_samples(zp.samples / ghat), FIT_ORDER)
        part = partition_regions(model, model.a_max, order, target_error)
        fit_residual = model.fit_residual
    elif method == "kmeans":
        if n_regions is None:
            raise ConfigError("kmeans partitioning needs n_regions")
        z = loop.transmit(a1)
        ghat = estimate_gain(a1, z)
        part = kmeans_partition(a1, n_regions)
        fit_residual = 0.0
    else:
        raise ConfigError(f"unknown partition method {method!r}")
    while part.n_regions > 1 and float(np.mean(part.region_index(env) == part.n_regions - 1)) < MIN_SHARE:
        edges = np.delete(part.edges, part.n_regions - 1)
        part = RegionPartition(edges,
                               part.orders[:-1] if part.orders else None,
                               part.target_error[:-1] if part.target_error else None)
    shares = [float(np.mean(part.region_index(env) == k)) for k in range(part.n_regions)]
    info = {
        "method": method,
        "edges": part.edges.tolist(),
        "sample_share": shares,
        "fit_residual": fit_residual,
        "ghat_abs": abs(ghat),
    }
    return part, info


@dataclass
class EvalResult:
    metrics: dict
    psd_freqs: np.ndarray
    psd_db: np.ndarray
    beam: object | None = None


def evaluate(plant: ArrayPlant, preset: dict, model: DpdModel | None, seed: int,
             num_symbols: int = 4, trp_angles: np.ndarray | None = None,
             noise_floor_dbc: float | None = None) -> EvalResult:
    """Fresh-data evaluation of one DPD model (or the no-DPD reference)."""
    a1, grid, cfg = preset_waveform(preset, num_symbols, seed)
    x = predistort(model, a1) if model is not None else a1
    per_element, _ = array_forward(plant, x)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    z = observation_receive(plant, per_element, noise_floor_dbc, rng)
    ghat = estimate_gain(a1, z)
    y = z.with_samples(z.samples / ghat)

    channel_bw = preset["channel_bw"]
    metrics = {
        "aclr_dbc": aclr_single_direction(z, channel_bw),
        "evm_percent": evm(grid, y, cfg),
        "nmse_db": nmse(a1, y),
        "papr_1pct_db": papr_at(x, 0.01),
        "ghat_abs": abs(ghat),
        "drive_rms": preset["drive_rms"],
    }
    beam = None
    if trp_angles is not None:
        beam = beam_pattern(plant, x, trp_angles, channel_bw, per_element=per_element)
        metrics["aclr_trp_dbc"] = aclr_trp(beam)
    freqs, db = psd(z)
    return EvalResult(metrics, freqs, db, beam)


def _base_spec(family: str = "full_dual_input", max_order: int = 9, memory_depth: int = 3,
               cross_memory_depth: int = 2) -> BasisSpec:
    """Single-region basis of a scenario's "basis" section (and of pwdpd train)."""
    return BasisSpec(family, max_order, memory_depth, cross_memory_depth)


def load_scenario_plant(config: dict) -> tuple[ArrayPlant, dict]:
    """The config's plant preset and its parameters, with the config's
    top-level drive, CFR target, noise floor and coupling overrides."""
    name = config.get("preset", SHARED["preset"])
    plant, preset = load_plant_preset(name), preset_params(name)
    preset.update((key, config[key]) for key in ("drive_rms", "cfr_target_papr_db",
                                                 "noise_floor_dbc") if key in config)
    if "coupling_strength" in config:
        plant = replace(plant, coupling_strength=config["coupling_strength"])
    return plant, preset


def train_method(method: str, plant: ArrayPlant, preset: dict, config: dict,
                 spec_single: BasisSpec, partitions: dict,
                 seed: int) -> tuple[DpdModel | None, list]:
    """Train one method name from METHODS; returns (model, trace).

    partitions maps "taylor"/"kmeans" to RegionPartition objects; pwcl_kmeans
    uses the kmeans entry, every other piecewise method the taylor entry.
    """
    if method == "none":
        return None, []
    noise = preset["noise_floor_dbc"]
    if method.startswith("pw"):
        key = "kmeans" if method == "pwcl_kmeans" else "taylor"
        spec = spec_single.with_partition(partitions[key])
    else:
        spec = spec_single
    loop = SimulatedLoop(plant, preset, seed)
    if method in ("pw_ila", "ila"):
        return ila_learn(loop, spec, noise_floor_dbc=noise, **config_section(config, "ila"))
    rule = "self_orthogonalized" if method.endswith("selforth") else "orthogonal_bfs"
    return learn(loop, spec, LearnConfig(rule=rule, noise_floor_dbc=noise,
                                         **config_section(config, "learn")))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_manifest(outdir: Path, config: dict) -> Path:
    entries = []
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries.append({"name": str(path.relative_to(outdir)),
                            "sha256": digest, "bytes": path.stat().st_size})
    manifest = {"schema_version": 1, "config": config, "artifacts": entries}
    path = outdir / "manifest.json"
    _write_json(path, manifest)
    return path


def _partitions(plant: ArrayPlant, preset: dict, config: dict, seed: int,
                kmeans: bool) -> dict:
    """Taylor partition from the config's "partition" section at seed*1000+17,
    plus K-means with as many regions when kmeans is set; maps "taylor"/"kmeans"
    to (RegionPartition, info)."""
    taylor = derive_partition(plant, preset, seed=seed * 1000 + 17,
                              **config_section(config, "partition"))
    partitions = {"taylor": taylor}
    if kmeans:
        partitions["kmeans"] = derive_partition(plant, preset, seed=seed * 1000 + 17,
                                                method="kmeans", n_regions=taylor[0].n_regions)
    return partitions


def _trp_angles(trp) -> np.ndarray | None:
    """Angle grid of an "eval" section's trp_angles: an object of start, stop
    and step in degrees (stop included), true for -50..50 in 2-degree steps,
    or null/false for no TRP sweep."""
    if trp is True:
        trp = {"start": -50.0, "stop": 50.0, "step": 2.0}
    if trp is None or trp is False:
        return None
    if not isinstance(trp, dict) or set(trp) != {"start", "stop", "step"}:
        raise ConfigError(f"eval.trp_angles must be true, false, null or an object with "
                          f"start, stop and step; got {trp!r}")
    if not trp["step"] > 0:
        raise ConfigError(f"eval.trp_angles step must be positive, got {trp['step']!r}")
    return np.arange(trp["start"], trp["stop"] + 1e-9, trp["step"])


@dataclass
class _Pipeline:
    plant: ArrayPlant     # as loaded, before any steering
    spec: BasisSpec       # single-region basis
    partitions: dict      # "taylor"/"kmeans" -> (RegionPartition, info)
    runs: Iterator        # yields (label, model, trace, [EvalResult per evaluation plant])


def _pipeline(config: dict, runs: list, seed: int, drive_offset_db: float = 0.0,
              angles: list | None = None) -> _Pipeline:
    """Plant -> partition -> train -> evaluate, the chain every trained kind runs.

    runs lists (label, method, training seed, learn overrides). The partitions
    are derived up front when a piecewise method needs them. Each model is
    evaluated on fresh data at seed*100+7 with the config's "eval" settings:
    on the plant at the preset noise floor or, when angles are given, trained
    on the plant steered to 0 degrees and evaluated noise-free at each angle.
    The runs are trained lazily as the caller iterates, so a caller can write
    each run's files before the next one trains.
    """
    plant, preset = load_scenario_plant(config)
    preset["drive_rms"] *= 10 ** (drive_offset_db / 20)
    spec = _base_spec(**config_section(config, "basis"))
    methods = [method for _, method, _, _ in runs]
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; have {METHODS}")
    if angles is None:
        train_plant, noise = plant, preset.get("noise_floor_dbc")
        eval_plants = [plant]
    else:
        train_plant, noise = steer(plant, 0.0), None
        eval_plants = [steer(plant, float(a)) for a in angles]
    partitions = {}
    if any(m.startswith("pw") for m in methods):
        partitions = _partitions(train_plant, preset, config, seed,
                                 kmeans="pwcl_kmeans" in methods)
    parts = {key: part for key, (part, _) in partitions.items()}

    eval_kw = dict(config_section(config, "eval"), noise_floor_dbc=noise)
    eval_kw["trp_angles"] = _trp_angles(eval_kw.get("trp_angles"))

    def trained():
        for label, method, train_seed, overrides in runs:
            run_config = config
            if overrides:
                run_config = dict(config, learn=dict(config_section(config, "learn"), **overrides))
            model, trace = train_method(method, train_plant, preset, run_config, spec, parts,
                                        seed=train_seed)
            evals = [evaluate(p, preset, model, seed * 100 + 7, **eval_kw) for p in eval_plants]
            yield label, model, trace, evals

    return _Pipeline(plant, spec, partitions, trained())


def _save_run(outdir: Path, label: str, model: DpdModel | None, trace: list) -> None:
    if model is not None:
        save_model(model, outdir / label)
        trace_to_csv(trace, outdir / f"trace_{label}.csv")


def run_linearization(config: dict, outdir: Path, seed: int,
                      methods: tuple = ("none", "pwcl_orth")) -> dict:
    out = _pipeline(config, [(m, m, seed * 100 + idx, {}) for idx, m in enumerate(methods)],
                    seed)

    part_info = None
    if "taylor" in out.partitions:
        taylor, part_info = out.partitions["taylor"]
        taylor.save(outdir / "partition.json")
    if "kmeans" in out.partitions:
        km, km_info = out.partitions["kmeans"]
        km.save(outdir / "partition_kmeans.json")
        part_info = {"taylor": part_info, "kmeans": km_info}

    results = {}
    for method, model, trace, (res,) in out.runs:
        _save_run(outdir, method, model, trace)
        _write_csv(outdir / f"psd_{method}.csv", "freq_hz,psd_db_hz",
                   zip(res.psd_freqs.tolist(), res.psd_db.tolist()))
        if res.beam is not None:
            _write_csv(outdir / f"beam_{method}.csv",
                       "angle_deg,inband_power,adjacent_low,adjacent_high",
                       zip(res.beam.angles_deg.tolist(), res.beam.inband_power.tolist(),
                           res.beam.adjacent_power_low.tolist(),
                           res.beam.adjacent_power_high.tolist()))
        entry = dict(res.metrics)
        if model is not None:
            entry["coefficients"] = int(model.gamma.size)
            entry["active_coefficients"] = int(model.active_mask.sum())
            entry["gamma_norm"] = float(np.linalg.norm(model.gamma))
            entry["final_error_power_dbc"] = trace[-1].error_power_dbc if trace else None
        results[method] = entry
    return {"kind": "linearization", "partition": part_info, "methods": results}


def run_powersweep(config: dict, outdir: Path, seed: int,
                   methods: tuple = ("none", "pwcl_orth", "pw_ila"),
                   offsets_db: tuple = (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0)) -> dict:
    rows = []
    for i, offset_db in enumerate(map(float, offsets_db)):
        point_seed = seed + 31 * i
        out = _pipeline(config, [(m, m, point_seed * 100 + j, {}) for j, m in enumerate(methods)],
                        point_seed, drive_offset_db=offset_db)
        row = {"offset_db": offset_db}
        for method, _, _, (res,) in out.runs:
            row[method] = {"aclr_dbc": res.metrics["aclr_dbc"],
                           "evm_percent": res.metrics["evm_percent"]}
        rows.append(row)
    csv_rows = []
    for row in rows:
        for m in methods:
            csv_rows.append((row["offset_db"], m, row[m]["aclr_dbc"], row[m]["evm_percent"]))
    _write_csv(outdir / "powersweep.csv", "offset_db,method,aclr_dbc,evm_percent", csv_rows)
    return {"kind": "powersweep", "offsets_db": list(offsets_db), "rows": rows}


def run_anglesweep(config: dict, outdir: Path, seed: int,
                   angles: tuple = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
                   method: str = "pwcl_orth") -> dict:
    """Train at 0 degrees, evaluate the frozen model across steering angles."""
    out = _pipeline(config, [(method, method, seed * 100, {})], seed, angles=angles)
    (_, _, _, evals), = out.runs
    rows = [(float(a), res.metrics["aclr_dbc"], res.metrics["evm_percent"])
            for a, res in zip(angles, evals)]
    _write_csv(outdir / "angle_sweep.csv", "angle_deg,aclr_dbc,evm_percent", rows)
    return {"kind": "anglesweep", "coupling_strength": out.plant.coupling_strength,
            "rows": [{"angle_deg": a, "aclr_dbc": b, "evm_percent": c} for a, b, c in rows]}


def run_partition_demo(config: dict, outdir: Path, seed: int) -> dict:
    plant, preset = load_scenario_plant(config)
    partitions = _partitions(plant, preset, config, seed, kmeans=True)
    (taylor, taylor_info), (km, km_info) = partitions["taylor"], partitions["kmeans"]
    taylor.save(outdir / "partition_taylor.json")
    km.save(outdir / "partition_kmeans.json")
    return {"kind": "partition", "taylor": taylor_info, "kmeans": km_info}


def run_pruning_study(config: dict, outdir: Path, seed: int,
                      prune_threshold_db: float = -40.0) -> dict:
    runs = [(label, "pwcl_orth", seed * 100, {"prune_threshold_db": th})
            for label, th in (("unpruned", None), ("pruned", prune_threshold_db))]
    out = _pipeline(config, runs, seed)
    partition_obj, part_info = out.partitions["taylor"]
    results = {}
    for label, model, trace, (res,) in out.runs:
        _save_run(outdir, label, model, trace)
        results[label] = {
            "aclr_dbc": res.metrics["aclr_dbc"],
            "evm_percent": res.metrics["evm_percent"],
            "coefficients": int(model.gamma.size),
            "active_coefficients": int(model.active_mask.sum()),
        }

    spec = out.spec.with_partition(partition_obj)
    _write_json(outdir / "bf_descriptors.json", basis_descriptors_json(spec))
    learn_cfg, ila_cfg = ({**accepted_settings(*SECTIONS[name]), **config_section(config, name)}
                          for name in ("learn", "ila"))
    params = complexity_mod.params_from_spec(
        spec, b_cl=learn_cfg["block_size"], i_cl=learn_cfg["iterations"],
        b_ila=ila_cfg["block_size"], i_ila=ila_cfg["iterations"],
        n_pw_pruned=results["pruned"]["active_coefficients"])
    pruned_cost = complexity_mod.flops("pwcl_orth_pruned", params)["learn_total"]
    unpruned_params = replace(params, n_pw_pruned=params.n_pw)
    unpruned_cost = complexity_mod.flops("pwcl_orth_pruned", unpruned_params)["learn_total"]
    return {
        "kind": "pruning",
        "partition": part_info,
        "threshold_db": prune_threshold_db,
        "unpruned": results["unpruned"],
        "pruned": results["pruned"],
        "learn_flops_per_sample": {"unpruned": unpruned_cost, "pruned": pruned_cost,
                                   "reduction": 1 - pruned_cost / unpruned_cost},
    }


def run_complexity(config: dict, outdir: Path, params: str | dict = "reference",
                   exact_division: bool = False) -> dict:
    params = complexity_mod.load_params(params)
    ledger = complexity_mod.full_ledger(params, exact_division=exact_division)
    (outdir / "ledger.txt").write_text(complexity_mod.format_ledger(ledger) + "\n")
    return {"kind": "complexity", "params": params.__dict__, "ledger": ledger}


# config section -> (the function or dataclass whose keyword defaults the
# section overrides, the keywords the pipeline sets itself)
SECTIONS = {
    "basis": (_base_spec, ()),
    "partition": (derive_partition, ("method", "n_regions")),
    "learn": (LearnConfig, ("rule", "noise_floor_dbc")),
    "ila": (ila_learn, ("noise_floor_dbc",)),
    "eval": (evaluate, ("noise_floor_dbc",)),
}

# scenario kind -> runner(config, outdir, ...); its keyword parameters with
# defaults are the kind's own top-level keys, and run_scenario passes it every
# setting it names (seed, for one)
RUNNERS = {
    "linearization": run_linearization,
    "powersweep": run_powersweep,
    "anglesweep": run_anglesweep,
    "partition": run_partition_demo,
    "pruning": run_pruning_study,
    "complexity": run_complexity,
}

# top-level keys every kind takes besides the section names, with their
# defaults; kind is checked against RUNNERS, and None marks an override whose
# default the preset supplies
SHARED = {"kind": None, "schema_version": 1, "preset": "array8-deep", "seed": 1,
          "drive_rms": None, "cfr_target_papr_db": None, "noise_floor_dbc": None,
          "coupling_strength": None}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# (test, description) of the values a config key takes, by the type of the
# default they replace (bool first, since a bool is an int); a None default
# is a stage that null turns off. An array's elements must pass the rule of
# the default's first element
_VALUE_TYPES = (
    (bool, (lambda v: isinstance(v, bool), "true or false")),
    (int, (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")),
    (float, (_is_number, "a number")),
    (str, (lambda v: isinstance(v, str), "a string")),
    (dict, (lambda v: isinstance(v, dict), "an object")),
    ((list, tuple), (lambda v: isinstance(v, list), "an array")),
    (type(None), (lambda v: v is None or _is_number(v), "a number or null")),
)

# the same by key name, for the keys whose default does not give their type;
# these win over _VALUE_TYPES (_trp_angles checks the object's fields)
_KEY_TYPES = {
    "kind": (lambda v: isinstance(v, str), "a string"),
    "drive_rms": (_is_number, "a number"),
    "coupling_strength": (_is_number, "a number"),
    "params": (lambda v: isinstance(v, (str, dict)), "\"reference\" or an object"),
    "trp_angles": (lambda v: v is None or isinstance(v, (bool, dict)),
                   "true, false, null or an object"),
}


def _value_rule(default) -> tuple:
    """(test, description) for the values that may replace `default`."""
    for default_type, rule in _VALUE_TYPES:
        if isinstance(default, default_type):
            return rule
    return (lambda v: True), "any value"


def accepted_settings(consumer, fixed: tuple) -> dict:
    """The keyword parameters of `consumer` a config may set, each with its
    default; `fixed` names those its caller sets itself."""
    return {p.name: p.default for p in inspect.signature(consumer).parameters.values()
            if p.default is not p.empty and p.name not in fixed}


def check_settings(values: dict, accepted: dict, where: str) -> dict:
    """values, once each key is one of `accepted` and each value, and each
    element of an array, has the type its default asks for (see _VALUE_TYPES
    and _KEY_TYPES); otherwise a ConfigError that names `where` and the key."""
    for key, value in values.items():
        if key not in accepted:
            raise ConfigError(f"{where} has unknown key {key!r}; it takes {sorted(accepted)}")
        default = accepted[key]
        fits, wanted = _KEY_TYPES.get(key) or _value_rule(default)
        if not fits(value):
            raise ConfigError(f"{where} key {key!r} must be {wanted}, got {value!r}")
        if isinstance(default, (list, tuple)) and default:
            fits, wanted = _value_rule(default[0])
            for element in value:
                if not fits(element):
                    raise ConfigError(f"{where} key {key!r} elements must each be {wanted}, "
                                      f"got {element!r}")
    return values


def config_section(config: dict, name: str) -> dict:
    """The config's section `name` (empty when absent), to be passed whole to
    its consumer; checked by check_settings against the consumer's keywords."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return check_settings(section, accepted_settings(*SECTIONS[name]), f"config section {name!r}")


def scenario_settings(config: dict) -> dict:
    """Every top-level setting of a scenario config, the config's value or the
    default: the SHARED keys, the section names and the keyword parameters of
    the kind's runner. The whole config, sections included, is checked first,
    so a misspelled or ill-typed key fails before any run starts."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("scenario config must be an object with a 'kind' field")
    kind = config["kind"]
    if not isinstance(kind, str) or kind not in RUNNERS:
        raise ConfigError(f"scenario config key 'kind' must name one of {tuple(RUNNERS)}, "
                          f"got {kind!r}")
    accepted = {**SHARED, **{name: {} for name in SECTIONS},
                **accepted_settings(RUNNERS[kind], ())}
    settings = {**accepted, **check_settings(config, accepted, f"{kind!r} scenario config")}
    if settings["schema_version"] != 1:
        raise ConfigError("unsupported scenario schema_version")
    for name in SECTIONS:
        config_section(config, name)
    return settings


def run_scenario(config: dict, outdir: str | Path) -> dict:
    """Dispatch a scenario config; writes metrics.json and the manifest and
    returns the metrics payload."""
    settings = scenario_settings(config)
    runner = RUNNERS[config["kind"]]
    kwargs = {name: settings[name] for name in inspect.signature(runner).parameters
              if name in settings}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = runner(config, outdir, **kwargs)
    _write_json(outdir / "metrics.json", payload)
    write_manifest(outdir, config)
    return payload
