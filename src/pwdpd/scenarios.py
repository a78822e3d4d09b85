"""Config-driven experiment pipelines and their output bundles.

scenario_settings checks a config once and fills each section with its
consumer's defaults; the runners, train_method and the CLI read the result.
Every scenario is deterministic given its seed: waveform seeds, learning
block seeds, and observation noise all derive from the config's seed by the
three seed rules below (partition_seed, training_seed, evaluation_seed),
which pwdpd generate, partition, train and evaluate read too, so each command
rebuilds its piece of a bundle. A run writes
its artifacts plus a manifest.json listing each file with a sha256 checksum,
so identical configs produce identical bundles at a fixed BLAS thread count;
across thread counts the learning and ILA solves round differently, and the
floats in metrics.json (and the files that hold them) differ in their last bits.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import complexity as complexity_mod
from .basis import BasisSpec
from .basis import descriptors_json as basis_descriptors_json
from .dpd import (LEARN_RANGES, DpdModel, LearnConfig, TraceRecord, estimate_gain, learn,
                  predistort, save_model, trace_to_csv)
from .errors import (ConfigError, DivergenceError, check_fields, check_keys, is_int, is_number,
                     write_csv, write_json)
from .ila import ILA_RANGES, ila_learn
from .metrics import (aclr_single_direction, aclr_trp, beam_pattern, evm, nmse, psd)
from .partition import (RegionPartition, check_region_count, fit_amam, kmeans_partition,
                        partition_regions)
from .plant import ArrayPlant, array_forward, observation_receive, steer
from .presets import load_plant_preset, preset_params
from .signals import IqSignal
from .waveform import OfdmConfig, crest_factor_reduce, generate_ofdm, papr_at

# DPD method -> (the partition it trains on: "taylor", "kmeans" or None for a
# single polynomial; its learner: "cl" for closed-loop dpd.learn, "ila", or
# None for no DPD). dpd.learn's one update is both the orthogonal-BF and the
# self-orthogonalized rule, so the *_orth and *_selforth methods train alike
METHODS = {
    "none": (None, None),
    "pwcl_orth": ("taylor", "cl"),
    "pwcl_selforth": ("taylor", "cl"),
    "pwcl_kmeans": ("kmeans", "cl"),
    "cl_orth": (None, "cl"),
    "cl_selforth": (None, "cl"),
    "pw_ila": ("taylor", "ila"),
    "ila": (None, "ila"),
}

# derive_partition: the ramp probe's AM/AM fit order, length and phase rate
# (cycles per sample), the Taylor partition's order and target error, OFDM
# samples that set the amplitude range and region shares, and the smallest
# share a trailing region may hold unmerged
FIT_ORDER = 9
RAMP_SAMPLES = 32768
RAMP_PHASE_RATE = 1e-3
TAYLOR_ORDER = 5
TAYLOR_TARGET_ERROR = 0.01
PARTITION_BLOCK = 40000
MIN_SHARE = 0.025

# the steering angles in degrees of the TRP sweep (eval.trp)
TRP_ANGLES = np.arange(-50.0, 50.0 + 1e-9, 2.0)
# the powersweep's methods and drive offsets in dB, the anglesweep's steering
# angles in degrees and method, and the pruning study's threshold in dB
POWERSWEEP_METHODS = ("none", "pwcl_orth", "pw_ila")
POWERSWEEP_OFFSETS_DB = (-2.0, -1.6, -1.2, -0.8, -0.4, 0.0)
ANGLESWEEP_ANGLES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
ANGLESWEEP_METHOD = "pwcl_orth"
PRUNE_THRESHOLD_DB = -40.0


def partition_seed(seed: int) -> int:
    """The seed of the partition pass of a config at seed `seed`."""
    return seed * 1000 + 17


def training_seed(seed: int, index: int) -> int:
    """The seed of the training blocks of a config's method number `index`."""
    return seed * 100 + index


def evaluation_seed(seed: int) -> int:
    """The seed of the frame every model of a config is evaluated on. It need
    not be fresh data: SimulatedLoop draws block j of method `index` at
    training_seed(seed, index) + j, so a learner that draws 7 - index blocks or
    more draws this frame too, as every closed-loop one of the shipped presets does."""
    return seed * 100 + 7


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
    phase-aligned observation combiner, with receiver noise at the preset's
    noise_floor_dbc (none when it is null).
    """

    def __init__(self, plant: ArrayPlant, preset: dict, seed: int = 0):
        self.plant = plant
        self.preset = preset
        self.seed = seed
        self._counter = 0
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEED]))

    def next_block(self, n: int) -> IqSignal:
        self._counter += 1
        seed = self.seed + self._counter
        ofdm = OfdmConfig(**self.preset["ofdm"])
        symbols = max(1, math.ceil((n - ofdm.wola_taper_samples) / ofdm.symbol_stride))
        sig, _, _ = preset_waveform(self.preset, symbols, seed)
        return IqSignal(sig.samples[:n], sig.sample_rate, seed)

    def transmit(self, x: IqSignal) -> IqSignal:
        return observation_receive(self.plant, array_forward(self.plant, x),
                                   self.preset["noise_floor_dbc"], self._noise_rng)


def ramp_probe(amax: float, sample_rate: float) -> IqSignal:
    """Slow full-scale envelope ramp (power-sweep characterization probe).

    The envelope rises linearly to amax while the phase rotates slowly, so
    plant memory taps add coherently and the observed response is the static
    amplitude curve rather than a memory-smeared cloud.
    """
    env = np.linspace(0.0, amax, RAMP_SAMPLES)
    phase = np.exp(2j * np.pi * RAMP_PHASE_RATE * np.arange(RAMP_SAMPLES))
    return IqSignal(env * phase, sample_rate)


def derive_partition(plant: ArrayPlant, preset: dict, seed: int,
                     n_regions: int | None = None) -> tuple[RegionPartition, dict]:
    """Amplitude partition from a characterization pass: the Taylor partition
    of TAYLOR_ORDER and TAYLOR_TARGET_ERROR, or K-means into n_regions regions
    when that is given.

    An OFDM block sets the amplitude range and the per-region sample shares;
    the amplitude response itself is extracted from a slow full-scale ramp
    probe, whose scatter-free response makes the fitted derivatives (and so
    the Taylor partition) reproducible. K-means partitioning clusters the
    OFDM block's envelope directly. For either method, a trailing region
    holding less than MIN_SHARE of the waveform samples is merged into its
    neighbor: such a region cannot support the per-region coefficient
    estimation downstream. An n_regions K-means cannot take is refused before
    the block is drawn.
    """
    if n_regions is not None:
        check_region_count(n_regions)
    loop = SimulatedLoop(plant, preset, seed)
    a1 = loop.next_block(PARTITION_BLOCK)
    amax = float(np.abs(a1.samples).max())
    if n_regions is None:
        probe = ramp_probe(amax, a1.sample_rate)
        zp = observation_receive(plant, array_forward(plant, probe))
        ghat = estimate_gain(probe, zp)
        model = fit_amam(probe, zp.with_samples(zp.samples / ghat), FIT_ORDER)
        part = partition_regions(model, TAYLOR_ORDER, TAYLOR_TARGET_ERROR)
        fit_residual = model.fit_residual
    else:
        z = observation_receive(plant, array_forward(plant, a1))
        ghat = estimate_gain(a1, z)
        part = kmeans_partition(a1, n_regions)
        fit_residual = 0.0
    counts = np.bincount(part.region_index(a1.samples), minlength=part.n_regions)
    while counts.size > 1 and counts[-1] / PARTITION_BLOCK < MIN_SHARE:
        counts = np.append(counts[:-2], counts[-2] + counts[-1])
    part = RegionPartition(np.append(part.edges[:counts.size], part.a_max))
    info = {
        "method": "taylor" if n_regions is None else "kmeans",
        "edges": part.edges.tolist(),
        "sample_share": (counts / PARTITION_BLOCK).tolist(),
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


def observe(plant: ArrayPlant, preset: dict, x: IqSignal,
            seed: int) -> tuple[list[IqSignal], IqSignal]:
    """(per-element outputs, observation) of x through plant, with receiver
    noise at the preset's noise_floor_dbc (none when it is null) drawn from the
    evaluation noise stream of seed; evaluate and pwdpd simulate both call it."""
    per_element = array_forward(plant, x)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    return per_element, observation_receive(plant, per_element, preset["noise_floor_dbc"], rng)


def evaluate(plant: ArrayPlant, preset: dict, model: DpdModel | None, seed: int,
             num_symbols: int = 4, trp: bool = False) -> EvalResult:
    """Evaluation of one DPD model (or the no-DPD reference) on the frame of
    seed (see evaluation_seed) and the observation of observe; trp adds the
    beam pattern and TRP ACLR over TRP_ANGLES."""
    a1, grid, cfg = preset_waveform(preset, num_symbols, seed)
    x = predistort(model, a1) if model is not None else a1
    per_element, z = observe(plant, preset, x, seed)
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
    if trp:
        beam = beam_pattern(per_element, TRP_ANGLES, channel_bw)
        metrics["aclr_trp_dbc"] = aclr_trp(beam)
    freqs, db = psd(z)
    return EvalResult(metrics, freqs, db, beam)


def _base_spec(family: str = "full_dual_input", max_order: int = 9, memory_depth: int = 3,
               cross_memory_depth: int = 2) -> BasisSpec:
    """Single-region basis of a scenario's "basis" section, whose defaults these are."""
    return BasisSpec(family, max_order, memory_depth, cross_memory_depth)


def load_scenario_plant(config: dict) -> tuple[ArrayPlant, dict]:
    """The plant preset of a scenario config (raw, or resolved by
    scenario_settings) and its parameters, with the top-level coupling override."""
    name = config.get("preset", SHARED["preset"])
    plant, preset = load_plant_preset(name), preset_params(name)
    if config.get("coupling_strength") is not None:
        plant = replace(plant, coupling_strength=config["coupling_strength"])
    return plant, preset


def train_method(method: str, plant: ArrayPlant, preset: dict, settings: dict,
                 partition: RegionPartition | None, seed: int) -> tuple[DpdModel | None, list]:
    """Train one method of METHODS by its learner on the basis of the settings
    over partition (None for a single polynomial); returns (model, trace)."""
    learner = METHODS[method][1]
    if learner is None:
        return None, []
    spec = BasisSpec(**settings["basis"], partition=partition)
    loop = SimulatedLoop(plant, preset, seed)
    if learner == "ila":
        return ila_learn(loop, spec, **settings["ila"])
    return learn(loop, spec, LearnConfig(**settings["learn"]))


def write_manifest(outdir: Path, config: dict) -> Path:
    """manifest.json: the config, the package and numpy versions that ran it,
    and each artifact's name, sha256 and size."""
    entries = []
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries.append({"name": str(path.relative_to(outdir)),
                            "sha256": digest, "bytes": path.stat().st_size})
    manifest = {"schema_version": 1, "config": config,
                "versions": {"pwdpd": __version__, "numpy": np.__version__},
                "artifacts": entries}
    path = outdir / "manifest.json"
    write_json(path, manifest)
    return path


def _partitions(plant: ArrayPlant, preset: dict, seed: int, kinds) -> dict:
    """The partition kinds asked for, each derived at partition_seed(seed); maps
    "taylor"/"kmeans" to (RegionPartition, info). Taylor is derived whenever
    any kind is asked for, since K-means takes its number of regions."""
    if not kinds:
        return {}
    taylor = derive_partition(plant, preset, partition_seed(seed))
    partitions = {"taylor": taylor}
    if "kmeans" in kinds:
        partitions["kmeans"] = derive_partition(plant, preset, partition_seed(seed),
                                                n_regions=taylor[0].n_regions)
    return partitions


@dataclass
class _Pipeline:
    plant: ArrayPlant     # as loaded, before any steering
    partitions: dict      # "taylor"/"kmeans" -> (RegionPartition, info)
    runs: Iterator        # yields (label, model, trace, [EvalResult per evaluation plant])


def _pipeline(settings: dict, runs: list, seed: int, drive_offset_db: float = 0.0,
              angles: list | None = None) -> _Pipeline:
    """Plant -> partition -> train -> evaluate, the chain every trained kind runs.

    runs lists (label, method, training seed, learn overrides). The partitions
    are derived up front when a piecewise method needs them. Each model is
    evaluated on the frame of evaluation_seed(seed) with the "eval" settings:
    on the plant at the preset noise floor or, when angles are given, trained
    on the plant steered to 0 degrees and evaluated at each angle with the
    preset's noise floor set to null.
    The runs are trained lazily as the caller iterates, so a caller can write
    each run's files before the next one trains.
    """
    plant, preset = load_scenario_plant(settings)
    preset["drive_rms"] *= 10 ** (drive_offset_db / 20)
    if angles is None:
        train_plant, eval_preset, eval_plants = plant, preset, [plant]
    else:
        train_plant, eval_preset = steer(plant, 0.0), dict(preset, noise_floor_dbc=None)
        eval_plants = [steer(plant, float(a)) for a in angles]
    partitions = _partitions(train_plant, preset, seed,
                             {METHODS[method][0] for _, method, _, _ in runs} - {None})

    def trained():
        for label, method, train_seed, overrides in runs:
            kind = METHODS[method][0]
            run_settings = dict(settings, learn={**settings["learn"], **overrides})
            model, trace = train_method(method, train_plant, preset, run_settings,
                                        partitions[kind][0] if kind else None, seed=train_seed)
            evals = [evaluate(p, eval_preset, model, evaluation_seed(seed), **settings["eval"])
                     for p in eval_plants]
            yield label, model, trace, evals

    return _Pipeline(plant, partitions, trained())


def _save_run(outdir: Path, label: str, model: DpdModel | None, trace: list) -> None:
    if model is not None:
        save_model(model, outdir / label)
        trace_to_csv(trace, outdir / f"trace_{label}.csv")


def run_linearization(settings: dict, outdir: Path, seed: int,
                      methods: tuple = ("none", "pwcl_orth")) -> dict:
    out = _pipeline(settings, [(m, m, training_seed(seed, idx), {})
                             for idx, m in enumerate(methods)], seed)

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
        write_csv(outdir / f"psd_{method}.csv", "freq_hz,psd_db_hz",
                   zip(res.psd_freqs.tolist(), res.psd_db.tolist()))
        if res.beam is not None:
            write_csv(outdir / f"beam_{method}.csv",
                       "angle_deg,inband_power,adjacent_low,adjacent_high",
                       zip(res.beam.angles_deg.tolist(), res.beam.inband_power.tolist(),
                           res.beam.adjacent_power_low.tolist(),
                           res.beam.adjacent_power_high.tolist()))
        entry = dict(res.metrics)
        if model is not None:
            entry["coefficients"] = int(model.gamma.size)
            entry["active_coefficients"] = trace[0].active_count
            entry["gamma_norm"] = float(np.linalg.norm(model.gamma))
            entry["final_error_power_dbc"] = trace[-1].error_power_dbc
        results[method] = entry
    return {"kind": "linearization", "partition": part_info, "methods": results}


def run_powersweep(settings: dict, outdir: Path, seed: int) -> dict:
    """POWERSWEEP_METHODS at each drive offset of POWERSWEEP_OFFSETS_DB."""
    rows = []
    for i, offset_db in enumerate(POWERSWEEP_OFFSETS_DB):
        point_seed = seed + 31 * i
        out = _pipeline(settings, [(m, m, training_seed(point_seed, j), {})
                                 for j, m in enumerate(POWERSWEEP_METHODS)],
                        point_seed, drive_offset_db=offset_db)
        row = {"offset_db": offset_db}
        for method, _, _, (res,) in out.runs:
            row[method] = {"aclr_dbc": res.metrics["aclr_dbc"],
                           "evm_percent": res.metrics["evm_percent"]}
        rows.append(row)
    csv_rows = []
    for row in rows:
        for m in POWERSWEEP_METHODS:
            csv_rows.append((row["offset_db"], m, row[m]["aclr_dbc"], row[m]["evm_percent"]))
    write_csv(outdir / "powersweep.csv", "offset_db,method,aclr_dbc,evm_percent", csv_rows)
    return {"kind": "powersweep", "offsets_db": list(POWERSWEEP_OFFSETS_DB), "rows": rows}


def run_anglesweep(settings: dict, outdir: Path, seed: int) -> dict:
    """Train ANGLESWEEP_METHOD at 0 degrees, evaluate the frozen model at each
    steering angle of ANGLESWEEP_ANGLES."""
    out = _pipeline(settings, [(ANGLESWEEP_METHOD, ANGLESWEEP_METHOD, training_seed(seed, 0),
                                {})], seed, angles=ANGLESWEEP_ANGLES)
    (_, _, _, evals), = out.runs
    rows = [(a, res.metrics["aclr_dbc"], res.metrics["evm_percent"])
            for a, res in zip(ANGLESWEEP_ANGLES, evals)]
    write_csv(outdir / "angle_sweep.csv", "angle_deg,aclr_dbc,evm_percent", rows)
    return {"kind": "anglesweep", "coupling_strength": out.plant.coupling_strength,
            "rows": [{"angle_deg": a, "aclr_dbc": b, "evm_percent": c} for a, b, c in rows]}


def run_pruning_study(settings: dict, outdir: Path, seed: int) -> dict:
    """pwcl_orth unpruned and pruned at PRUNE_THRESHOLD_DB."""
    runs = [(label, "pwcl_orth", training_seed(seed, 0), {"prune_threshold_db": th})
            for label, th in (("unpruned", None), ("pruned", PRUNE_THRESHOLD_DB))]
    out = _pipeline(settings, runs, seed)
    results = {}
    for label, model, trace, (res,) in out.runs:
        _save_run(outdir, label, model, trace)
        results[label] = {
            "aclr_dbc": res.metrics["aclr_dbc"],
            "evm_percent": res.metrics["evm_percent"],
            "coefficients": int(model.gamma.size),
            "active_coefficients": trace[0].active_count,
        }

    spec = model.spec  # the pruned model's piecewise basis
    write_json(outdir / "bf_descriptors.json", basis_descriptors_json(spec))
    learn_cfg, ila_cfg = settings["learn"], settings["ila"]
    params = complexity_mod.params_from_spec(
        spec, b_cl=learn_cfg["block_size"], i_cl=learn_cfg["iterations"],
        b_ila=ila_cfg["block_size"], i_ila=ila_cfg["iterations"],
        n_pw_pruned=results["pruned"]["active_coefficients"])
    pruned_cost = complexity_mod.flops("pwcl_orth_pruned", params)["learn_total"]
    unpruned_params = replace(params, n_pw_pruned=params.n_pw)
    unpruned_cost = complexity_mod.flops("pwcl_orth_pruned", unpruned_params)["learn_total"]
    return {
        "kind": "pruning",
        "partition": out.partitions["taylor"][1],
        "threshold_db": PRUNE_THRESHOLD_DB,
        "unpruned": results["unpruned"],
        "pruned": results["pruned"],
        "learn_flops_per_sample": {"unpruned": unpruned_cost, "pruned": pruned_cost,
                                   "reduction": 1 - pruned_cost / unpruned_cost},
    }


# config section -> the function or dataclass whose keyword defaults the
# section overrides
SECTIONS = {
    "basis": _base_spec,
    "learn": LearnConfig,
    "ila": ila_learn,
    "eval": evaluate,
}

# config section -> key -> (test, wanted): the range of each value its
# consumer refuses, so a config is refused before any waveform is drawn. The
# block_size >= 10 x coefficient-count checks need the partition and stay
# with dpd.learn and ila_learn
SECTION_RANGES = {
    "learn": LEARN_RANGES,
    "ila": ILA_RANGES,
    "eval": {"num_symbols": (lambda v: v >= 1, "at least 1")},
}

# scenario kind -> runner(settings, outdir, ...), settings from scenario_settings;
# its keyword parameters with defaults are the kind's own top-level keys, and
# run_scenario passes it every setting it names (seed, for one)
RUNNERS = {
    "linearization": run_linearization,
    "powersweep": run_powersweep,
    "anglesweep": run_anglesweep,
    "pruning": run_pruning_study,
}

# top-level keys every kind takes besides the section names, with their
# defaults; kind is checked against RUNNERS, and coupling_strength's default
# is the plant preset's
SHARED = {"kind": None, "schema_version": 1, "preset": "array8-deep", "seed": 1,
          "coupling_strength": None}


# (test, description) of the values a config key takes, by the type of the
# default they replace (bool first, since a bool is an int); a None default
# is a stage that null turns off. An array key is typed by name in _KEY_TYPES
_VALUE_TYPES = (
    (bool, (lambda v: isinstance(v, bool), "true or false")),
    (int, (is_int, "an integer")),
    (float, (is_number, "a finite number")),
    (str, (lambda v: isinstance(v, str), "a string")),
    (dict, (lambda v: isinstance(v, dict), "an object")),
    (type(None), (lambda v: v is None or is_number(v), "a finite number or null")),
)

# the same by key name, for the keys whose default does not give their type
# or admits values the key cannot take; these win over _VALUE_TYPES
_KEY_TYPES = {
    "kind": (lambda v: isinstance(v, str), "a string"),
    "seed": (lambda v: is_int(v) and v >= 0, "a non-negative integer"),
    "coupling_strength": (is_number, "a finite number"),
    "methods": (lambda v: isinstance(v, list)
                and all(isinstance(m, str) and m in METHODS for m in v),
                f"an array of method names from {tuple(METHODS)}"),
}


def _value_rule(default) -> tuple:
    """(test, description) for the values that may replace `default`."""
    return next(rule for default_type, rule in _VALUE_TYPES if isinstance(default, default_type))


def accepted_settings(consumer) -> dict:
    """The keyword parameters of `consumer` a config may set, each with its default."""
    return {p.name: p.default for p in inspect.signature(consumer).parameters.values()
            if p.default is not p.empty}


def check_settings(values: dict, accepted: dict, where: str) -> dict:
    """values, once each key is one of `accepted` and each value passes its
    one rule (see _KEY_TYPES and _VALUE_TYPES); otherwise a ConfigError that
    names `where` and the key."""
    check_keys(values, accepted, where)
    return check_fields(values, {key: _KEY_TYPES.get(key) or _value_rule(accepted[key])
                                 for key in values}, where)


def scenario_settings(config: dict) -> dict:
    """Every setting of a scenario config, the config's value or the default:
    the SHARED keys, the keyword parameters of the kind's runner, and each
    section of SECTIONS filled with its consumer's keyword defaults. Each key
    is checked here once, a section's values against SECTION_RANGES too, so a
    bad config fails before any run starts."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("scenario config must be an object with a 'kind' field")
    kind = config["kind"]
    if not isinstance(kind, str) or kind not in RUNNERS:
        raise ConfigError(f"scenario config key 'kind' must name one of {tuple(RUNNERS)}, "
                          f"got {kind!r}")
    accepted = {**SHARED, **{name: {} for name in SECTIONS},
                **accepted_settings(RUNNERS[kind])}
    settings = {**accepted, **check_settings(config, accepted, f"{kind!r} scenario config")}
    if settings["schema_version"] != 1:
        raise ConfigError("unsupported scenario schema_version")
    for name, consumer in SECTIONS.items():
        defaults, where = accepted_settings(consumer), f"config section {name!r}"
        section = {**defaults, **check_settings(settings[name], defaults, where)}
        settings[name] = check_fields(section, SECTION_RANGES.get(name, {}), where)
    return settings


def run_scenario(config: dict, outdir: str | Path) -> dict:
    """Dispatch a scenario config into outdir, a directory that holds no files
    yet (so the manifest lists this run's files only); writes metrics.json and
    the manifest and returns the metrics payload. A run that fails leaves
    error.json (the exception, the config and a diverged learner's trace)
    beside the files it finished."""
    outdir = Path(outdir)
    if outdir.is_dir() and any(outdir.iterdir()):
        raise ConfigError(f"bundle directory {outdir} already holds files; "
                          "give a new or empty one")
    try:
        settings = scenario_settings(config)
        runner = RUNNERS[settings["kind"]]
        kwargs = {name: settings[name] for name in inspect.signature(runner).parameters
                  if name in settings}
        outdir.mkdir(parents=True, exist_ok=True)
        payload = runner(settings, outdir, **kwargs)
        write_json(outdir / "metrics.json", payload)
        write_manifest(outdir, config)
    except Exception as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        record = {"error": type(exc).__name__, "message": str(exc), "config": config}
        if isinstance(exc, DivergenceError):
            record["trace"] = [{c: getattr(r, c) for c in TraceRecord.COLUMNS} for r in exc.trace]
        write_json(outdir / "error.json", record)
        raise
    return payload
