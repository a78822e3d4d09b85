"""Command-line front end.

Subcommands compose through the documented file formats (IQ pairs with JSON
sidecars, partition and model JSON, CSV traces), and every one but complexity
reads its plant, seed and settings from a scenario config, as
scenarios.scenario_settings checks and resolves it; none reads a plant file
or checks a config section itself. Exit codes: 0 success, 2 configuration
error, 3 numerical degeneracy, 4 learning divergence. The output root for
scenario bundles defaults to the PWDPD_OUT environment variable, then the
current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from importlib import resources
from pathlib import Path

import numpy as np

from . import complexity as complexity_mod
from .dpd import load_model, save_model, trace_to_csv
from .errors import (ConfigError, DegenerateRegionError, DemodulationError, DivergenceError,
                     read_json, write_json)
from .metrics import aclr_single_direction
from .partition import RegionPartition
from .plant import steer
from .scenarios import (METHODS, _partitions, derive_partition, evaluate, evaluation_seed,
                        load_scenario_plant, observe, partition_seed, preset_waveform,
                        run_scenario, scenario_settings, train_method)
from .signals import read_iq, write_iq
from .waveform import papr_ccdf

EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4


def finite_float(text: str) -> float:
    """argparse type of every float flag: a usage error (exit 2) naming the
    flag for nan, inf or anything float() does not read."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type of every --seed: a usage error (exit 2) naming the flag
    for a negative value or anything int() does not read."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def scenario_preset(name: str) -> dict:
    ref = resources.files("pwdpd").joinpath(f"presets/scenarios/{name}.json")
    if not ref.is_file():
        have = sorted(p.name[:-5] for p in
                      resources.files("pwdpd").joinpath("presets/scenarios").iterdir())
        raise ConfigError(f"unknown scenario preset {name!r}; have {have}")
    return read_json(ref, dict)


def _load_config(args, parse=dict):
    """parse applied to the scenario config of --config or --preset; a refused
    --config file is named."""
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        return read_json(args.config, parse)
    if args.preset:
        return parse(scenario_preset(args.preset))
    raise ConfigError("give a scenario config: --config FILE or --preset NAME")


def _scenario(args) -> tuple:
    """(scenario_settings, plant with the coupling override, plant preset
    parameters) of the scenario config of --preset or --config."""
    return _load_config(args, lambda config: (scenario_settings(config),
                                              *load_scenario_plant(config)))


def cmd_generate(args) -> int:
    settings, _, params = _scenario(args)
    sig, grid, cfg = preset_waveform(params, settings["eval"]["num_symbols"],
                                     evaluation_seed(settings["seed"]))
    iq_path, _ = write_iq(args.output, sig)
    np.save(f"{args.output}.grid.npy", grid)
    print(f"wrote {iq_path} ({len(sig)} samples at {sig.sample_rate / 1e6:.2f} MHz, "
          f"RMS {sig.rms:.2f}, occupied {cfg.occupied_bandwidth / 1e6:.2f} MHz)")
    for p, level in papr_ccdf(sig, [0.01, 0.0001]):
        print(f"PAPR @ {p:g}: {level:.2f} dB")
    return 0


def cmd_simulate(args) -> int:
    settings, plant, params = _scenario(args)
    if args.angle is not None:
        plant = steer(plant, args.angle)
    _, z = observe(plant, params, read_iq(args.input), evaluation_seed(settings["seed"]))
    iq_path, _ = write_iq(args.output, z)
    print(f"wrote {iq_path} ({len(z)} samples)")
    try:  # a short or narrowband signal still got written; the ACLR line is optional
        print(f"observation ACLR: {aclr_single_direction(z, params['channel_bw']):.2f} dBc")
    except ConfigError as exc:
        print(f"observation ACLR: n/a ({exc})")
    return 0


def cmd_partition(args) -> int:
    settings, plant, params = _scenario(args)
    part, info = derive_partition(plant, params, partition_seed(settings["seed"]),
                                  n_regions=args.regions)
    if args.output:
        part.save(args.output)
    print(f"{info['method']} partition, K = {part.n_regions} "
          f"(fit residual {info['fit_residual']:.4f})")
    print(f"{'region':>6} {'u_k':>10} {'v_k':>10} {'share':>8}")
    for k in range(part.n_regions):
        print(f"{k:>6} {part.edges[k]:>10.4f} {part.edges[k + 1]:>10.4f} "
              f"{info['sample_share'][k]:>8.3f}")
    return 0


def cmd_train(args) -> int:
    kind, learner = METHODS.get(args.method, (None, None))
    if learner is None:
        raise ConfigError(f"unknown training method {args.method!r}; "
                          f"have {[m for m, (_, how) in METHODS.items() if how is not None]}")
    if kind is None and args.partition is not None:
        raise ConfigError(f"--partition needs a piecewise method, not {args.method!r}")
    settings, plant, params = _scenario(args)
    partition = None
    if args.partition:
        partition = RegionPartition.load(args.partition)
    elif kind is not None:
        partition = _partitions(plant, params, settings["seed"], {kind})[kind][0]
    model, trace = train_method(args.method, plant, params, settings, partition, seed=args.seed)
    model_path = save_model(model, args.output)
    trace_to_csv(trace, f"{args.output}.trace.csv")
    print(f"wrote {model_path} "
          f"({trace[0].active_count}/{model.gamma.size} active coefficients)")
    print(f"final error power: {trace[-1].error_power_dbc:.2f} dBc")
    return 0


def cmd_evaluate(args) -> int:
    settings, plant, params = _scenario(args)
    model = load_model(args.model) if args.model else None
    res = evaluate(plant, params, model, evaluation_seed(settings["seed"]), **settings["eval"])
    print(json.dumps({k: round(v, 4) for k, v in res.metrics.items()},
                     indent=2, sort_keys=True))
    if args.output:
        write_json(args.output, res.metrics)
    return 0


def cmd_complexity(args) -> int:
    params = (read_json(args.params, lambda fields: complexity_mod.ComplexityParams(**fields))
              if args.params else complexity_mod.reference_params())
    ledger = complexity_mod.full_ledger(params)
    print(complexity_mod.format_ledger(ledger))
    if args.json_out:
        write_json(args.json_out, ledger)
    return 0


def cmd_scenario(args) -> int:
    config = _load_config(args)
    kind = config.get("kind")  # run_scenario reports a missing or ill-typed kind
    outdir = (Path(args.out or os.environ.get("PWDPD_OUT", "."))
              / (args.name or (kind if isinstance(kind, str) else "scenario")))
    try:
        payload = run_scenario(config, outdir)
    except ConfigError as exc:  # a refused run names the --config file it ran
        if args.config:
            raise ConfigError(f"{args.config}: {exc}") from None
        raise
    print(f"bundle written to {outdir}")
    summary = {"kind": payload.get("kind")}
    if "methods" in payload:
        summary["aclr_dbc"] = {m: round(v["aclr_dbc"], 2) for m, v in payload["methods"].items()}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="scenario config JSON")
    parser.add_argument("--preset", default=None, help="shipped scenario preset name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwdpd",
                                     description="piecewise closed-loop DPD workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the waveform a scenario config's "
                       "evaluation scores, with its symbol grid")
    _config_flags(p)
    p.add_argument("--output", required=True, help="output stem")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="write the observation of a signal through a "
                       "scenario config's plant, as its evaluation receives it")
    _config_flags(p)
    p.add_argument("--input", required=True, help="input stem")
    p.add_argument("--output", required=True, help="output stem")
    p.add_argument("--angle", type=finite_float, default=None, help="steering angle, degrees")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("partition", help="derive the amplitude partition of a scenario "
                       "config's plant")
    _config_flags(p)
    p.add_argument("--regions", type=int, default=None,
                   help="K: a K-means partition of K regions instead of the Taylor one")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="train a DPD model on a scenario config's plant, "
                       "basis and learner settings")
    _config_flags(p)
    p.add_argument("--method", default="pwcl_orth")
    p.add_argument("--partition", default=None, help="partition JSON path")
    p.add_argument("--seed", type=non_negative_int, default=7, help="training-block seed")
    p.add_argument("--output", required=True, help="model stem")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model (or the bare plant) with a "
                       "scenario config's plant and eval settings")
    _config_flags(p)
    p.add_argument("--model", default=None, help="model stem from train")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("complexity", help="print the FLOP ledger")
    p.add_argument("--params", default=None,
                   help="JSON file with ComplexityParams fields (default: the reference set)")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("scenario", help="run a scenario bundle")
    _config_flags(p)
    p.add_argument("--out", default=None, help="output root (default $PWDPD_OUT or .)")
    p.add_argument("--name", default=None, help="bundle directory name")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error argparse has printed (code 2), or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (ConfigError, DemodulationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateRegionError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DivergenceError as exc:
        print(f"learning diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
