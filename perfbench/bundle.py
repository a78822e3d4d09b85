"""One benchmark process: set up, optionally run one scenario bundle, report.

    python3 perfbench/bundle.py --preset NAME --seed N --t0-ns T --mode MODE [--out DIR]

MODE is ``setup`` (stop after set-up), ``bundle`` (untraced run) or
``traced`` (run with the layer tracer installed). T is the caller's
``time.monotonic_ns()`` just before it started this process; set-up time is
measured from it, so interpreter start-up counts. Set-up ends once pwdpd is
imported and the scenario config and plant preset are loaded. The last line
of standard output is one JSON object with the measurements. The caller
sets PYTHONPATH and the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--preset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "bundle", "traced"), required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    from pwdpd.cli import scenario_preset
    from pwdpd.scenarios import load_scenario_plant, run_scenario

    config = scenario_preset(args.preset)
    config["seed"] = args.seed
    load_scenario_plant(config)
    setup_ns = time.monotonic_ns()
    report = {"setup_s": (setup_ns - args.t0_ns) / 1e9}
    if args.mode == "setup":
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        report["env"] = {"numpy": np.__version__, "blas": blas.get("name"),
                         "blas_version": blas.get("version"),
                         "blas_config": blas.get("openblas configuration")}
    else:
        tracer = None
        if args.mode == "traced":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer()
            report["rebound"] = tracer.install()
        start = time.perf_counter()
        run_scenario(config, Path(args.out))
        report["bundle_s"] = time.perf_counter() - start
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            report["layers"] = tracer.layer_stats()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
