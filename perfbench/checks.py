"""Correctness checks applied to every bundle the benchmark runs.

Each check returns a list of problems; an empty list means the bundle
passed. The quality bounds compare methods within one bundle, so they hold
at any seed; the acceptance suite's bounds are tuned to the preset seeds and
are not reused here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# benchmark workload -> shipped scenario preset it runs
WORKLOADS = {
    "deep-array": "array8-deep",
    "doherty-cfr": "doherty-n3",
    "beam-steer": "beamsweep",
}

# Exact per-layer work counts of one bundle. They follow from the preset
# (methods, iterations, block sizes, frame lengths, region count), not from
# the seed, so a traced run that misses a call site, or whose FFT counter
# misses transforms, shows up here. Every CFR frame length has a prime
# factor above 5, so all its FFTs are non-smooth.
_COMMON = {"partition.fit_amam.calls": 1, "partition.partition_regions.calls": 1,
           "scenarios.write_manifest.calls": 1}
EXPECTED_COUNTS = {
    "deep-array": dict(_COMMON, **{
        "waveform.generate_ofdm.calls": 48, "waveform.crest_factor_reduce.calls": 48,
        "waveform.crest_factor_reduce.samples": 1918908,
        "waveform.crest_factor_reduce.fft_calls": 960,
        "waveform.crest_factor_reduce.fft_nonsmooth_calls": 960,
        "basis.base_matrix.calls": 185, "basis.base_matrix.rows": 2404680,
        "basis.gram_matrix.calls": 3,
        "basis.apply_gamma.calls": 43, "basis.apply_gamma.samples": 1444680,
        "basis.cross_correlation.calls": 30, "basis.cross_correlation.samples": 600000,
        "basis.regularized_lstsq.calls": 16, "basis.regularized_lstsq.rows": 400000,
        "plant.array_forward.calls": 45, "plant.array_forward.samples": 1566384,
        "plant.observation_receive.calls": 45,
        "metrics.beam_pattern.calls": 6, "metrics.beam_pattern.fft_calls": 26010,
        "metrics.aclr_single_direction.calls": 6,
        "metrics.evm.calls": 6,
        "dpd.learn.calls": 3, "dpd.predistort.calls": 43, "dpd.predistort.samples": 1444680,
        "ila.ila_learn.calls": 2, "partition.kmeans_partition.calls": 0,
        "scenarios.derive_partition.calls": 1, "scenarios.train_method.calls": 6,
        "scenarios.evaluate.calls": 6,
    }),
    "doherty-cfr": dict(_COMMON, **{
        "waveform.generate_ofdm.calls": 39, "waveform.crest_factor_reduce.calls": 39,
        "waveform.crest_factor_reduce.samples": 1353333,
        "waveform.crest_factor_reduce.fft_calls": 780,
        "waveform.crest_factor_reduce.fft_nonsmooth_calls": 780,
        "basis.base_matrix.calls": 141, "basis.base_matrix.rows": 1532088,
        "basis.gram_matrix.calls": 3,
        "basis.apply_gamma.calls": 33, "basis.apply_gamma.samples": 812088,
        "basis.cross_correlation.calls": 30, "basis.cross_correlation.samples": 600000,
        "basis.regularized_lstsq.calls": 0,
        "plant.array_forward.calls": 36, "plant.array_forward.samples": 955552,
        "plant.observation_receive.calls": 36,
        "metrics.beam_pattern.calls": 0, "metrics.aclr_single_direction.calls": 4,
        "metrics.evm.calls": 4,
        "dpd.learn.calls": 3, "dpd.predistort.calls": 33, "dpd.predistort.samples": 812088,
        "ila.ila_learn.calls": 0, "partition.kmeans_partition.calls": 1,
        "scenarios.derive_partition.calls": 2, "scenarios.train_method.calls": 4,
        "scenarios.evaluate.calls": 4,
    }),
    "beam-steer": dict(_COMMON, **{
        "waveform.generate_ofdm.calls": 18, "waveform.crest_factor_reduce.calls": 18,
        "waveform.crest_factor_reduce.samples": 847068,
        "waveform.crest_factor_reduce.fft_calls": 360,
        "waveform.crest_factor_reduce.fft_nonsmooth_calls": 360,
        "basis.base_matrix.calls": 77, "basis.base_matrix.rows": 953616,
        "basis.gram_matrix.calls": 1,
        "basis.apply_gamma.calls": 16, "basis.apply_gamma.samples": 733616,
        "basis.cross_correlation.calls": 10, "basis.cross_correlation.samples": 200000,
        "basis.regularized_lstsq.calls": 0,
        "plant.array_forward.calls": 17, "plant.array_forward.samples": 766384,
        "plant.observation_receive.calls": 17,
        "metrics.beam_pattern.calls": 0, "metrics.aclr_single_direction.calls": 6,
        "metrics.evm.calls": 6,
        "dpd.learn.calls": 1, "dpd.predistort.calls": 16, "dpd.predistort.samples": 733616,
        "ila.ila_learn.calls": 0, "partition.kmeans_partition.calls": 0,
        "scenarios.derive_partition.calls": 1, "scenarios.train_method.calls": 1,
        "scenarios.evaluate.calls": 6,
    }),
}

# Least ACLR gain (dB) of a closed-loop PW model over no DPD in the same
# bundle: about 12 dB at the preset seeds, down to 4.8 dB at other seeds on
# deep-array; a learner that stopped working would give about 0.
MIN_ACLR_GAIN_DB = 3.0


def manifest_digests(outdir: Path) -> tuple[dict, list[str]]:
    """Artifact name -> sha256 from manifest.json, and the problems found
    re-hashing every artifact and comparing the file set."""
    problems = []
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        entries = manifest["artifacts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"manifest unreadable: {exc}"]
    digests = {}
    for entry in entries:
        path = outdir / entry["name"]
        if not path.is_file():
            problems.append(f"{entry['name']}: listed but missing")
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['name']}: sha256 or size does not match the manifest")
        digests[entry["name"]] = entry["sha256"]
    on_disk = {str(p.relative_to(outdir)) for p in outdir.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    if on_disk != set(digests) and not problems:
        problems.append(f"files not in the manifest: {sorted(on_disk - set(digests))}")
    return digests, problems


def _non_finite(value, path="metrics") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path} = {value}"]
    return []


def quality(workload: str, payload: dict) -> tuple[dict, list[str]]:
    """PW-CL ACLR and EVM of the bundle, and the problems its bounds find.

    deep-array and doherty-cfr: pwcl_orth beats no DPD by MIN_ACLR_GAIN_DB
    in ACLR and has lower EVM. beam-steer, which has no reference method:
    the model trained at 0 deg has a worse ACLR at 50 deg, where the coupled
    load modulation differs most from training (about 3-6 dB over seeds).
    Neither monotonicity over the sweep nor an absolute EVM bound holds at
    every seed, so neither is checked.
    """
    problems = _non_finite(payload)
    if workload == "beam-steer":
        rows = payload["rows"]
        if [r["angle_deg"] for r in rows] != [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]:
            problems.append("angle sweep rows are not 0..50 deg")
        main = rows[0]
        if rows[-1]["aclr_dbc"] >= main["aclr_dbc"]:
            problems.append("ACLR at 50 deg is not below ACLR at 0 deg")
    else:
        methods = payload["methods"]
        main, ref = methods["pwcl_orth"], methods["none"]
        if main["aclr_dbc"] < ref["aclr_dbc"] + MIN_ACLR_GAIN_DB:
            problems.append(f"pwcl_orth ACLR {main['aclr_dbc']:.2f} dBc is not "
                            f"{MIN_ACLR_GAIN_DB} dB above no DPD ({ref['aclr_dbc']:.2f})")
        if main["evm_percent"] >= ref["evm_percent"]:
            problems.append("pwcl_orth EVM is not below the no-DPD EVM")
    figures = {"pwcl_aclr_dbc": main["aclr_dbc"], "pwcl_evm_pct": main["evm_percent"]}
    return figures, problems


def check_bundle(workload: str, outdir: Path) -> tuple[dict, dict, list[str]]:
    """(artifact digests, quality figures, problems) of one finished bundle."""
    digests, problems = manifest_digests(outdir)
    try:
        payload = json.loads((outdir / "metrics.json").read_text())
        figures, more = quality(workload, payload)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return digests, {}, problems + [f"metrics.json unusable: {exc!r}"]
    return digests, figures, problems + more


def check_counts(workload: str, counts: dict) -> list[str]:
    """Differences between a traced bundle's counts and EXPECTED_COUNTS."""
    return [f"{name} = {counts.get(name, 0)}, expected {want}"
            for name, want in EXPECTED_COUNTS[workload].items()
            if counts.get(name, 0) != want]
