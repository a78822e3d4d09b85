"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with -s to watch). The end-to-end
criteria execute the shipped scenario presets through the same runner the
CLI uses, so the numbers here are the numbers a user reproduces.
"""

import math
import time

import numpy as np
import pytest

import pwdpd.basis as basis_mod
from pwdpd.basis import (STATS_LOADING, BasisSpec, apply_gamma, block_cholesky,
                         cross_correlation, gram_matrix, precompute_covariance, regularized_lstsq)
from pwdpd.cli import scenario_preset
from pwdpd.complexity import flops, reference_params
from pwdpd.dpd import DpdModel, distortion_power_identity, predistort
from pwdpd.metrics import aclr_requirement, psd
from pwdpd.partition import WIDTH_TOLERANCE, AmAmModel, RegionPartition, partition_regions
from pwdpd.scenarios import run_scenario
from pwdpd.signals import IqSignal
from pwdpd.waveform import OfdmConfig, crest_factor_reduce, generate_ofdm, papr_ccdf

from conftest import dense_basis, random_signal, whiten


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def deep_bundle(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("deep")
    started = time.monotonic()
    payload = run_scenario(scenario_preset("array8-deep"), outdir)
    payload["_elapsed_s"] = time.monotonic() - started
    payload["_outdir"] = outdir
    return payload


@pytest.fixture(scope="module")
def doherty_bundle(tmp_path_factory):
    return run_scenario(scenario_preset("doherty-n3"), tmp_path_factory.mktemp("doh"))


@pytest.fixture(scope="module")
def pruning_bundle(tmp_path_factory):
    return run_scenario(scenario_preset("pruning-study"), tmp_path_factory.mktemp("prune"))


@pytest.fixture(scope="module")
def beam_bundles(tmp_path_factory):
    cfg = scenario_preset("beamsweep")
    coupled = run_scenario(cfg, tmp_path_factory.mktemp("beam"))
    uncoupled = run_scenario(dict(cfg, coupling_strength=0.0),
                             tmp_path_factory.mktemp("beam0"))
    return coupled, uncoupled


@pytest.fixture(scope="module")
def powersweep_bundle(tmp_path_factory):
    return run_scenario(scenario_preset("powersweep"), tmp_path_factory.mktemp("power"))


# ------------------------------------------------- criterion 1: complexity

def test_criterion_1_complexity_reproduction():
    started = time.monotonic()
    p = reference_params()
    checks = {
        "filt": (flops("pw_ila", p)["filt"], 926),
        "pw_total": (flops("pw_ila", p)["dpd_total"], 935),
        "pwcl_self_total": (flops("pwcl_self_orth", p)["dpd_total"], 935),
        "orth_total": (flops("cl_orth_bfs", p)["dpd_total"], 27847),
        "cl_self_learn": (flops("cl_self_orth", p)["learn_est"], 54520),
        "cl_orth_learn": (round(flops("cl_orth_bfs", p)["learn_est"]), 928),
        "pruned_learn": (round(flops("pwcl_orth_pruned", p)["learn_est"], 1), 323.2),
    }
    exact_ok = all(got == want for got, want in checks.values())
    pruned = flops("pwcl_orth_pruned", p)
    near_ok = (abs(pruned["filt"] - 249) / 249 < 0.05
               and abs(pruned["orth"] - 1964) / 1964 < 0.05)
    flagged = bool(flops("pw_ila", p)["flags"])
    elapsed = time.monotonic() - started
    _report("criterion-1 complexity",
            exact_ok and near_ok and flagged and elapsed < 1.0,
            f"exact cells {'ok' if exact_ok else checks}, pruned filt/orth "
            f"{pruned['filt']:.0f}/{pruned['orth']:.0f} within 5% of 249/1964, "
            f"ILA learning cell flagged, runtime {elapsed:.3f}s")


# ------------------------------------------- criterion 2: simulated presets

def test_criterion_2a_end_to_end_linearization(deep_bundle):
    m = deep_bundle["methods"]["pwcl_orth"]
    none = deep_bundle["methods"]["none"]
    k = len(deep_bundle["partition"]["edges"]) - 1
    ok = (m["aclr_dbc"] >= 35.0 and m["aclr_trp_dbc"] >= aclr_requirement(28e9)
          and m["evm_percent"] <= 8.0 and 23.0 <= none["aclr_dbc"] <= 27.0
          and k == 3 and deep_bundle["_elapsed_s"] < 300)
    _report("criterion-2a linearization", ok,
            f"no-DPD ACLR {none['aclr_dbc']:.2f} dBc (25 +- 2), K={k}, "
            f"PW-CL main ACLR {m['aclr_dbc']:.2f} >= 35, TRP-ACLR "
            f"{m['aclr_trp_dbc']:.2f} >= 28, EVM {m['evm_percent']:.2f}% <= 8, "
            f"bundle runtime {deep_bundle['_elapsed_s']:.0f}s < 300s")


def test_criterion_2b_ranking(deep_bundle):
    r = deep_bundle["methods"]
    order = [r[k]["aclr_dbc"] for k in ("pwcl_orth", "cl_orth", "pw_ila", "none")]
    gap = r["pwcl_orth"]["aclr_dbc"] - r["pw_ila"]["aclr_dbc"]
    ok = all(a > b for a, b in zip(order, order[1:])) and gap >= 3.0
    _report("criterion-2b ranking", ok,
            "ACLR " + " > ".join(f"{v:.2f}" for v in order)
            + f" (PW-CL > CL > PW-ILA > none), PW-CL - PW-ILA = {gap:.2f} >= 3 dB")


def test_criterion_2c_doherty(doherty_bundle):
    r = doherty_bundle["methods"]
    gap_cl = r["pwcl_orth"]["aclr_dbc"] - r["cl_orth"]["aclr_dbc"]
    gap_km = r["pwcl_orth"]["aclr_dbc"] - r["pwcl_kmeans"]["aclr_dbc"]
    ok = gap_cl >= 3.0 and gap_km >= -0.2
    _report("criterion-2c doherty", ok,
            f"PW-CL {r['pwcl_orth']['aclr_dbc']:.2f} vs single-poly CL "
            f"{r['cl_orth']['aclr_dbc']:.2f} (gap {gap_cl:.2f} >= 3 dB); "
            f"Taylor vs K-means partition gap {gap_km:+.2f} dB (>= -0.2)")


def test_criterion_2d_rule_equivalence(deep_bundle):
    r = deep_bundle["methods"]
    gap = abs(r["pwcl_orth"]["aclr_dbc"] - r["pwcl_selforth"]["aclr_dbc"])
    _report("criterion-2d rule equivalence", gap <= 0.5,
            f"self-orthogonalized vs orthogonal-BF final ACLR differ {gap:.3f} dB <= 0.5")


def test_criterion_2e_pruning(pruning_bundle):
    pruned = pruning_bundle["pruned"]
    unpruned = pruning_bundle["unpruned"]
    removal = 1 - pruned["active_coefficients"] / pruned["coefficients"]
    loss = unpruned["aclr_dbc"] - pruned["aclr_dbc"]
    reduction = pruning_bundle["learn_flops_per_sample"]["reduction"]
    ok = removal >= 0.5 and loss <= 1.0 and reduction >= 0.4
    _report("criterion-2e pruning", ok,
            f"-40 dB threshold keeps {pruned['active_coefficients']}/"
            f"{pruned['coefficients']} ({removal:.0%} removed >= 50%), ACLR loss "
            f"{loss:.2f} dB <= 1, learning FLOPs cut {reduction:.0%} >= 40%")


def test_criterion_2f_beam_dependence(beam_bundles):
    coupled, uncoupled = beam_bundles
    aclr_c = [row["aclr_dbc"] for row in coupled["rows"]]
    aclr_u = [row["aclr_dbc"] for row in uncoupled["rows"]]
    monotone = all(b < a for a, b in zip(aclr_c, aclr_c[1:]))
    total_drop = aclr_c[0] - aclr_c[-1]
    flat = max(aclr_u) - min(aclr_u)
    ok = monotone and total_drop > 1.0 and flat < 1e-6
    _report("criterion-2f beam dependence", ok,
            f"coupled ACLR {['%.2f' % v for v in aclr_c]} monotone over 0..50 deg "
            f"(drop {total_drop:.1f} dB); zero-coupling spread {flat:.2e} dB")


def test_beam_pattern_oob_widening(deep_bundle):
    """After DPD the residual emission pattern is at least as wide as the
    in-band beam (qualitative far-field property)."""
    beam = np.genfromtxt(deep_bundle["_outdir"] / "beam_pwcl_orth.csv",
                         delimiter=",", names=True)

    def width_10db(power):
        level = power / power.max()
        return np.count_nonzero(level >= 0.1)

    inband_w = width_10db(beam["inband_power"])
    oob = np.maximum(beam["adjacent_low"], beam["adjacent_high"])
    oob_w = width_10db(oob)
    _report("beam-pattern OOB width", oob_w >= inband_w,
            f"-10 dB widths: OOB {oob_w} angle steps >= in-band {inband_w}")


# ------------------------------------------------ criterion 3: invariants

# unpartitioned, and three regions over the Rayleigh envelopes of criterion 3's signals
_CRITERION_3_PARTITIONS = {"K=1": None, "K=3": RegionPartition([0.0, 0.5, 1.0, 4.0])}


def test_criterion_3_invariant_suites():
    rng = np.random.default_rng(123)
    # partition coverage/ordering on 1000 random amplitude fits
    part_ok = True
    for i in range(1000):
        order_fit = int(rng.integers(5, 10))
        coeffs = np.zeros(order_fit + 1)
        coeffs[1] = 1.0
        for q in range(2, order_fit + 1):
            coeffs[q] = rng.normal(scale=0.3 / q)
        a_max = float(rng.uniform(0.5, 2.0))
        model = AmAmModel.from_coefficients(coeffs, a_max)
        part = partition_regions(model, order=int(rng.integers(2, 6)),
                                 target_error=float(rng.uniform(0.003, 0.05)))
        edges = part.edges
        if not (edges[0] == 0.0 and edges[-1] == pytest.approx(a_max)
                and np.all(np.diff(edges) > 0)):
            part_ok = False
            break
    _report("criterion-3 partition coverage", part_ok,
            "1000 random amplitude fits: contiguous ordered cover of [0, a_max]")

    # Gram identity through the learner's whitening, the Cholesky factor L of
    # gram_matrix: the masked basis columns times L^-H have the identity as
    # their sample Gram. The factor of the loaded Gram that learn uses whitens
    # the loaded Gram G + lam I in the same way.
    sig = random_signal(30000, rms=0.7, seed=5)
    for label, part in _CRITERION_3_PARTITIONS.items():
        spec = BasisSpec("memoryless", 7, partition=part)
        white = whiten(dense_basis(spec, sig.samples),
                       block_cholesky(gram_matrix(spec, sig.samples)))
        gram = white.conj().T @ white / len(sig)
        off = np.max(np.abs(gram - np.eye(gram.shape[0])))
        _report(f"criterion-3 gram identity ({label})", off < 1e-6,
                f"max off-diagonal {off:.2e} < 1e-6")
        gram = gram_matrix(spec, sig.samples)
        lam = STATS_LOADING * gram.diagonal(axis1=1, axis2=2).real.sum() / spec.n_basis_total
        factor = block_cholesky(precompute_covariance(spec, sig))
        half = np.linalg.solve(factor, gram + lam * np.eye(spec.n_basis_single))  # L^-1 (G + lam I)
        loaded = np.linalg.solve(factor, half.conj().transpose(0, 2, 1))
        off = np.max(np.abs(loaded - np.eye(spec.n_basis_single)))
        _report(f"criterion-3 loaded gram identity ({label})", off < 1e-6,
                f"max |L^-1 (G + lam I) L^-H - I| {off:.2e} < 1e-6")

    # injection identity
    sig2 = random_signal(4000, seed=6)
    out = predistort(DpdModel.zero(BasisSpec("memory_poly", 7, 2)), sig2)
    ident = np.array_equal(out.samples, sig2.samples)
    _report("criterion-3 injection identity", ident, "gamma = 0 is bit-exact identity")

    # Parseval
    sig3 = random_signal(65536, rms=0.8, seed=7)
    freqs, db = psd(sig3, 2048)
    power = np.sum(10 ** (db / 10)) * (freqs[1] - freqs[0])
    gap_db = abs(10 * math.log10(power / sig3.power))
    _report("criterion-3 parseval", gap_db < 0.1, f"PSD/time power gap {gap_db:.3f} dB < 0.1")

    # distortion power identity on constructed signals: e is the third- and
    # fifth-order whitened columns of each region weighted by alpha, built by
    # the predistorter filter; zeta = Psi^H e / N from cross_correlation, whitened as L^-1 zeta
    x = random_signal(20000, rms=0.8, seed=8).samples
    alpha = np.array([0.2 - 0.05j, 0.02 + 0.07j])
    for label, part in _CRITERION_3_PARTITIONS.items():
        spec = BasisSpec("memoryless", 5, partition=part)
        factor = block_cholesky(gram_matrix(spec, x))
        white = np.tile(np.r_[0, alpha], spec.n_regions).reshape(spec.n_regions, -1, 1)
        gamma = np.linalg.solve(factor.conj().transpose(0, 2, 1), white).ravel()  # L^-H c
        err = IqSignal(apply_gamma(spec, x, gamma), 1.0)
        zeta = cross_correlation(spec, x, err.samples)
        whitened = np.linalg.solve(factor, zeta.reshape(spec.n_regions, -1, 1)).ravel()
        _, _, gap = distortion_power_identity(whitened, err)
        _report(f"criterion-3 distortion identity ({label})", gap < 1e-6,
                f"relative gap {gap:.2e} < 1e-6")

    # LS vs normal equations
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(40, 201))
        b = int(rng.integers(2, 11))
        a = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = regularized_lstsq(a, y)
        lam = basis_mod.COVARIANCE_LOADING * np.sum(np.abs(a) ** 2) / b
        oracle = np.linalg.solve(a.conj().T @ a + lam * np.eye(b), a.conj().T @ y)
        worst = max(worst, float(np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))))
    _report("criterion-3 LS oracle", worst < 1e-8, f"worst relative deviation {worst:.2e} < 1e-8")


# --------------------------------------------- criterion 4: waveform stats

def test_criterion_4_waveform_statistics():
    cfg = OfdmConfig(120e3, 4096, 3168, oversampling=5, num_symbols=4,
                     constellation="64QAM", wola_taper_samples=256, seed=33)
    bw_ok = cfg.occupied_bandwidth == 380.16e6
    sig, _ = generate_ofdm(cfg)
    reduced = crest_factor_reduce(sig, 6.5, 10, occupied_bandwidth=cfg.occupied_bandwidth)
    (_, papr_1pct), = papr_ccdf(reduced, [0.01])
    papr_ok = abs(papr_1pct - 6.4) <= 0.5
    _report("criterion-4 waveform stats", bw_ok and papr_ok,
            f"occupied bandwidth {cfg.occupied_bandwidth / 1e6:.2f} MHz (exact 380.16), "
            f"1%-CCDF PAPR after CFR {papr_1pct:.2f} dB in 6.4 +- 0.5")


# ------------------------------------ criterion 5: closed-form partitioning

def test_criterion_5_closed_form_partition():
    model = AmAmModel.from_coefficients([0.0, 1.0, 0.0, 0.1], a_max=1.0)
    delta = WIDTH_TOLERANCE * model.a_max
    part = partition_regions(model, order=2, target_error=0.01)
    expected = (math.factorial(3) * 0.01 / 0.6) ** (1 / 3)
    ok = abs(part.edges[1] - expected) <= 2 * delta
    _report("criterion-5 closed-form partition", ok,
            f"first boundary {part.edges[1]:.5f} vs 0.1^(1/3) = {expected:.5f} "
            f"within {2 * delta:g}")


# ----------------------------------------------- CLI scenario cross-checks

def test_powersweep_directional_claims(powersweep_bundle):
    rows = powersweep_bundle["rows"]
    none = [r["none"]["aclr_dbc"] for r in rows]
    ok_mono = all(b < a for a, b in zip(none, none[1:]))
    ok_rank = all(r["pwcl_orth"]["aclr_dbc"] >= r["pw_ila"]["aclr_dbc"] for r in rows)
    _report("powersweep trends", ok_mono and ok_rank,
            f"no-DPD ACLR decreases with drive {['%.1f' % v for v in none]}; "
            "PW-CL >= PW-ILA at every level")
