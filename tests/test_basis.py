import ast
import math
from pathlib import Path

import numpy as np
import pytest

from pwdpd import basis as basis_mod
from pwdpd.basis import (CHUNK, COVARIANCE_LOADING, BasisSpec, apply_gamma, build_matrix,
                         cross_correlation, enumerate_bfs, gram_matrix, orthogonalize,
                         precompute_covariance)
from pwdpd.errors import ConfigError, DegenerateRegionError
from pwdpd.partition import RegionPartition
from pwdpd.signals import IqSignal

from conftest import random_signal


def rayleigh_signal(n=30000, seed=2):
    return random_signal(n, rms=0.7, seed=seed)


def _block_diag(blocks):
    """Dense block-diagonal matrix of a K x B1 x B1 stack, zero off the blocks."""
    k, b1, _ = blocks.shape
    dense = np.zeros((k * b1, k * b1), dtype=blocks.dtype)
    for r in range(k):
        dense[r * b1:(r + 1) * b1, r * b1:(r + 1) * b1] = blocks[r]
    return dense


def test_memoryless_count_and_order():
    terms = enumerate_bfs(BasisSpec("memoryless", 5))
    assert len(terms) == 3
    assert [t.order for t in terms] == [1, 3, 5]
    assert terms[0].lags == (0,)


def test_memory_poly_count():
    spec = BasisSpec("memory_poly", 5, 2)
    # counting formula: orders x taps
    assert spec.n_basis_single == ((5 + 1) // 2) * (2 + 1) == 9


def test_gmp_count_against_enumeration_oracle():
    p_max, mem, cross = 5, 3, 2
    spec = BasisSpec("gmp", p_max, mem, cross)
    # independent combinatorial enumeration
    oracle = set()
    for p in range((p_max + 1) // 2):
        for lag in range(mem + 1):
            oracle.add(("a", 2 * p + 1, lag, lag))
    for p in range(1, (p_max + 1) // 2):
        for lag in range(mem + 1):
            for c in range(1, cross + 1):
                oracle.add(("c", 2 * p + 1, lag, lag + c))
                oracle.add(("c", 2 * p + 1, lag, lag - c))
    assert spec.n_basis_single == len(oracle) == 44
    # no duplicated columns on random data
    sig = random_signal(4000, seed=7)
    m = build_matrix(spec, sig).values
    corr = np.abs(m.conj().T @ m)
    norm = np.sqrt(np.outer(np.diag(corr).real, np.diag(corr).real))
    off = corr / norm - np.eye(m.shape[1])
    assert np.max(np.abs(off)) < 0.999999


def test_full_dual_input_counts():
    spec = BasisSpec("full_dual_input", 9, 3)
    assert spec.n_basis_single == 116
    assert spec.n_instantaneous_single == 5
    part = RegionPartition(np.array([0.0, 0.3, 0.7, 2.0]))
    assert spec.with_partition(part).n_basis_total == 348


def test_even_order_rejected():
    with pytest.raises(ConfigError):
        BasisSpec("memoryless", 4)
    with pytest.raises(ConfigError):
        BasisSpec("full_dual_input", 9, 3, orders=(9, 8, 9))


def test_single_region_identical_to_dense():
    sig = rayleigh_signal(2000)
    spec = BasisSpec("memory_poly", 5, 1)
    dense = build_matrix(spec, sig).values
    part = RegionPartition(np.array([0.0, 10.0]))
    masked = build_matrix(spec.with_partition(part), sig).values
    np.testing.assert_array_equal(dense, masked)


def test_mask_definition_two_samples():
    part = RegionPartition(np.array([0.0, 0.5, 1.0]))
    spec = BasisSpec("memoryless", 3, partition=part)
    sig = IqSignal(np.array([0.2, 0.8], dtype=complex), 1.0)
    bm = build_matrix(spec, sig)
    b1 = spec.n_basis_single
    assert np.all(bm.values[0, b1:] == 0) and np.any(bm.values[0, :b1] != 0)
    assert np.all(bm.values[1, :b1] == 0) and np.any(bm.values[1, b1:] != 0)


def test_partition_of_unity_masking():
    sig = rayleigh_signal(5000, seed=9)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0] + np.quantile(env, [0.4, 0.8]).tolist() + [env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    bm = build_matrix(spec, sig)
    b1 = spec.n_basis_single
    hits = np.zeros(len(sig), dtype=int)
    for k in range(3):
        block = bm.values[:, k * b1:(k + 1) * b1]
        hits += np.any(block != 0, axis=1)
    assert np.all(hits == 1)  # every sample in exactly one region


def test_linear_term_is_index_zero_per_region():
    sig = rayleigh_signal(3000, seed=4)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("gmp", 5, 2, 1, partition=part)
    bm = build_matrix(spec, sig)
    b1 = spec.n_basis_single
    for k in range(2):
        col = bm.values[:, k * b1]
        rows = bm.region_index == k
        np.testing.assert_array_equal(col[rows], sig.samples[rows])
        assert np.all(col[~rows] == 0)


def test_orthogonalize_unitary_whitener_identity():
    rng = np.random.default_rng(5)
    n, b = 400, 3
    q, _ = np.linalg.qr(rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b)))
    bm = build_matrix(BasisSpec("memoryless", 5), rayleigh_signal(n))
    bm.values = np.sqrt(n) * q  # sample Gram exactly identity
    out = orthogonalize(bm)
    np.testing.assert_allclose(out.whitener, np.eye(b)[None], atol=1e-10)


def test_orthogonalize_gram_identity_and_reconstruction():
    sig = rayleigh_signal()
    spec = BasisSpec("memoryless", 5)
    bm = build_matrix(spec, sig)
    out = orthogonalize(bm)
    n = len(sig)
    gram = out.values.conj().T @ out.values / n
    assert np.max(np.abs(gram - np.eye(3))) < 1e-6
    assert out.whitener.shape == (1, 3, 3)
    np.testing.assert_allclose(out.values @ _block_diag(out.whitener).conj().T, bm.values,
                               rtol=1e-10, atol=1e-12)


def test_orthogonalize_piecewise_block_structure():
    sig = rayleigh_signal(40000, seed=12)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    bm = build_matrix(spec, sig)
    out = orthogonalize(bm)
    gram = out.values.conj().T @ out.values / len(sig)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-6
    assert out.whitener.shape == (2, 3, 3)
    np.testing.assert_allclose(out.values @ _block_diag(out.whitener).conj().T, bm.values,
                               rtol=1e-10, atol=1e-12)


def test_orthogonalize_degenerate_cases():
    sig = rayleigh_signal(2000)
    bm = build_matrix(BasisSpec("memoryless", 5), sig)
    bm.values = np.stack([bm.values[:, 0], bm.values[:, 0]], axis=1)  # exact duplicate
    with pytest.raises(DegenerateRegionError):
        orthogonalize(bm)
    # empty top region
    part = RegionPartition([0.0, 5.0, 6.0])
    spec = BasisSpec("memoryless", 3, partition=part)
    with pytest.raises(DegenerateRegionError) as err:
        orthogonalize(build_matrix(spec, sig))
    assert err.value.region == 1


def test_orthogonalize_preconditions():
    sig = rayleigh_signal(2000)
    bm = orthogonalize(build_matrix(BasisSpec("memoryless", 5), sig))
    with pytest.raises(ConfigError):
        orthogonalize(bm)
    short = build_matrix(BasisSpec("memoryless", 5), rayleigh_signal(20))
    with pytest.raises(ConfigError):
        orthogonalize(short)


def test_covariance_orthonormal_and_closed_form():
    sig = rayleigh_signal()
    spec = BasisSpec("memoryless", 3)
    cov, cov_inv = precompute_covariance(spec, sig)
    # oracle: direct sample covariance and the 2x2 analytic inverse
    x = sig.samples
    psi = np.stack([x, x * np.abs(x) ** 2], axis=1)
    r = psi.conj().T @ psi / x.size
    np.testing.assert_allclose(cov, r[None], rtol=1e-9, atol=1e-12)
    a, b_, c, d = r[0, 0], r[0, 1], r[1, 0], r[1, 1]
    det = a * d - b_ * c
    oracle_inv = np.array([[d, -b_], [-c, a]]) / det
    np.testing.assert_allclose(cov_inv, oracle_inv[None], rtol=1e-5)


def test_covariance_piecewise_block_diagonal():
    sig = rayleigh_signal(20000, seed=3)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    cov, cov_inv = precompute_covariance(spec, sig)
    b1 = spec.n_basis_single
    assert cov.shape == cov_inv.shape == (2, b1, b1)
    # the stack is the whole loaded covariance: the dense one is zero off its blocks
    dense = build_matrix(spec, sig).values
    gram = dense.conj().T @ dense / len(sig)
    loaded = gram + COVARIANCE_LOADING * np.trace(gram).real / (2 * b1) * np.eye(2 * b1)
    assert np.max(np.abs(_block_diag(cov) - loaded)) < 1e-12 * np.max(np.abs(cov))
    np.testing.assert_allclose(cov_inv @ cov, np.broadcast_to(np.eye(b1), cov.shape), atol=1e-6)


def test_covariance_rejects_empty_region():
    sig = rayleigh_signal(20000, seed=3)
    spec = BasisSpec("memoryless", 3, partition=RegionPartition([0.0, 5.0, 6.0, 7.0]))
    with pytest.raises(DegenerateRegionError) as err:
        precompute_covariance(spec, sig)
    assert err.value.region == 1


def test_gram_matrix_matches_dense():
    # two full chunks and a partial one
    sig = rayleigh_signal(40000, seed=8)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("gmp", 5, 1, 1, partition=part)
    dense = build_matrix(spec, sig).values
    expected = dense.conj().T @ dense / len(sig)
    gram = gram_matrix(spec, sig.samples)
    assert gram.shape == (2, spec.n_basis_single, spec.n_basis_single)
    np.testing.assert_allclose(_block_diag(gram), expected, rtol=1e-10, atol=1e-14)


def test_chunked_passes_share_one_basis_build_per_chunk(monkeypatch):
    """Gram, filter and correlation each build the basis once per chunk and
    agree with the dense matrix, also where a region is empty in a chunk."""
    sig = rayleigh_signal(2 * CHUNK + 1000, seed=13)
    env = np.abs(sig.samples)
    edges = [0.0, *np.quantile(env, [0.3, 0.7]), env.max() * 1.001]
    x = sig.samples.copy()
    mid = slice(CHUNK, 2 * CHUNK)
    x[mid] *= 0.9 * edges[2] / env[mid].max()  # top region empty in the middle chunk
    sig = sig.with_samples(x)
    spec = BasisSpec("memory_poly", 3, 1, partition=RegionPartition(edges))
    dense = build_matrix(spec, sig).values
    assert not np.any(dense[mid, 2 * spec.n_basis_single:])

    calls = []
    real = basis_mod.base_matrix
    monkeypatch.setattr(basis_mod, "base_matrix", lambda *a: calls.append(a[3]) or real(*a))
    per_pass = math.ceil(x.size / CHUNK)
    rng = np.random.default_rng(1)
    gamma = rng.standard_normal(spec.n_basis_total) + 1j * rng.standard_normal(spec.n_basis_total)
    err = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)

    np.testing.assert_allclose(_block_diag(gram_matrix(spec, x)), dense.conj().T @ dense / x.size,
                               rtol=1e-10, atol=1e-14)
    assert len(calls) == per_pass
    np.testing.assert_allclose(apply_gamma(spec, x, gamma), dense @ gamma,
                               rtol=1e-10, atol=1e-14)
    assert len(calls) == 2 * per_pass
    np.testing.assert_allclose(cross_correlation(spec, x, err), dense.conj().T @ err / x.size,
                               rtol=1e-10, atol=1e-14)
    assert len(calls) == 3 * per_pass
    assert sum(calls) == 3 * x.size


def _lagged(x, m):
    """x(n - m), zero outside x; a negative m is a lead."""
    out = np.zeros_like(x)
    if m >= 0:
        out[m:] = x[:x.size - m]
    else:
        out[:m] = x[-m:]
    return out


def _docstring_column(term, x):
    """One basis function over all of x, straight from the module docstring."""
    q = term.order
    if term.family == "aligned":
        (m,) = term.lags
        return _lagged(x, m) * np.abs(_lagged(x, m)) ** (q - 1)
    if term.family == "cross":
        ms, me = term.lags
        return _lagged(x, ms) * np.abs(_lagged(x, me)) ** (q - 1)
    mc, mq = term.lags
    return np.conj(_lagged(x, mc)) * _lagged(x, mq) ** 2 * np.abs(_lagged(x, mq)) ** (q - 3)


@pytest.mark.parametrize("spec", [BasisSpec("gmp", 5, 2, 2), BasisSpec("full_dual_input", 5, 2)],
                         ids=["gmp-leads", "full-dual-input-conj"])
def test_region_blocks_against_docstring_formulas(spec):
    """Every yielded block equals the docstring formulas on the region's rows,
    across chunk edges, and each chunk's rows split exactly into its regions."""
    x = rayleigh_signal(2 * CHUNK + 1000, seed=17).samples.copy()
    env = np.abs(x)
    edges = [0.0, *np.quantile(env, [0.3, 0.7]), env.max() * 1.001]
    mid = np.arange(CHUNK, 2 * CHUNK)
    inner = mid[(env[mid] >= edges[1]) & (env[mid] < edges[2])]
    x[inner] *= 0.5 * edges[1] / env[inner]  # region 1 empty in the middle chunk
    part = RegionPartition(edges)
    spec = spec.with_partition(part)
    assert any(t.family == "conj" or min(t.lags) < 0 for t in enumerate_bfs(spec))
    dense = np.stack([_docstring_column(t, x) for t in enumerate_bfs(spec)], axis=1)
    ridx = part.region_index(np.abs(x))

    per_chunk = {}
    for k, rows, psi in basis_mod.region_blocks(spec, x):
        assert psi.shape == (rows.size, spec.n_basis_single) and psi.flags.f_contiguous
        assert np.all(ridx[rows] == k)
        np.testing.assert_allclose(psi, dense[rows], rtol=1e-12, atol=0)
        per_chunk.setdefault(rows[0] // CHUNK, []).append((k, rows))
    assert [[k for k, _ in per_chunk[c]] for c in range(3)] == [[0, 1, 2], [0, 2], [0, 1, 2]]
    for c, blocks in per_chunk.items():
        rows = np.sort(np.concatenate([r for _, r in blocks]))
        np.testing.assert_array_equal(rows, np.arange(c * CHUNK, min((c + 1) * CHUNK, x.size)))


def _owners(node, name, owner="<module>"):
    """Names of the functions (or classes) whose bodies refer to name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _owners(child, name, child.name)
            continue
        if ((isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.alias) and name in (child.name, child.asname))):
            yield owner
        yield from _owners(child, name, owner)


def test_only_region_blocks_builds_basis_rows():
    package = Path(basis_mod.__file__).parent
    owners = {(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in _owners(ast.parse(path.read_text()), "base_matrix")}
    assert owners == {("basis.py", "region_blocks")}


def test_package_does_not_import_scipy():
    """numpy is the only numerical runtime dependency; scipy is not declared."""
    package = Path(basis_mod.__file__).parent
    hits = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            hits += [(path.name, m) for m in modules if m.split(".")[0] == "scipy"]
    assert hits == []


def test_build_matrix_block_bounds():
    sig = rayleigh_signal(100)
    with pytest.raises(ConfigError):
        build_matrix(BasisSpec("memoryless", 3), sig, block=(90, 20))


def test_lag_cache_env_power_matches_pow():
    # env_power builds |x|^e (e even) from products of the cached lower powers
    x = random_signal(700, rms=0.8, seed=31).samples
    pos = np.arange(3, x.size)
    cache = basis_mod._LagCache(x, pos)
    for lag in (0, 1, 3):
        ref = np.abs(x[pos - lag])
        for e in (8, 2, 6, 4):
            np.testing.assert_allclose(cache.env_power(lag, e), ref ** e, rtol=1e-14)
