import ast
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pwdpd import basis as basis_mod
import pwdpd
from pwdpd.basis import (CHUNK, STATS_LOADING, BasisSpec, apply_gamma, block_cholesky,
                         cross_correlation, enumerate_bfs, gram_matrix, precompute_covariance,
                         regularized_lstsq)
from pwdpd.errors import ConfigError, DegenerateRegionError
from pwdpd.partition import RegionPartition

from conftest import dense_basis, ilc_oracle_aclr, random_signal, traced_peak, whiten


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
    m = dense_basis(spec, sig.samples)
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
    with pytest.raises(ConfigError, match="'max_order' must be an odd integer >= 1"):
        BasisSpec("memoryless", 4)


# sha256 of the JSON [family, order, lags] list of enumerate_bfs, frozen from
# the shipped bases: a model file's gamma layout follows this term order
_TERM_ORDER_SHA256 = {
    ("full_dual_input", 9, 3, 0): (116, "88e450603506f2a5fa6c4fa194f6243c"
                                        "f6b6cea09684682756e4cd414ab3574c"),
    ("gmp", 5, 3, 2): (44, "9161b1ab41b2ce5f613319fb67b6c9dd"
                           "bf232834e9a6d484f4737543273b5b8b"),  # doherty-n3
}


@pytest.mark.parametrize("key", list(_TERM_ORDER_SHA256), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_shipped_basis_term_order(key):
    terms = [[t.family, t.order, list(t.lags)] for t in enumerate_bfs(BasisSpec(*key))]
    digest = hashlib.sha256(json.dumps(terms).encode()).hexdigest()
    assert (len(terms), digest) == _TERM_ORDER_SHA256[key]


def test_single_region_identical_to_dense():
    sig = rayleigh_signal(2000)
    spec = BasisSpec("memory_poly", 5, 1)
    dense = dense_basis(spec, sig.samples)
    part = RegionPartition(np.array([0.0, 10.0]))
    masked = dense_basis(spec.with_partition(part), sig.samples)
    np.testing.assert_array_equal(dense, masked)


def test_mask_definition_two_samples():
    part = RegionPartition(np.array([0.0, 0.5, 1.0]))
    spec = BasisSpec("memoryless", 3, partition=part)
    values = dense_basis(spec, np.array([0.2, 0.8], dtype=complex))
    b1 = spec.n_basis_single
    assert np.all(values[0, b1:] == 0) and np.any(values[0, :b1] != 0)
    assert np.all(values[1, :b1] == 0) and np.any(values[1, b1:] != 0)


def test_partition_of_unity_masking():
    sig = rayleigh_signal(5000, seed=9)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0] + np.quantile(env, [0.4, 0.8]).tolist() + [env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    values = dense_basis(spec, sig.samples)
    b1 = spec.n_basis_single
    hits = np.zeros(len(sig), dtype=int)
    for k in range(3):
        block = values[:, k * b1:(k + 1) * b1]
        hits += np.any(block != 0, axis=1)
    assert np.all(hits == 1)  # every sample in exactly one region


def test_linear_term_is_index_zero_per_region():
    sig = rayleigh_signal(3000, seed=4)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("gmp", 5, 2, 1, partition=part)
    values = dense_basis(spec, sig.samples)
    b1 = spec.n_basis_single
    for k in range(2):
        col = values[:, k * b1]
        rows = part.region_index(sig.samples) == k
        np.testing.assert_array_equal(col[rows], sig.samples[rows])
        assert np.all(col[~rows] == 0)


def test_orthogonalize_unitary_whitener_identity():
    """A Gram that is exactly the identity has the identity as its Cholesky factor."""
    rng = np.random.default_rng(5)
    n, b = 400, 3
    q, _ = np.linalg.qr(rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b)))
    values = np.sqrt(n) * q  # sample Gram exactly identity
    factor = block_cholesky((values.conj().T @ values / n)[None])
    np.testing.assert_allclose(factor, np.eye(b)[None], atol=1e-10)


def test_orthogonalize_gram_identity_and_reconstruction():
    """The whitening learn applies, the Cholesky factor L of gram_matrix, turns
    the basis columns into columns of identity sample Gram, and L^H takes them back."""
    sig = rayleigh_signal()
    spec = BasisSpec("memoryless", 5)
    factor = block_cholesky(gram_matrix(spec, sig.samples))
    dense = dense_basis(spec, sig.samples)
    white = whiten(dense, factor)
    gram = white.conj().T @ white / len(sig)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-6
    assert factor.shape == (1, 3, 3)
    np.testing.assert_allclose(white @ _block_diag(factor).conj().T, dense,
                               rtol=1e-10, atol=1e-12)


def test_orthogonalize_piecewise_block_structure():
    """Per-region factors whiten the masked matrix as a whole; the factor of the
    loaded Gram, which learn uses, whitens the loaded Gram."""
    sig = rayleigh_signal(40000, seed=12)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    factor = block_cholesky(gram_matrix(spec, sig.samples))
    dense = dense_basis(spec, sig.samples)
    white = whiten(dense, factor)
    gram = white.conj().T @ white / len(sig)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-6
    assert factor.shape == (2, 3, 3)
    np.testing.assert_allclose(white @ _block_diag(factor).conj().T, dense,
                               rtol=1e-10, atol=1e-12)
    raw = dense.conj().T @ dense / len(sig)
    loaded = raw + STATS_LOADING * np.trace(raw).real / 6 * np.eye(6)
    lf = _block_diag(block_cholesky(precompute_covariance(spec, sig)))
    half = np.linalg.solve(lf, loaded)  # L^-1 R, whose conjugate transpose is R L^-H
    assert np.max(np.abs(np.linalg.solve(lf, half.conj().T) - np.eye(6))) < 1e-6


def test_orthogonalize_degenerate_cases():
    """block_cholesky refuses a rank-deficient Gram, and the zero block that
    gram_matrix gives an empty region, naming that region."""
    sig = rayleigh_signal(2000)
    col = dense_basis(BasisSpec("memoryless", 5), sig.samples)[:, :1]
    dup = np.hstack([col, col])  # exact duplicate
    with pytest.raises(DegenerateRegionError):
        block_cholesky((dup.conj().T @ dup / len(sig))[None])
    # empty top region
    part = RegionPartition([0.0, 5.0, 6.0])
    spec = BasisSpec("memoryless", 3, partition=part)
    with pytest.raises(DegenerateRegionError) as err:
        block_cholesky(gram_matrix(spec, sig.samples))
    assert err.value.region == 1


def _factor_solve(factor, rhs):
    """R^-1 rhs through the Cholesky factor of R = L L^H, as learn applies it: L^-H (L^-1 rhs)."""
    return np.linalg.solve(factor.conj().transpose(0, 2, 1), np.linalg.solve(factor, rhs))


def test_covariance_orthonormal_and_closed_form():
    sig = rayleigh_signal()
    spec = BasisSpec("memoryless", 3)
    cov = precompute_covariance(spec, sig)
    # oracle: direct loaded sample covariance and the 2x2 analytic inverse
    x = sig.samples
    psi = np.stack([x, x * np.abs(x) ** 2], axis=1)
    r = psi.conj().T @ psi / x.size
    r += STATS_LOADING * np.trace(r).real / 2 * np.eye(2)
    np.testing.assert_allclose(cov, r[None], rtol=1e-9, atol=1e-12)
    factor = block_cholesky(cov)
    np.testing.assert_allclose(factor @ factor.conj().transpose(0, 2, 1), cov, rtol=1e-12)
    a, b_, c, d = r[0, 0], r[0, 1], r[1, 0], r[1, 1]
    det = a * d - b_ * c
    oracle_inv = np.array([[d, -b_], [-c, a]]) / det
    np.testing.assert_allclose(_factor_solve(factor, np.eye(2)[None]), oracle_inv[None], rtol=1e-5)


def test_covariance_piecewise_block_diagonal():
    sig = rayleigh_signal(20000, seed=3)
    env = np.abs(sig.samples)
    part = RegionPartition([0.0, np.median(env), env.max() * 1.001])
    spec = BasisSpec("memoryless", 5, partition=part)
    cov = precompute_covariance(spec, sig)
    b1 = spec.n_basis_single
    assert cov.shape == (2, b1, b1)
    # the stack is the whole loaded covariance: the dense one is zero off its blocks
    dense = dense_basis(spec, sig.samples)
    gram = dense.conj().T @ dense / len(sig)
    loaded = gram + STATS_LOADING * np.trace(gram).real / (2 * b1) * np.eye(2 * b1)
    assert np.max(np.abs(_block_diag(cov) - loaded)) < 1e-12 * np.max(np.abs(cov))
    factor = block_cholesky(cov)
    np.testing.assert_allclose(factor @ factor.conj().transpose(0, 2, 1), cov,
                               rtol=0, atol=1e-12 * np.max(np.abs(cov)))
    np.testing.assert_allclose(_factor_solve(factor, cov), np.broadcast_to(np.eye(b1), cov.shape),
                               atol=1e-6)


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
    dense = dense_basis(spec, sig.samples)
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
    dense = dense_basis(spec, x)
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


@pytest.mark.parametrize("spec", [BasisSpec("gmp", 5, 2, 2), BasisSpec("full_dual_input", 5, 2),
                                  BasisSpec("full_dual_input", 9, 3)],
                         ids=["gmp-leads", "full-dual-input-conj", "full-dual-input-order-9"])
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
    ridx = part.region_index(x)

    per_chunk = {}
    for k, rows, psi in basis_mod.region_blocks(spec, x):
        assert psi.shape == (rows.size, spec.n_basis_single) and psi.flags.f_contiguous
        assert np.all(ridx[rows] == k)
        np.testing.assert_allclose(psi, dense[rows], rtol=1e-12, atol=0)
        per_chunk.setdefault(rows[0] // CHUNK, []).append((k, rows, psi))
    assert [[k for k, _, _ in per_chunk[c]] for c in range(3)] == [[0, 1, 2], [0, 2], [0, 1, 2]]
    for c, blocks in per_chunk.items():
        rows = np.sort(np.concatenate([r for _, r, _ in blocks]))
        np.testing.assert_array_equal(rows, np.arange(c * CHUNK, min((c + 1) * CHUNK, x.size)))
        # one allocation per chunk, tiled by its region blocks
        owner = blocks[0][2].base
        assert owner is not None and owner.size == sum(psi.size for _, _, psi in blocks)
        assert all(np.shares_memory(owner, psi) for _, _, psi in blocks)


def _memory_case(n):
    """The 116-term dual-input basis on one region and n rows, with a gamma and
    an error signal, and the bytes of one CHUNK-row block of it."""
    spec = BasisSpec("full_dual_input", 9, 3)
    rng = np.random.default_rng(5)
    x, err = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * 0.5
    gamma = rng.standard_normal(spec.n_basis_total) + 0j
    return spec, x, gamma, err, CHUNK * spec.n_basis_single * 16


def test_chunked_passes_hold_one_chunk_at_a_time():
    """Over 3 CHUNK + 1000 rows each pass peaks near one chunk's block plus
    the lag table and a PANEL-row conjugated panel. Measured peak / block:
    gram_matrix 1.18, apply_gamma 1.20, cross_correlation 1.17. A pass that
    still held the previous chunk's block while the next one was built
    measured 2.18, 2.20 and 2.17."""
    spec, x, gamma, err, block = _memory_case(3 * CHUNK + 1000)
    for fn, args in ((gram_matrix, (spec, x)), (apply_gamma, (spec, x, gamma)),
                     (cross_correlation, (spec, x, err))):
        assert traced_peak(fn, *args) < 1.3 * block, fn.__name__


def test_regularized_lstsq_allocates_a_few_percent_beyond_a():
    """An ILA-sized fit (50000 x 116, one F-order block) allocates 0.046 of
    a.nbytes beyond a, with a^H a formed over PANEL-row panels; conjugated
    16384-row slices measured 0.33."""
    spec, x, _, target, _ = _memory_case(50000)
    ((_, _, a),) = basis_mod.region_blocks(spec, x, chunk=x.size)
    assert a.flags.f_contiguous
    assert traced_peak(regularized_lstsq, a, target) < 0.1 * a.nbytes


def _owners(node, name, owner="<module>"):
    """Names of the functions (or classes) whose bodies refer to name, a keyword
    argument's name included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _owners(child, name, child.name)
            continue
        if ((isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.keyword) and child.arg == name)
                or (isinstance(child, ast.alias) and name in (child.name, child.asname))):
            yield owner
        yield from _owners(child, name, owner)


def test_only_region_blocks_builds_basis_rows():
    package = Path(basis_mod.__file__).parent
    owners = {(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in _owners(ast.parse(path.read_text()), "base_matrix")}
    assert owners == {("basis.py", "region_blocks")}


def test_only_errors_reads_and_writes_json_files():
    """errors.read_json and errors.write_json are the package's one JSON file
    reader and writer: no other code calls json.loads, .read_text() or an
    indented json.dumps. cli's print(json.dumps(...)) writes stdout, not a file,
    so what print is given is not searched."""
    package = Path(basis_mod.__file__).parent
    owners = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                node.args = []
        owners |= {(path.name, name, owner) for name in ("loads", "read_text", "indent")
                   for owner in _owners(tree, name)}
    assert owners == {("errors.py", "loads", "read_json"), ("errors.py", "read_text", "read_json"),
                      ("errors.py", "indent", "write_json")}


def test_only_base_matrix_and_derive_partition_assign_regions():
    """RegionPartition.region_index is the one rule of a sample's region; in
    the package only base_matrix and derive_partition call it."""
    package = Path(basis_mod.__file__).parent
    owners = {(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in _owners(ast.parse(path.read_text()), "region_index")}
    assert owners == {("basis.py", "base_matrix"), ("scenarios.py", "derive_partition")}


def test_package_calls_no_matrix_inverse():
    """R^-1 and (L^H)^-1 are applied through solves against Cholesky factors."""
    package = Path(basis_mod.__file__).parent
    owners = {(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in _owners(ast.parse(path.read_text()), "inv")}
    assert owners == set()


def test_package_keeps_no_dense_basis_builders():
    """The masked N x K*B1 matrix and its whitening are test oracles
    (conftest.dense_basis, conftest.whiten): the package streams region blocks
    and whitens through block_cholesky, and neither defines nor exports them."""
    package = Path(basis_mod.__file__).parent
    names = {getattr(node, field, None) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) for field in ("name", "id", "attr")}
    assert names.isdisjoint({"BasisMatrix", "build_matrix", "orthogonalize"})
    assert not {"BasisMatrix", "build_matrix", "orthogonalize"} & set(dir(pwdpd))


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


@pytest.mark.parametrize("seed", [7, 4])
def test_pw_basis_beats_single_polynomial_on_ilc_oracle(seed):
    """Fitted to the same ILC ideal input, the PW (Taylor) basis reaches at
    least 2 dB more ACLR than the single polynomial on array8-deep. Bundle seed
    4 is a draw on which the PW-CL learner collapses (30.17 dBc), so the
    yardstick separates what the basis can express from what the learner finds."""
    pw, single, residual_db = ilc_oracle_aclr(seed)
    assert residual_db < -30.0
    assert pw - single >= 2.0, (pw, single)
