"""Nonlinear basis-function sets, piecewise data matrices, and orthogonalization.

Each basis function is one of three shapes over the complex baseband signal x:

  aligned  x(n-m) |x(n-m)|^(q-1)                    lags=(m,)
  cross    x(n-ms) |x(n-me)|^(q-1)                  lags=(ms, me), ms != me
  conj     x*(n-mc) x(n-mq)^2 |x(n-mq)|^(q-3)       lags=(mc, mq), mc != mq

with q the odd nonlinearity order. Families enumerate deterministic ordered
subsets of these; the aligned order-1 lag-0 term (x itself) is always index 0,
which the learners rely on. Piecewise specs replicate the set per region and
zero every row outside the region owning that sample's envelope, so the Gram
matrix is exactly block-diagonal by region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateRegionError
from .partition import RegionPartition
from .signals import IqSignal

FAMILIES = ("memoryless", "memory_poly", "gmp", "full_dual_input")

COVARIANCE_LOADING = 1e-10

# rows per base_matrix call in the chunked passes (Gram, filter, correlation)
CHUNK = 16384


@dataclass(frozen=True)
class BfTerm:
    """One basis function: shape family, odd order q, and its lag tuple."""

    family: str
    order: int
    lags: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"family": self.family, "order": self.order, "lags": list(self.lags)}

    @property
    def instantaneous(self) -> bool:
        return all(m == 0 for m in self.lags)


@dataclass(frozen=True)
class BasisSpec:
    family: str
    max_order: int = 9
    memory_depth: int = 0
    cross_memory_depth: int = 0
    partition: RegionPartition | None = None
    # full_dual_input only: per-term-family orders (P1,P2,P3) and memories (M1..M6)
    orders: tuple[int, int, int] | None = None
    memories: tuple[int, int, int, int, int, int] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown basis family {self.family!r}")
        for q in (self.max_order,) + tuple(self.orders or ()):
            if q < 1 or q % 2 == 0:
                raise ConfigError(f"nonlinearity orders must be odd and >= 1, got {q}")
        if self.memory_depth < 0 or self.cross_memory_depth < 0:
            raise ConfigError("memory depths must be non-negative")
        if self.family == "full_dual_input":
            if self.orders is None:
                object.__setattr__(self, "orders", (self.max_order,) * 3)
            if self.memories is None:
                object.__setattr__(self, "memories", (self.memory_depth,) * 6)
            if len(self.orders) != 3 or len(self.memories) != 6:
                raise ConfigError("full_dual_input needs 3 orders and 6 memory depths")

    @property
    def n_regions(self) -> int:
        return self.partition.n_regions if self.partition is not None else 1

    @property
    def n_basis_single(self) -> int:
        return len(enumerate_bfs(self))

    @property
    def n_basis_total(self) -> int:
        return self.n_regions * self.n_basis_single

    @property
    def n_instantaneous_single(self) -> int:
        return sum(term.instantaneous for term in enumerate_bfs(self))

    def without_partition(self) -> "BasisSpec":
        return replace(self, partition=None)

    def with_partition(self, partition: RegionPartition | None) -> "BasisSpec":
        return replace(self, partition=partition)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "max_order": self.max_order,
            "memory_depth": self.memory_depth,
            "cross_memory_depth": self.cross_memory_depth,
            "orders": list(self.orders) if self.orders else None,
            "memories": list(self.memories) if self.memories else None,
            "partition": self.partition.to_dict() if self.partition is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        part = d.get("partition")
        return cls(
            family=d["family"],
            max_order=d["max_order"],
            memory_depth=d.get("memory_depth", 0),
            cross_memory_depth=d.get("cross_memory_depth", 0),
            partition=RegionPartition.from_dict(part) if part else None,
            orders=tuple(d["orders"]) if d.get("orders") else None,
            memories=tuple(d["memories"]) if d.get("memories") else None,
        )


def enumerate_bfs(spec: BasisSpec) -> list[BfTerm]:
    """Deterministic ordered basis-function list for one region of the spec.

    The full_dual_input family drops the pure-delay beta^0 terms and the
    equal-lag cross/conj terms, which coincide with aligned terms once the
    beam weights are lumped into the coefficients; with all orders 9 and
    memories 3 the surviving set has 116 entries.
    """
    terms: list[BfTerm] = []
    if spec.family == "memoryless":
        for p in range((spec.max_order + 1) // 2):
            terms.append(BfTerm("aligned", 2 * p + 1, (0,)))
    elif spec.family == "memory_poly":
        for p in range((spec.max_order + 1) // 2):
            for m in range(spec.memory_depth + 1):
                terms.append(BfTerm("aligned", 2 * p + 1, (m,)))
    elif spec.family == "gmp":
        for p in range((spec.max_order + 1) // 2):
            for m in range(spec.memory_depth + 1):
                terms.append(BfTerm("aligned", 2 * p + 1, (m,)))
        for p in range(1, (spec.max_order + 1) // 2):
            for m in range(spec.memory_depth + 1):
                for c in range(1, spec.cross_memory_depth + 1):
                    terms.append(BfTerm("cross", 2 * p + 1, (m, m + c)))
        for p in range(1, (spec.max_order + 1) // 2):
            for m in range(spec.memory_depth + 1):
                for c in range(1, spec.cross_memory_depth + 1):
                    terms.append(BfTerm("cross", 2 * p + 1, (m, m - c)))
    else:  # full_dual_input
        p1, p2, p3 = spec.orders
        m1, _, m3, m4, m5, m6 = spec.memories
        for p in range((p1 + 1) // 2):
            for m in range(m1 + 1):
                terms.append(BfTerm("aligned", 2 * p + 1, (m,)))
        for p in range(1, (p2 + 1) // 2):
            for ms in range(m3 + 1):
                for me in range(m4 + 1):
                    if ms != me:
                        terms.append(BfTerm("cross", 2 * p + 1, (ms, me)))
        for p in range(1, (p3 + 1) // 2):
            for mc in range(m5 + 1):
                for mq in range(m6 + 1):
                    if mc != mq:
                        terms.append(BfTerm("conj", 2 * p + 1, (mc, mq)))
    return terms


class _LagCache:
    """Lagged samples x(rows - lag), their conjugates and envelope powers over
    one region's rows; window[pos] is x at those rows, zero-padded beyond x."""

    def __init__(self, window: np.ndarray, pos: np.ndarray):
        self._window = window
        self._pos = pos
        self._shifted: dict[tuple[int, bool], np.ndarray] = {}
        self._env_pow: dict[tuple[int, int], np.ndarray] = {}

    def shifted(self, lag: int, conj: bool = False) -> np.ndarray:
        key = (lag, conj)
        if key not in self._shifted:
            self._shifted[key] = (np.conj(self.shifted(lag)) if conj
                                  else self._window[self._pos - lag])
        return self._shifted[key]

    def env_power(self, lag: int, exponent: int) -> np.ndarray:
        """|x(n-lag)|^exponent for even exponent >= 2, a product of the cached lower powers."""
        key = (lag, exponent)
        if key not in self._env_pow:
            if exponent == 2:
                s = self.shifted(lag)
                self._env_pow[key] = s.real * s.real + s.imag * s.imag
            else:
                self._env_pow[key] = self.env_power(lag, exponent - 2) * self.env_power(lag, 2)
        return self._env_pow[key]


def _write_column(term: BfTerm, cache: _LagCache, out: np.ndarray) -> None:
    """Write one basis function over the cache's rows into out, without temporaries."""
    q = term.order
    if term.family == "conj":
        mc, mq = term.lags
        np.square(cache.shifted(mq), out=out)
        np.multiply(cache.shifted(mc, conj=True), out, out=out)
        if q > 3:
            np.multiply(out, cache.env_power(mq, q - 3), out=out)
    elif q > 1:  # aligned (one lag) or cross (ms, me)
        np.multiply(cache.shifted(term.lags[0]), cache.env_power(term.lags[-1], q - 1), out=out)
    else:
        out[...] = cache.shifted(term.lags[0])


def base_matrix(spec: BasisSpec, x: np.ndarray, start: int,
                n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Basis blocks of rows start..start+n-1 of x as (k, rows, psi), one per non-empty region.

    rows are the positions in x whose instantaneous envelope falls in region
    k (all n of them for an unpartitioned spec) and psi the matching base-set
    rows, a preallocated F-order len(rows) x B1 block filled column by column.
    """
    terms = enumerate_bfs(spec)
    lags = [m for t in terms for m in t.lags]  # negative lags are the GMP cross-term leads
    max_lag, max_lead = max(max(lags), 0), max(-min(lags), 0)
    lo, hi = start - max_lag, start + n + max_lead
    window = np.pad(x[max(lo, 0):hi].astype(np.complex128), (max(-lo, 0), max(hi - x.size, 0)))
    ridx = (np.zeros(n, dtype=np.intp) if spec.partition is None
            else spec.partition.region_index(np.abs(x[start:start + n])))
    blocks = []
    for k in range(spec.n_regions):
        sel = np.flatnonzero(ridx == k)
        if sel.size:
            # rebinding frees the previous region's gathered lags before new ones are made
            cache = _LagCache(window, sel + max_lag)
            psi = np.empty((sel.size, len(terms)), dtype=np.complex128, order="F")
            for j, term in enumerate(terms):
                _write_column(term, cache, psi[:, j])
            blocks.append((k, start + sel, psi))
    return blocks


def region_blocks(spec: BasisSpec, x: np.ndarray, start: int = 0, stop: int | None = None,
                  chunk: int = CHUNK):
    """Yield (k, rows, psi) per non-empty region of each chunk of x[start:stop].

    This is the one place basis rows are built: one base_matrix call per
    chunk, whose per-region blocks are yielded as they are.
    """
    stop = x.size if stop is None else stop
    for lo in range(start, stop, chunk):
        yield from base_matrix(spec, x, lo, min(chunk, stop - lo))


@dataclass
class BasisMatrix:
    """Realized data matrix for one sample block.

    values is N x B with B = n_regions * B1; the region-k column block is the
    base set masked to rows whose envelope falls in region k. When
    orthogonalized, whitener is the K x B1 x B1 stack of lower-triangular L_k
    with the region-k columns of Psi_orth equal to Psi_k (L_k^H)^-1.
    """

    values: np.ndarray
    spec: BasisSpec
    orthogonalized: bool = False
    whitener: np.ndarray | None = None
    region_index: np.ndarray | None = None

    @property
    def n_basis_single(self) -> int:
        return self.spec.n_basis_single


def build_matrix(spec: BasisSpec, a1: IqSignal, block: tuple[int, int] | None = None) -> BasisMatrix:
    """Assemble the (piecewise-masked) data matrix over one block of a1."""
    x = a1.samples
    if block is None:
        block = (0, x.size)
    start, n = block
    if start < 0 or n <= 0 or start + n > x.size:
        raise ConfigError(f"block {block} outside signal of length {x.size}")
    values = np.zeros((n, spec.n_regions, spec.n_basis_single), dtype=np.complex128)
    ridx = np.zeros(n, dtype=np.intp)
    for k, rows, psi in region_blocks(spec, x, start, start + n, chunk=n):
        values[rows - start, k] = psi
        ridx[rows - start] = k
    return BasisMatrix(values.reshape(n, -1), spec,
                       region_index=ridx if spec.partition is not None else None)


def block_cholesky(gram: np.ndarray) -> np.ndarray:
    """Cholesky factor of each block of a K x B1 x B1 Gram stack.

    Raises DegenerateRegionError for the first region whose block is not
    finite, has a zero-power column or is rank deficient.
    """
    whitener = np.empty_like(gram)
    for k, block in enumerate(gram):
        if not np.all(np.isfinite(block)) or np.abs(np.diag(block)).min() <= 0:
            raise DegenerateRegionError(k, f"region {k} has empty or zero-power basis columns")
        try:
            whitener[k] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise DegenerateRegionError(
                k, f"region {k} Gram matrix is rank deficient") from None
    return whitener


def orthogonalize(bm: BasisMatrix) -> BasisMatrix:
    """Whiten the matrix so the sample Gram Psi^H Psi / N is the identity.

    The Gram is block-diagonal by region (disjoint row supports), so a
    per-region Cholesky factor is computed and inverted against the columns.
    """
    if bm.orthogonalized:
        raise ConfigError("matrix is already orthogonalized")
    n, b = bm.values.shape
    if n < 10 * b:
        raise ConfigError(f"need at least 10 rows per column to orthogonalize (N={n}, B={b})")
    cols = bm.values.reshape(n, bm.spec.n_regions, -1).transpose(1, 0, 2)  # K x N x B1
    whitener = block_cholesky(cols.conj().transpose(0, 2, 1) @ cols / n)
    # columns <- columns (L^H)^-1, done as a triangular solve per region
    values = np.linalg.solve(whitener.conj(), cols.transpose(0, 2, 1)).transpose(2, 0, 1)
    return BasisMatrix(values.reshape(n, b), bm.spec, orthogonalized=True, whitener=whitener,
                       region_index=bm.region_index)


def gram_matrix(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """Sample Gram Psi^H Psi / N as its K x B1 x B1 region blocks, accumulated chunk-wise.

    The off-diagonal blocks are exactly zero (regions have disjoint rows), so
    they are not stored.
    """
    b1 = spec.n_basis_single
    gram = np.zeros((spec.n_regions, b1, b1), dtype=np.complex128)
    for k, _, psi in region_blocks(spec, x):
        gram[k] += psi.conj().T @ psi
    return gram / x.size


def precompute_covariance(spec: BasisSpec, training: IqSignal,
                          loading: float = COVARIANCE_LOADING) -> tuple[np.ndarray, np.ndarray]:
    """Loaded sample covariance of the basis vector and its inverse, as K x B1 x B1 stacks.

    Diagonal loading of loading * trace/B keeps nearly empty regions
    invertible; a region with no samples at all raises DegenerateRegionError.
    """
    b = spec.n_basis_total
    if len(training) < 10 * b:
        raise ConfigError(f"training signal must have at least 10*B = {10 * b} samples")
    cov = gram_matrix(spec, training.samples)
    for k, block in enumerate(cov):
        if np.abs(np.diag(block)).max() <= 0:
            raise DegenerateRegionError(k, f"region {k} received no samples in the statistics block")
    trace = cov.diagonal(axis1=1, axis2=2).real.sum()
    cov = cov + (loading * trace / b) * np.eye(spec.n_basis_single)
    return cov, np.linalg.inv(cov)


def apply_gamma(spec: BasisSpec, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Correction signal Psi @ gamma without materializing the masked matrix."""
    out = np.zeros(x.size, dtype=np.complex128)
    if not np.any(gamma):
        return out
    per_region = gamma.reshape(spec.n_regions, -1)
    for k, rows, psi in region_blocks(spec, x):
        out[rows] = psi @ per_region[k]
    return out


def cross_correlation(spec: BasisSpec, x: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Region-stacked sample cross-correlation Psi^H e / N."""
    acc = np.zeros((spec.n_regions, spec.n_basis_single), dtype=np.complex128)
    for k, rows, psi in region_blocks(spec, x):
        acc[k] += (err[rows].conj() @ psi).conj()
    return acc.ravel() / x.size


def regularized_lstsq(a: np.ndarray, b: np.ndarray,
                      loading: float = COVARIANCE_LOADING) -> np.ndarray:
    """Least squares via a Cholesky of the diagonally loaded normal equations.

    Solves min ||a c - b||^2 + lam ||c||^2 with lam = loading * trace(a^H a)/B,
    the same loading policy as precompute_covariance, at the cost the FLOP
    ledger charges an ILA fit: one Gram G = a^H a plus a B x B Cholesky. The
    loaded system is column-equilibrated, D (G + lam I) D u = D a^H b with
    D = diag(G + lam I)^-1/2, before it is factored, and c = D u. Forming G
    squares the conditioning of a, so one refinement step on the residual
    b - a c (two matrix-vector products) follows. Raises LinAlgError when a
    has no power or the factorization fails.
    """
    rows, cols = a.shape
    loaded = np.zeros((cols, cols), dtype=a.dtype)
    for lo in range(0, rows, CHUNK):  # a^H a without a conjugated copy of all of a
        blk = a[lo:lo + CHUNK]
        loaded += blk.conj().T @ blk
    lam = loading * np.trace(loaded).real / cols
    if not lam > 0:
        raise np.linalg.LinAlgError("least-squares system matrix has no power")
    loaded[np.diag_indices(cols)] += lam
    d = 1.0 / np.sqrt(loaded.diagonal().real)
    factor = np.linalg.cholesky(d[:, None] * loaded * d[None, :])

    def solve(rhs):
        return d * np.linalg.solve(factor.conj().T, np.linalg.solve(factor, d * rhs))

    # a^H v is formed as (v^H a)^H, which reads a in place
    c = solve((b.conj() @ a).conj())
    return c + solve(((b - a @ c).conj() @ a).conj() - lam * c)


def descriptors_json(spec: BasisSpec) -> list[dict]:
    """JSON-ready BF descriptor list (pruning reports, complexity accounting)."""
    return [t.to_dict() for t in enumerate_bfs(spec)]
