"""Nonlinear basis-function sets, their chunked region blocks, and the block statistics.

Each basis function is one of three shapes over the complex baseband signal x:

  aligned  x(n-m) |x(n-m)|^(q-1)                    lags=(m,)
  cross    x(n-ms) |x(n-me)|^(q-1)                  lags=(ms, me), ms != me
  conj     x*(n-mc) x(n-mq)^2 |x(n-mq)|^(q-3)       lags=(mc, mq), mc != mq

with q the odd nonlinearity order. Families enumerate deterministic ordered
subsets of these up to one max_order and over the lags 0..memory_depth (gmp
also shifts its envelope by up to cross_memory_depth); the aligned order-1
lag-0 term (x itself) is always index 0, which the learners rely on.
Piecewise specs replicate the set per region and zero every row outside the
region owning that sample's envelope, so the Gram matrix is exactly
block-diagonal by region. That masked matrix is never formed: region_blocks
yields each region's rows chunk by chunk, and the Gram, filter and
correlation passes accumulate over those blocks.

Memory rule: a pass holds one chunk's region blocks at a time, all cut from
one allocation, and drops them before the next chunk is built; base_matrix
holds one region's lag table at a time while it writes that chunk; products
Psi^H Psi are formed over PANEL-row panels, so no conjugated copy larger
than one panel is made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateRegionError, check_fields, check_keys, is_int
from .partition import RegionPartition
from .signals import IqSignal

FAMILIES = ("gmp", "full_dual_input")

COVARIANCE_LOADING = 1e-10

# ridge on the learning statistics Gram: piecewise high-order columns can be
# 1e-15 relative power in low-amplitude regions, and unregularized whitening
# would amplify block-to-block sampling noise on those directions into the
# correction path; the floor freezes directions below ~ -50 dB relative power
STATS_LOADING = 1e-5

# rows per base_matrix call in the chunked passes (Gram, filter, correlation)
CHUNK = 16384

# rows per panel of a Psi^H Psi product (gram_matrix, regularized_lstsq)
PANEL = 2048


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

    def __post_init__(self):
        check_fields(vars(self), SPEC_RANGES, "basis spec")

    # full_dual_input's per-family orders (P1..P3) and memories (M1..M6), all
    # max_order and memory_depth; None for the other families
    @property
    def orders(self) -> tuple[int, ...] | None:
        return (self.max_order,) * 3 if self.family == "full_dual_input" else None

    @property
    def memories(self) -> tuple[int, ...] | None:
        return (self.memory_depth,) * 6 if self.family == "full_dual_input" else None

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

    def with_partition(self, partition: RegionPartition | None) -> "BasisSpec":
        return replace(self, partition=partition)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "max_order": self.max_order,
            "memory_depth": self.memory_depth,
            "cross_memory_depth": self.cross_memory_depth,
            "partition": self.partition.to_dict() if self.partition is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        """Inverse of to_dict: a field that is missing or ill-typed, a partition
        that is neither null nor an object, and a key to_dict does not write are
        refused by name."""
        check_keys(check_fields(d, _SPEC_FIELDS, "basis spec"), _SPEC_FIELDS, "basis spec")
        part = d.get("partition")
        return cls(d["family"], d["max_order"], d["memory_depth"], d["cross_memory_depth"],
                   None if part is None else RegionPartition.from_dict(part))


# each BasisSpec field's test and what it asks for, a config's basis section's
# too; a spec file's partition is null or the object RegionPartition.from_dict reads
SPEC_RANGES = {"family": (lambda v: v in FAMILIES, f"one of {FAMILIES}"),
               "max_order": (lambda v: is_int(v) and v >= 1 and v % 2 == 1, "an odd integer >= 1"),
               "memory_depth": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
               "cross_memory_depth": (lambda v: is_int(v) and v >= 0, "an integer >= 0")}
_SPEC_FIELDS = {**SPEC_RANGES, "partition": (lambda v: v is None or isinstance(v, dict),
                                             "null or a partition object")}


def enumerate_bfs(spec: BasisSpec) -> list[BfTerm]:
    """Deterministic ordered basis-function list for one region of the spec.

    Every family starts with the aligned terms, order by order and tap by tap;
    gmp adds its lagging-, then leading-envelope cross terms. full_dual_input
    adds every cross, then every conj, term of order 3..max_order over the
    lags 0..memory_depth, dropping the pure-delay beta^0 terms and the
    equal-lag cross/conj terms, which coincide with aligned terms once the
    beam weights are lumped into the coefficients; at max_order 9 and
    memory_depth 3 that set has 116 entries.
    """
    taps = range(spec.memory_depth + 1)
    terms = [BfTerm("aligned", q, (m,)) for q in range(1, spec.max_order + 1, 2) for m in taps]
    orders = range(3, spec.max_order + 1, 2)
    if spec.family == "gmp":
        for sign in (1, -1):  # lagging, then leading envelope
            terms += [BfTerm("cross", q, (m, m + sign * c)) for q in orders for m in taps
                      for c in range(1, spec.cross_memory_depth + 1)]
    elif spec.family == "full_dual_input":
        for shape in ("cross", "conj"):
            terms += [BfTerm(shape, q, (m1, m2)) for q in orders for m1 in taps for m2 in taps
                      if m1 != m2]
    return terms


def _envelope(term: BfTerm) -> tuple[int, int]:
    """(m, e) of term's envelope factor |x(n-m)|^e; e is even, 0 when there is none."""
    return term.lags[-1], term.order - (3 if term.family == "conj" else 1)


def base_matrix(spec: BasisSpec, x: np.ndarray, start: int,
                n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Basis blocks of rows start..start+n-1 of x as (k, rows, psi), one per non-empty region.

    rows are the positions in x whose instantaneous envelope falls in region
    k (all n of them for an unpartitioned spec) and psi the matching base-set
    rows, an F-order len(rows) x B1 block filled column by column. The blocks
    are cut from one n x B1 allocation, so a caller holding any one of them
    holds all of this call's rows. Each region's columns are written from its
    lag table: the lagged samples, their conjugates and even envelope powers.
    """
    terms = enumerate_bfs(spec)
    lags = [m for t in terms for m in t.lags]  # negative lags are the GMP cross-term leads
    max_lag, max_lead = max(max(lags), 0), max(-min(lags), 0)
    lo, hi = start - max_lag, start + n + max_lead
    window = np.pad(x[max(lo, 0):hi].astype(np.complex128), (max(-lo, 0), max(hi - x.size, 0)))
    ridx = (np.zeros(n, dtype=np.intp) if spec.partition is None
            else spec.partition.region_index(x[start:start + n]))
    # every (lag, even exponent) an envelope power is kept for, each after the one two below
    powers = sorted({(m, p) for m, e in map(_envelope, terms) for p in range(2, e + 1, 2)})
    buf = np.empty(n * len(terms), dtype=np.complex128)
    blocks, used = [], 0
    for k in range(spec.n_regions):
        sel = np.flatnonzero(ridx == k)
        if not sel.size:
            continue
        shifted = {m: window[sel + max_lag - m] for m in set(lags)}
        conj = {m: np.conj(shifted[m]) for m in {t.lags[0] for t in terms if t.family == "conj"}}
        power = {}
        for m, e in powers:
            power[m, e] = (power[m, e - 2] * power[m, 2] if e > 2 else
                           shifted[m].real * shifted[m].real + shifted[m].imag * shifted[m].imag)
        psi = buf[used:used + sel.size * len(terms)].reshape((sel.size, len(terms)), order="F")
        used += psi.size
        for j, term in enumerate(terms):
            (m, e), out = _envelope(term), psi[:, j]
            if term.family == "conj":
                np.square(shifted[m], out=out)
                np.multiply(conj[term.lags[0]], out, out=out)
                if e:
                    np.multiply(out, power[m, e], out=out)
            elif e:  # aligned (one lag) or cross (ms, me)
                np.multiply(shifted[term.lags[0]], power[m, e], out=out)
            else:
                out[...] = shifted[term.lags[0]]
        del shifted, conj, power  # frees this region's table before the next is gathered
        blocks.append((k, start + sel, psi))
    return blocks


def region_blocks(spec: BasisSpec, x: np.ndarray, chunk: int = CHUNK):
    """Yield (k, rows, psi) per non-empty region of each chunk of x.

    This is the one place basis rows are built: one base_matrix call per
    chunk, whose per-region blocks are yielded as they are. A caller drops
    its references to a chunk's blocks before asking for the next chunk's,
    so that one chunk is held at a time.
    """
    for lo in range(0, x.size, chunk):
        yield from base_matrix(spec, x, lo, min(chunk, x.size - lo))


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


def block_solve(factor: np.ndarray, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve L x = v (L^H x = v if adjoint) for the block-diagonal L held as
    its K x B1 x B1 stack of region blocks, v region-stacked like gamma."""
    k, b1, b2 = factor.shape
    if b1 != b2 or v.shape != (k * b1,):
        raise ValueError(
            f"a {factor.shape} factor stack does not tile {v.shape[0]} coefficients")
    if adjoint:
        factor = factor.conj().transpose(0, 2, 1)
    return np.linalg.solve(factor, v.reshape(k, b1, 1)).ravel()


def _self_product(a: np.ndarray, out: np.ndarray) -> None:
    """Add a^H a into out over PANEL-row panels of a, so that no conjugated
    copy larger than one panel is made."""
    for lo in range(0, a.shape[0], PANEL):
        panel = a[lo:lo + PANEL]
        out += panel.conj().T @ panel


def gram_matrix(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """Sample Gram Psi^H Psi / N as its K x B1 x B1 region blocks, accumulated chunk-wise.

    One chunk's blocks are held at a time, and each block's product is formed
    over PANEL-row panels. The off-diagonal blocks are exactly zero (regions
    have disjoint rows), so they are not stored.
    """
    b1 = spec.n_basis_single
    gram = np.zeros((spec.n_regions, b1, b1), dtype=np.complex128)
    for k, _, psi in region_blocks(spec, x):
        _self_product(psi, gram[k])
        del psi  # frees the chunk before region_blocks builds the next
    return gram / x.size


def precompute_covariance(spec: BasisSpec, training: IqSignal) -> np.ndarray:
    """Loaded sample covariance of the basis vector as a K x B1 x B1 stack.

    Diagonal loading of STATS_LOADING * trace/B keeps nearly empty regions
    positive definite; a region with no samples raises DegenerateRegionError.
    """
    b = spec.n_basis_total
    if len(training) < 10 * b:
        raise ConfigError(f"training signal must have at least 10*B = {10 * b} samples")
    cov = gram_matrix(spec, training.samples)
    for k, block in enumerate(cov):
        if np.abs(np.diag(block)).max() <= 0:
            raise DegenerateRegionError(k, f"region {k} received no samples in the statistics block")
    trace = cov.diagonal(axis1=1, axis2=2).real.sum()
    return cov + (STATS_LOADING * trace / b) * np.eye(spec.n_basis_single)


def apply_gamma(spec: BasisSpec, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Correction signal Psi @ gamma without materializing the masked matrix."""
    out = np.zeros(x.size, dtype=np.complex128)
    if not np.any(gamma):
        return out
    per_region = gamma.reshape(spec.n_regions, -1)
    for k, rows, psi in region_blocks(spec, x):
        out[rows] = psi @ per_region[k]
        del psi  # frees the chunk before region_blocks builds the next
    return out


def cross_correlation(spec: BasisSpec, x: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Region-stacked sample cross-correlation Psi^H e / N."""
    acc = np.zeros((spec.n_regions, spec.n_basis_single), dtype=np.complex128)
    for k, rows, psi in region_blocks(spec, x):
        acc[k] += (err[rows].conj() @ psi).conj()
        del psi  # frees the chunk before region_blocks builds the next
    return acc.ravel() / x.size


def regularized_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares via a Cholesky of the diagonally loaded normal equations.

    Solves min ||a c - b||^2 + lam ||c||^2 with lam = COVARIANCE_LOADING *
    trace(a^H a)/B, the loading policy of precompute_covariance, at the
    cost the FLOP ledger charges an ILA fit: one Gram G = a^H a plus a B x B
    Cholesky. The loaded system is column-equilibrated, D (G + lam I) D u =
    D a^H b with D = diag(G + lam I)^-1/2, before it is factored, and c = D u.
    Forming G squares the conditioning of a, so one refinement step on the
    residual b - a c (two matrix-vector products) follows. G is formed over
    PANEL-row panels and a^H v as (v^H a)^H, so beyond a the fit allocates a
    few percent of its size. Raises LinAlgError when a has no power or the
    factorization fails.
    """
    cols = a.shape[1]
    loaded = np.zeros((cols, cols), dtype=a.dtype)
    _self_product(a, loaded)
    lam = COVARIANCE_LOADING * np.trace(loaded).real / cols
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
