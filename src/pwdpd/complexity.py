"""FLOP-count model for the DPD main path and parameter learning.

Cost model: complex multiply 6 FLOPs, complex-real multiply 2, complex add 2.
Main-path entries are FLOPs per transmitted sample; learning entries are the
total learning cost normalized by the iterations x block-size training
samples, so both columns are comparable per-sample figures.

The five accounted configurations:

  pw_ila            piecewise ILA, per-region LS
  cl_self_orth      single-polynomial closed loop, self-orthogonalized rule
  cl_orth_bfs       single-polynomial closed loop, orthogonalized basis
  pwcl_self_orth    piecewise closed loop, self-orthogonalized rule
  pwcl_orth_pruned  piecewise closed loop, orthogonalized + pruned basis
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, check_fields, is_int

CONFIGS = ("pw_ila", "cl_self_orth", "cl_orth_bfs", "pwcl_self_orth", "pwcl_orth_pruned")


@dataclass(frozen=True)
class ComplexityParams:
    """Basis-set cardinalities and learning schedule.

    n_isp / n_sp: instantaneous (lag-0) and full BF counts of one basis, the
    single polynomial's and also each of the k regions' (every region takes
    the same basis); n_pw_pruned: the piecewise count survived by pruning.
    """

    n_isp: int
    n_sp: int
    k: int
    b_cl: int
    i_cl: int
    b_ila: int
    i_ila: int
    n_pw_pruned: int | None = None

    def __post_init__(self):
        # n_pw_pruned, the last field, is tested once k and n_sp have passed
        rules = {name: (lambda v: is_int(v) and v > 0, "an integer > 0") for name in vars(self)}
        rules["n_pw_pruned"] = (lambda v: v is None or is_int(v) and 0 < v <= self.n_pw,
                                "an integer > 0 and <= n_pw, or null")
        check_fields(vars(self), rules, "complexity params")

    @property
    def n_pw(self) -> int:
        """Full BF count of the piecewise structure."""
        return self.k * self.n_sp


def reference_params() -> ComplexityParams:
    """Parameter set of the reference numeric ledger."""
    return ComplexityParams(n_isp=5, n_sp=116, k=3, b_cl=20000, i_cl=10, b_ila=50000,
                            i_ila=4, n_pw_pruned=96)


def params_from_spec(spec, b_cl: int, i_cl: int, b_ila: int, i_ila: int,
                     n_pw_pruned: int | None = None) -> ComplexityParams:
    """Derive the cardinalities from a BasisSpec with a partition."""
    single = spec.with_partition(None)
    return ComplexityParams(n_isp=single.n_instantaneous_single, n_sp=single.n_basis_single,
                            k=spec.n_regions, b_cl=b_cl, i_cl=i_cl, b_ila=b_ila, i_ila=i_ila,
                            n_pw_pruned=n_pw_pruned)


def _ceil(x: float) -> int:
    return int(math.ceil(x - 1e-12))


def flops(config: str, p: ComplexityParams) -> dict:
    """Per-sample FLOP ledger for one DPD configuration.

    The pruned cells take the per-region pruned count rounded up,
    ceil(n_pw_pruned / k); the reference numeric ledger appears to reflect
    unequal per-region pruned counts, and its Filt/Orth cells lie within 5 %
    of these.
    """
    if config not in CONFIGS:
        raise ConfigError(f"config must be one of {CONFIGS}")
    flags: list[str] = []
    k = p.k
    cl_samples = p.i_cl * p.b_cl
    # every region takes the single polynomial's basis, so an unpruned
    # piecewise row costs per sample what its single-polynomial row does
    bf_gen = 2 * p.n_isp - 1
    filt = 8 * p.n_sp - 2
    orth = 0.0
    learn_bf_gen = 0.0

    if config == "pw_ila":
        learn_bf_gen = 2 * p.n_isp + 1
        learn_est = (4 * p.i_ila * k * p.n_sp ** 2 * (_ceil(p.b_ila / k) + _ceil(p.n_sp / 3))
                     / (p.i_ila * p.b_ila))
        flags.append(
            "learning entries are per-sample normalized; the widely quoted 2.7e9 "
            "figure for this column is not derivable from the symbolic formula "
            "with these parameters (it appears un-normalized)")
        flags.append("learning BF-gen formula gives 11/sample where the numeric "
                     "table prints 9")
    elif config in ("cl_self_orth", "pwcl_self_orth"):
        learn_est = p.n_sp * (4 * p.n_sp + 6)
    elif config == "cl_orth_bfs":
        orth = 2 * p.n_sp ** 2
        learn_est = (p.i_cl * p.n_sp * (8 * p.b_cl + 2)) / cl_samples
    else:  # pwcl_orth_pruned
        if p.n_pw_pruned is None:
            raise ConfigError("pwcl_orth_pruned requires n_pw_pruned")
        pr_k = _ceil(p.n_pw_pruned / k)
        bf_gen = 2 * pr_k - 1
        filt = 8 * pr_k - 2
        orth = 2 * _ceil((p.n_pw_pruned / k) ** 2)
        learn_est = (8 * p.b_cl * p.n_sp + 2 * pr_k * p.i_cl
                     + 8 * pr_k * p.b_cl * (p.i_cl - 1)) / cl_samples

    return {
        "config": config,
        "bf_gen": float(bf_gen),
        "filt": float(filt),
        "orth": float(orth),
        "dpd_total": float(bf_gen + filt + orth),
        "learn_bf_gen": float(learn_bf_gen),
        "learn_est": float(learn_est),
        "learn_total": float(learn_bf_gen + learn_est),
        "flags": flags,
    }


def full_ledger(p: ComplexityParams) -> dict:
    """Ledger rows for every configuration (pruned column only when counts given)."""
    rows = {}
    for config in CONFIGS:
        if config == "pwcl_orth_pruned" and p.n_pw_pruned is None:
            continue
        rows[config] = flops(config, p)
    return rows


def format_ledger(rows: dict) -> str:
    """Fixed-width text table of a full ledger."""
    cols = list(rows)
    fields = [("DPD BF gen.", "bf_gen"), ("DPD Filt.", "filt"), ("DPD Orth.", "orth"),
              ("DPD total", "dpd_total"), ("Learn BF gen.", "learn_bf_gen"),
              ("Learn est.", "learn_est"), ("Learn total", "learn_total")]
    width = max(len(c) for c in cols) + 2
    lines = [" " * 15 + "".join(f"{c:>{width}}" for c in cols)]
    for label, key in fields:
        cells = "".join(f"{rows[c][key]:>{width},.1f}" for c in cols)
        lines.append(f"{label:<15}{cells}")
    notes = [f"note ({c}): {msg}" for c in cols for msg in rows[c]["flags"]]
    return "\n".join(lines + notes)
