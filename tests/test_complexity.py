from dataclasses import replace

import numpy as np
import pytest

from pwdpd.basis import BasisSpec
from pwdpd.complexity import (CONFIGS, ComplexityParams, flops, format_ledger, full_ledger,
                              params_from_spec, reference_params)
from pwdpd.errors import ConfigError
from pwdpd.partition import RegionPartition


def test_reference_ledger_values():
    p = reference_params()
    pw_ila = flops("pw_ila", p)
    assert pw_ila["bf_gen"] == 9 and pw_ila["filt"] == 926 and pw_ila["dpd_total"] == 935
    assert pw_ila["flags"]  # the learning column is a flagged discrepancy

    cl_self = flops("cl_self_orth", p)
    assert cl_self["filt"] == 926 and cl_self["dpd_total"] == 935
    assert cl_self["learn_est"] == 54520

    cl_orth = flops("cl_orth_bfs", p)
    assert cl_orth["orth"] == 26912 and cl_orth["dpd_total"] == 27847
    assert round(cl_orth["learn_est"]) == 928

    pw_self = flops("pwcl_self_orth", p)
    assert pw_self["dpd_total"] == 935 and pw_self["learn_est"] == 54520

    pruned = flops("pwcl_orth_pruned", p)
    assert round(pruned["learn_est"], 1) == 323.2
    # pruned Filt/Orth cells: within 5% of the quoted 249 / 1,964
    assert abs(pruned["filt"] - 249) / 249 < 0.05
    assert abs(pruned["orth"] - 1964) / 1964 < 0.05


_CELLS = ("bf_gen", "filt", "orth", "dpd_total", "learn_bf_gen", "learn_est", "learn_total")


def test_full_reference_ledger_pinned():
    """Every cell of the reference ledger, and a pruned row whose count K does
    not divide: the per-region count is rounded up, so filt = 8*34 - 2 and
    orth = 2*ceil((100/3)^2), not 264.67 and 2222.2."""
    ledger = full_ledger(reference_params())
    assert {c: tuple(row[k] for k in _CELLS) for c, row in ledger.items()} == {
        "pw_ila": (9.0, 926.0, 0.0, 935.0, 11.0, 53951.02464, 53962.02464),
        "cl_self_orth": (9.0, 926.0, 0.0, 935.0, 0.0, 54520.0, 54520.0),
        "cl_orth_bfs": (9.0, 926.0, 26912.0, 27847.0, 0.0, 928.0116, 928.0116),
        "pwcl_self_orth": (9.0, 926.0, 0.0, 935.0, 0.0, 54520.0, 54520.0),
        "pwcl_orth_pruned": (63.0, 254.0, 2048.0, 2365.0, 0.0, 323.2032, 323.2032),
    }
    assert {c: len(row["flags"]) for c, row in ledger.items()} == {
        "pw_ila": 2, "cl_self_orth": 0, "cl_orth_bfs": 0, "pwcl_self_orth": 0,
        "pwcl_orth_pruned": 0}
    row = flops("pwcl_orth_pruned", replace(reference_params(), n_pw_pruned=100))
    assert tuple(row[k] for k in _CELLS) == (67.0, 270.0, 2224.0, 2561.0, 0.0,
                                            337.6034, 337.6034)


def test_pw_ila_learning_value_frozen():
    # frozen from the symbolic formula at the reference parameters
    p = reference_params()
    got = flops("pw_ila", p)["learn_est"]
    expected = 4 * 4 * 3 * 116 ** 2 * (16667 + 39) / 200000
    assert got == pytest.approx(expected)
    assert got < 1e6  # nowhere near the quoted 2.7e9


def test_cost_orderings():
    p = reference_params()
    pruned = flops("pwcl_orth_pruned", p)["learn_total"]
    unpruned = flops("pwcl_orth_pruned", replace(p, n_pw_pruned=p.n_pw))["learn_total"]
    self_orth = flops("pwcl_self_orth", p)["learn_total"]
    assert pruned < unpruned < self_orth


def test_monotonicity_in_counts():
    rng = np.random.default_rng(0)
    fields = ("n_isp", "n_sp", "n_pw_pruned")
    for _ in range(200):
        base = ComplexityParams(
            n_isp=int(rng.integers(1, 20)), n_sp=int(rng.integers(2, 200)),
            k=int(rng.integers(1, 6)), b_cl=int(rng.integers(1000, 50000)),
            i_cl=int(rng.integers(2, 20)), b_ila=int(rng.integers(1000, 50000)),
            i_ila=int(rng.integers(1, 8)), n_pw_pruned=None)
        base = replace(base, n_pw_pruned=int(rng.integers(1, base.n_pw + 1)))
        field = fields[int(rng.integers(0, len(fields)))]
        bumped_val = getattr(base, field) + int(rng.integers(1, 10))
        if field == "n_pw_pruned":
            bumped_val = min(bumped_val, base.n_pw)
        bumped = replace(base, **{field: bumped_val})
        for config in CONFIGS:
            lo = flops(config, base)
            hi = flops(config, bumped)
            for key in ("bf_gen", "filt", "orth", "learn_bf_gen", "learn_est"):
                assert hi[key] >= lo[key] - 1e-9, (config, field, key)


def test_params_from_spec_matches_reference():
    part = RegionPartition([0.0, 0.3, 0.7, 2.0])
    spec = BasisSpec("full_dual_input", 9, 3, partition=part)
    p = params_from_spec(spec, b_cl=20000, i_cl=10, b_ila=50000, i_ila=4, n_pw_pruned=96)
    ref = reference_params()
    assert (p.n_sp, p.n_pw, p.n_isp, p.k) == (ref.n_sp, ref.n_pw, ref.n_isp, ref.k)


def test_validation_and_formatting():
    with pytest.raises(ConfigError):
        flops("bogus", reference_params())
    with pytest.raises(ConfigError):
        ComplexityParams(0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ConfigError):
        flops("pwcl_orth_pruned", replace(reference_params(), n_pw_pruned=None))
    text = format_ledger(full_ledger(reference_params()))
    assert "pwcl_orth_pruned" in text and "926" in text
