"""The traced benchmark run still fits the code it wraps.

perfbench/tracer.py wraps pwdpd functions by name and reads some of their
arguments by position, and perfbench/checks.py pins per-layer counts by layer
name; a rename or a reordered parameter would otherwise surface only as a
failed traced run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import pwdpd.cli  # noqa: F401  (imports every pwdpd module)
from pwdpd import complexity
from pwdpd.basis import BasisSpec
from pwdpd.dpd import DpdModel
from pwdpd.partition import RegionPartition
from pwdpd.signals import IqSignal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer, checks = _load("tracer"), _load("checks")


def _layer_function(layer):
    module, attr = layer.split(".")
    return getattr(importlib.import_module(f"pwdpd.{module}"), attr, None)


@pytest.mark.parametrize("layer", list(tracer.LAYERS))
def test_every_layer_is_a_pwdpd_function(layer):
    assert inspect.isfunction(_layer_function(layer)), layer


@pytest.mark.parametrize("workload", list(checks.EXPECTED_COUNTS))
def test_expected_counts_name_layers(workload):
    for key in checks.EXPECTED_COUNTS[workload]:
        assert key.rsplit(".", 1)[0] in tracer.LAYERS, key


def _arg_reads():
    """(layer, index, name) of every _arg(a, k, index, name) a LAYERS counter
    makes, read from tracer.py: the counter is a lambda in the table or a
    module-level function named there."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    reads = []
    for key, counter in zip(table.keys, table.values):
        if isinstance(counter, ast.Name):
            counter = functions[counter.id]
        for call in ast.walk(counter):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, name = (ast.literal_eval(arg) for arg in call.args[2:4])
                reads.append((key.value, index, name))
    return reads


def test_counters_read_the_parameters_they_name():
    reads = _arg_reads()
    # every counted layer, argument-reading lambdas and _predistort_counts alike
    assert {layer for layer, _, _ in reads} == {
        layer for layer, counter in tracer.LAYERS.items() if counter is not None}
    for layer, index, name in reads:
        params = list(inspect.signature(_layer_function(layer)).parameters)
        assert index < len(params) and params[index] == name, (layer, index, name, params)


def test_predistort_counter_runs_on_a_piecewise_model():
    """_predistort_counts reads model.gamma and model.spec, and _ledger_per_sample
    the BasisSpec fields of its cache key; run both, so a renamed or dropped
    attribute fails here rather than in the traced run."""
    spec = BasisSpec("full_dual_input", 3, 1, partition=RegionPartition([0.0, 0.5, 1.0]))
    a1 = IqSignal(np.zeros(8, dtype=np.complex128), 1.0)
    per_sample = tracer._ledger_per_sample(spec)
    row = complexity.flops("pwcl_self_orth", complexity.params_from_spec(spec, 1, 1, 1, 1))
    assert per_sample == row["bf_gen"] + row["filt"] > 0
    assert tracer._predistort_counts((DpdModel.zero(spec), a1), {}) == {"samples": 8}
    model = DpdModel(np.ones(spec.n_basis_total), spec)
    assert tracer._predistort_counts((), {"model": model, "a1": a1}) == {
        "samples": 8, "ledger_samples": 8, "ledger_flops": 8 * per_sample}


def _bundle_imports():
    """(module, name) of every `from pwdpd.... import name` in bundle.py."""
    tree = ast.parse((PERFBENCH / "bundle.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pwdpd.")
            for alias in node.names]


def test_bundle_entry_points_exist():
    """bundle.py's pwdpd imports resolve, and load_scenario_plant takes the
    config as its one positional argument, as bundle.py calls it."""
    imports = _bundle_imports()
    assert ("pwdpd.scenarios", "load_scenario_plant") in imports
    for module, name in imports:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    params = inspect.signature(importlib.import_module("pwdpd.scenarios").load_scenario_plant
                               ).parameters.values()
    assert [p.name for p in params if p.default is p.empty] == ["config"]
