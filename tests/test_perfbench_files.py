"""What the benchmark under ``perfbench/`` takes from the library: every
name its tracer rebinds exists, and the workload specs that no other test
runs pass as generated.  The files are loaded by path and never installed."""

import importlib
import importlib.util
import math
import pathlib

import pytest

from glharmonic.expressions import Expression
from glharmonic.runner import run_scenario

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load("tracing")
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"glharmonic.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    scenarios = importlib.import_module("glharmonic.scenarios")
    for name in tracing.ROLES:
        assert callable(getattr(scenarios, name, None)), f"scenarios.{name}"
    assert "__call__" in Expression.__dict__


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["coupled-covector", "coupled-oneform"])
def test_coupled_energy_specs_pass(name, seed, tmp_path):
    # a b-dependent sigma, a y-dependent tau, and the covector-fiber and
    # one-form-source connections
    (spec,) = [s for s in _load("workloads").WORKLOADS["harmonic-maps"](seed) if s["name"] == name]
    report = run_scenario(spec, tmp_path)
    assert [task["status"] for task in report["tasks"]] == ["pass"] * len(spec["tasks"])
    for task in report["tasks"]:
        assert task["scalars"]
        assert all(math.isfinite(value) for value in task["scalars"].values())
