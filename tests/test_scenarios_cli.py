import ast
import copy
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import glharmonic
from glharmonic.cli import main
from glharmonic.errors import ScenarioValidationError
from glharmonic.expressions import Expression, component_env
from glharmonic.runner import run_scenario
from glharmonic.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_CHART_NODES,
    builtin_catalog,
    covector_evaluator,
    gradient_evaluator,
    load_scenario,
    metric_evaluator,
    metric_gradient_evaluator,
    require_valid,
    scalar_evaluator_two_args,
    system_matrix_evaluator,
    validate_scenario,
)
from glharmonic.systems import integrate_orbit, rk4_substeps
from glharmonic.tensor_core import interval_grid, invert_metric

runner = CliRunner()


def test_catalog_has_one_entry_per_construction():
    names = [name for name, _ in builtin_catalog()]
    assert len(names) >= 7
    for expected in ("orbit-rotation", "pfaff-exact", "pseudolinear-exp",
                     "group-two-generators", "sphere-curvature",
                     "maxwell-logconformal", "einstein-2d"):
        assert expected in names


def test_every_builtin_validates():
    for name, spec in BUILTIN_SCENARIOS.items():
        assert validate_scenario(spec) == [], name


def test_list_builtins_roundtrip(tmp_path):
    result = runner.invoke(main, ["list-builtins"])
    assert result.exit_code == 0
    listed = [line.split()[0] for line in result.output.strip().splitlines()]
    assert len(listed) >= 7
    # every listed name is accepted by run (validated here, executed below)
    for name in listed:
        assert validate_scenario(load_scenario(name)) == []


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_runs_clean(name, tmp_path):
    import time

    start = time.perf_counter()
    result = runner.invoke(main, ["run", name, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 60.0
    assert result.exit_code == 0, result.output
    report_path = tmp_path / f"{name}__report.json"
    report = json.loads(report_path.read_text())
    assert report["status"] == "pass"
    assert len(report["tasks"]) == len(BUILTIN_SCENARIOS[name]["tasks"])
    for task in report["tasks"]:
        assert task["status"] == "pass"


def test_malformed_scenario_exits_2_with_field_path(tmp_path):
    bad = dict(BUILTIN_SCENARIOS["pfaff-exact"])
    bad = json.loads(json.dumps(bad))  # deep copy
    del bad["n_space"]["dim"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "n_space" in result.output


def test_validation_collects_all_errors_at_once(tmp_path):
    spec = {
        "name": "broken",
        "m_space": {"dim": 2, "extents": [[0, 1]], "nodes": [9, 9],
                    "metric": {"diag": ["a1", "nope(a2)"]}},
        "n_space": {"dim": 1},
        "map": {"components": ["a1 ** 2"]},
        "system": {"kind": "pfaff"},
        "tasks": [{"task": "certify_theorem"}, {"task": "maxwell"}],
    }
    errors = validate_scenario(spec)
    joined = "\n".join(errors)
    assert "m_space.extents" in joined          # wrong length
    assert "metric.diag.1" in joined            # unknown function
    assert "map.components.0" in joined         # power outside grammar
    assert "system" in joined                   # pfaff needs A
    assert "gl_space" in joined                 # maxwell requirements


def test_unknown_scenario_name_exits_2():
    result = runner.invoke(main, ["run", "no-such-scenario", "--out", "/tmp/x"])
    assert result.exit_code == 2
    assert "bundled" in result.output


def test_validate_command():
    result = runner.invoke(main, ["validate", "pseudolinear-exp"])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_yaml_file_scenario_runs(tmp_path):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["name"] = "from-file"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(spec))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "from-file__report.json").exists()


def test_task_failure_exits_1(tmp_path):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["name"] = "will-fail"
    spec["tasks"] = [{"task": "energy", "expected": 123.0, "tol": 1e-9}]
    path = tmp_path / "fail.yaml"
    path.write_text(yaml.safe_dump(spec))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 1
    report = json.loads((tmp_path / "will-fail__report.json").read_text())
    assert report["tasks"][0]["status"] == "fail"


def test_numeric_error_is_reported_with_location(tmp_path):
    # a map whose differential is orthogonal to the system tensor: the
    # admissibility guard trips and the report carries node locations
    spec = {
        "name": "inadmissible",
        "m_space": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]],
                    "nodes": [9, 9], "metric": "identity"},
        "n_space": {"dim": 1, "metric": "identity"},
        "map": {"components": ["a2"]},
        "system": {"kind": "pfaff", "A": ["1", "0"]},
        "tasks": [{"task": "certify_theorem"}],
    }
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    task = report["tasks"][0]
    assert task["status"] == "error"
    assert "domain" in task["reason"]
    assert task.get("nodes")


def test_reports_and_dumps_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        run_scenario(BUILTIN_SCENARIOS["pseudolinear-exp"], out)
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        if f1.suffix == ".csv":
            assert f1.read_bytes() == f2.read_bytes(), f1.name
        else:
            r1 = json.loads(f1.read_text())
            r2 = json.loads(f2.read_text())
            _strip_wall_times(r1)
            _strip_wall_times(r2)
            assert r1 == r2


def _strip_wall_times(report):
    for task in report["tasks"]:
        task.pop("wall_time_s", None)


def test_csv_dump_format(tmp_path):
    run_scenario(BUILTIN_SCENARIOS["harmonic-identity"], tmp_path)
    csv = (tmp_path / "harmonic-identity__el_residual__el_residual.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "a1,a2,el_residual_1,el_residual_2"
    # 33x33 nodes
    assert len(lines) == 1 + 33 * 33
    # 17 significant digits survive a round trip
    cell = lines[1].split(",")[0]
    assert float(cell) == 0.0
    probe = lines[40].split(",")
    for cell in probe:
        float(cell)


def test_stencil_override_flag(tmp_path):
    result = runner.invoke(main, [
        "run", "harmonic-identity", "--out", str(tmp_path), "--stencil", "4"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "harmonic-identity__report.json").read_text())
    assert report["environment"]["stencil_order"] == 4


@pytest.mark.parametrize("flag, order", [([], 4), (["--stencil", "2"], 2)])
def test_orbit_chart_runs_and_reports_its_stencil_order(flag, order, tmp_path):
    # orbit-rotation has no m_space or gl_space: its one chart is the orbit
    # grid, whose default order is 4, and --stencil overrides it
    result = runner.invoke(main, ["run", "orbit-rotation", "--out", str(tmp_path)] + flag)
    assert result.exit_code == 0
    report = json.loads((tmp_path / "orbit-rotation__report.json").read_text())
    assert report["environment"]["stencil_order"] == order
    residual = report["tasks"][0]["scalars"]["max_residual"]
    # fourth-order stencils leave ~3e-9, second-order ones ~2e-5
    assert (residual < 1e-7) == (order == 4)


def test_nonfinite_field_fails_the_task(tmp_path):
    # sigma = ln(y1) sampled at y1 = 0: every Einstein and Maxwell output is
    # NaN; the maxima must not read a silent 0.0 pass
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["einstein-2d"]))
    spec["name"] = "nan-sigma"
    spec["gl_space"]["sigma"] = "ln(y1)"
    spec["samples"] = [[0.0, 1.0]]
    spec["tasks"].append({"task": "maxwell"})
    with np.errstate(all="ignore"):
        report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    einstein, maxwell = report["tasks"]
    assert einstein["status"] == "fail" and maxwell["status"] == "fail"
    nodes = 48 * 48
    assert einstein["scalars"]["h_lhs_nonfinite"] == nodes * 4
    assert einstein["scalars"]["v_lhs_nonfinite"] == nodes * 4
    for k in (1, 2, 3):
        assert maxwell["scalars"][f"residual{k}_nonfinite"] == nodes * 8


def test_nonfinite_nodes_fail_every_maxwell_entry_3d(tmp_path):
    # ln(sin(x1)) has no value on the 8 of 15 x1 planes where sin(x1) <= 0;
    # the order-2 stencil reaches one plane beyond them on each side, and
    # every residual1 and residual2 entry of a node with a non-finite
    # component is non-finite, so 10 planes of 27 entries a node
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["maxwell-logconformal"]))
    spec["name"] = "nan-planes"
    spec["gl_space"]["sigma"] = "ln(sin(x1)) * (1 + y1)"
    with np.errstate(all="ignore"):
        report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    scalars = report["tasks"][0]["scalars"]
    assert scalars["residual1_nonfinite"] == scalars["residual2_nonfinite"] == 10 * 15 * 15 * 27
    # residual3 is pointwise in the fiber partials: the 8 planes alone
    assert scalars["residual3_nonfinite"] == 8 * 15 * 15 * 27 == 48600


def test_one_dimensional_maxwell_is_the_zero_three_form(tmp_path):
    # a 3-form on a line has no components and no pair (a, b) of rows to
    # check: the task passes with zero residuals and zero dumps
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["maxwell-logconformal"]))
    spec["name"] = "maxwell-line"
    spec["gl_space"] = {"dim": 1, "extents": [[0.5, 2.5]], "nodes": [9],
                        "sigma": "ln(x1) * (1 + y1*y1)"}
    spec["samples"] = [[0.7]]
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    scalars = report["tasks"][0]["scalars"]
    for k in (1, 2, 3):
        assert scalars[f"residual{k}"] == 0.0 and scalars[f"residual{k}_nonfinite"] == 0
    dump = np.loadtxt(tmp_path / "maxwell-line__maxwell__maxwell_residual3.csv",
                      delimiter=",", skiprows=1)
    assert dump.shape == (9, 2) and not np.any(dump[:, 1])


def test_finite_fields_report_zero_nonfinite_counts(tmp_path):
    report = run_scenario(BUILTIN_SCENARIOS["flat-vacuum"], tmp_path)
    assert report["status"] == "pass"
    for task in report["tasks"]:
        counts = [v for k, v in task["scalars"].items() if k.endswith("_nonfinite")]
        assert counts and all(c == 0 for c in counts)


def test_nonfinite_energy_and_residual_fail_the_tasks(tmp_path):
    # ln(a1 - 10) is NaN on the whole torus: energy "nan" must not pass
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["name"] = "nan-map"
    spec["map"] = {"components": ["ln(a1-10)", "a2"]}
    spec["tasks"] = [{"task": "energy"}, {"task": "el_residual"}]
    with np.errstate(all="ignore"):
        report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    energy, residual = report["tasks"]
    assert energy["status"] == "fail" and residual["status"] == "fail"
    assert energy["scalars"]["energy"] == "nan"
    assert energy["scalars"]["density_nonfinite"] == 33 * 33
    assert residual["scalars"]["residual_nonfinite"] == 33 * 33 * 2


def test_nonfinite_orbit_residual_fails_the_task(tmp_path, monkeypatch):
    # 0*ln(0.5 - x2) is NaN once the rotation orbit passes x2 = 0.5: the
    # curve and its residual are finite up to there and NaN after
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["orbit-rotation"]))
    spec["name"] = "nan-orbit"
    spec["system"]["xi"] = ["-x2", "x1 + 0*ln(0.5 - x2)"]
    spec["tasks"] = [{"task": "orbit"}]
    with np.errstate(all="ignore"):
        report = run_scenario(spec, tmp_path)
    (orbit,) = report["tasks"]
    assert orbit["status"] == "fail"
    scalars = orbit["scalars"]
    rows = (tmp_path / "nan-orbit__orbit__orbit_residual.csv").read_text().splitlines()[1:]
    nan_cells = sum(cell == "nan" for row in rows for cell in row.split(",")[1:])
    assert 0 < scalars["residual_nonfinite"] == nan_cells < 2 * 201
    assert isinstance(scalars["max_residual"], float) and scalars["max_residual"] < 1e-4

    # the NaN stages leave the float lowering for the array path: the same
    # report and dumps as a run where every evaluation takes the array path
    monkeypatch.setattr(Expression, "point_form", None)
    with np.errstate(all="ignore"):
        forced = run_scenario(spec, tmp_path / "array-path")
    for task in (orbit, *forced["tasks"]):
        task.pop("wall_time_s")
    assert forced["tasks"] == [orbit]
    for name in ("orbit_curve", "orbit_residual"):
        dump = f"nan-orbit__orbit__{name}.csv"
        assert (tmp_path / dump).read_bytes() == (tmp_path / "array-path" / dump).read_bytes()


def test_orbit_leaving_the_domain_reports_a_nan_maximum(tmp_path):
    # exp(1000*x1) overflows once the orbit moves right: every node after
    # the first is non-finite.  The maximum of no finite value is NaN, not
    # 0, and no numpy warning leaves the run (the suite turns
    # RuntimeWarnings into errors, which would make the tasks errors)
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["orbit-rotation"]))
    spec["name"] = "overflowing-orbit"
    spec["system"]["xi"] = ["1", "exp(1000*x1)"]
    report = run_scenario(spec, tmp_path)
    orbit, certify = report["tasks"]
    assert orbit["status"] == "fail" and certify["status"] == "fail"
    assert orbit["scalars"]["residual_nonfinite"] == 402
    assert orbit["scalars"]["max_residual"] == "nan"
    assert certify["certificate"]["verdict"] is False


@pytest.mark.parametrize("name, edit, statuses", [
    # exp(a1 + a2) overflows on a chart reaching 1e300
    ("pseudolinear-exp", lambda s: s["m_space"].update(extents=[[0, 1], [0, 1e300]]),
     [("pseudolinear", "error", "SingularMetricError"), ("certify_theorem", "fail", None)]),
    # |x|^2 overflows on an orbit of radius 1e300
    ("orbit-rotation", lambda s: s["orbit"].update(x0=[1e300, 0]),
     [("orbit", "fail", None), ("certify_theorem", "error", "AdmissibilityError")]),
])
def test_out_of_range_nodes_leak_no_numpy_warning(tmp_path, name, edit, statuses):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    edit(spec)
    assert validate_scenario(spec) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(spec, tmp_path)
    assert [(t["task"], t["status"], t.get("error_type")) for t in report["tasks"]] == statuses


def test_unexpected_exception_becomes_error_record(tmp_path, monkeypatch):
    import glharmonic.runner as runner_module

    def broken_task(ctx, task, dumps):
        raise ValueError("not a library error")

    monkeypatch.setitem(runner_module._TASK_RUNNERS, "energy", broken_task)
    report = run_scenario(BUILTIN_SCENARIOS["harmonic-identity"], tmp_path)
    assert (tmp_path / "harmonic-identity__report.json").exists()
    assert report["status"] == "fail"
    energy, residual = report["tasks"]
    assert energy["status"] == "error"
    assert energy["error_type"] == "ValueError"
    assert energy["reason"] == "not a library error"
    assert "broken_task" in energy["where"]
    assert residual["status"] == "pass"


def test_node_limit_admits_a_chart_at_the_limit():
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["pseudolinear-exp"]))
    spec["m_space"]["nodes"] = [1024, 1024]
    assert 1024 * 1024 == MAX_CHART_NODES
    assert validate_scenario(spec) == []


def test_empty_interior_is_a_library_error(tmp_path):
    # an order-2 stencil leaves no interior node on a 5-node interval axis:
    # the level-set defect used to take the maximum of an empty array
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["pseudolinear-exp"]))
    spec["m_space"]["nodes"] = [65, 5]
    pseudolinear = run_scenario(spec, tmp_path)["tasks"][0]
    assert pseudolinear["status"] == "error"
    assert pseudolinear["error_type"] == "StencilSupportError"
    assert pseudolinear["reason"] == "axis 1 has 5 nodes; an interior node at stencil order 2 needs 7"
    assert "where" not in pseudolinear


def test_validator_rejects_level_sets_of_vector_maps():
    # the level-set check of the pseudolinear task needs a scalar map
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["pseudolinear-exp"]))
    spec["n_space"]["dim"] = 2
    spec["map"]["components"] = ["exp(a1 + a2)", "a1"]
    spec["system"]["xi"] = ["1", "0"]
    errors = validate_scenario(spec)
    assert errors == ["tasks.0 (pseudolinear): the level-set check needs a "
                      "one-dimensional target, n_space.dim is 2"]


@pytest.mark.parametrize("T, error", [
    ([["1 +", "2"]], "system.T.0.0: cannot parse"),
    ([["zzz", "2"]], "system.T.0.0: unknown name 'zzz'"),
    ([["1", "2", "3"]], "system.T: expected a 1x2 array"),
    ([["1"]], "system.T: expected a 1x2 array"),
    ([["1", "2"], ["3", "4"]], "system.T: expected a 1x2 array"),
])
def test_validator_checks_the_general_system_tensor(T, error):
    # T is an n x m array of expressions in a1..am and x1..xn; a misshapen
    # one used to broadcast inside the certificate or raise there
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["pfaff-exact"]))
    spec["system"] = {"kind": "general", "T": T}
    spec["tasks"] = [{"task": "certify_theorem"}]
    errors = validate_scenario(spec)
    assert len(errors) == 1
    assert errors[0].startswith(error)
    spec["system"]["T"] = [["1 + 0.3*cos(a1)*cos(a2) + 0*x1", "2 - 0.3*sin(a1)*sin(a2)"]]
    assert validate_scenario(spec) == []


@pytest.mark.parametrize("name, path, value, error", [
    ("pfaff-exact", ("system", "A"), ["1", "2", "3"], "system.A: expected 2 components, got 3"),
    ("pseudolinear-exp", ("system", "xi"), ["1", "0"], "system.xi: expected 1 components, got 2"),
    ("orbit-rotation", ("system", "xi"), ["-x2"], "system.xi: expected 2 components, got 1"),
    ("group-two-generators", ("system", "generators", 0, "xi"), ["1"],
     "system.generators.0.xi: expected 2 components, got 1"),
    ("group-two-generators", ("system", "generators", 1, "A"), ["1"],
     "system.generators.1.A: expected 2 components, got 1"),
    ("harmonic-identity", ("connection",), {"kind": "covector_fiber", "A": ["1"]},
     "connection.A: expected 2 components, got 1"),
    ("harmonic-identity", ("connection",), {"kind": "oneform_source", "xi": ["1", "0", "x1"]},
     "connection.xi: expected 2 components, got 3"),
])
def test_validator_checks_component_counts(name, path, value, error, tmp_path):
    # the evaluators broadcast whatever they get: a wrong count used to pass
    # silently, fail a task on broadcast numbers, or raise inside a task
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert validate_scenario(spec) == [error]
    with pytest.raises(ScenarioValidationError):
        run_scenario(spec, tmp_path)


_DELETE = object()
_UNIT_SQUARE = {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]], "nodes": [9, 9]}


@pytest.mark.parametrize("name, edits, error", [
    ("pfaff-exact", [(("map", "components"), ["a1", "a2"])],
     "map.components: expected 1 entries for the target dimension, got 2"),
    ("harmonic-identity", [(("map", "linear_jet"), [[1, 0]])],
     "map.linear_jet: expected a 2x2 numeric array"),
    ("harmonic-identity", [(("sigma",), "zzz")],
     "sigma: unknown name 'zzz'; scalars: ['a1', 'a2', 'b1', 'b2'], vectors: ['a', 'b']"),
    ("harmonic-identity", [(("tau",), "b1")],
     "tau: unknown name 'b1'; scalars: ['x1', 'x2', 'y1', 'y2'], vectors: ['x', 'y']"),
    ("orbit-rotation", [(("m_space",), _UNIT_SQUARE)],
     "system: orbit systems need a one-dimensional source"),
    ("group-two-generators", [(("system",), {"kind": "pfaff", "A": ["1", "1"]}),
                              (("tasks",), [{"task": "certify_theorem"}])],
     "system: Pfaff systems need a one-dimensional target"),
    ("harmonic-identity", [(("connection",), {"kind": "covector_fiber"})],
     "connection: covector_fiber requires A"),
    ("harmonic-identity", [(("connection",), {"kind": "oneform_source"})],
     "connection: oneform_source requires xi"),
    ("orbit-rotation", [(("orbit", "x0"), [1.0])], "orbit.x0: expected 2 components, got 1"),
    ("orbit-rotation", [(("orbit", "t1"), 0.0)], "orbit: t1 must exceed t0"),
    ("maxwell-logconformal", [(("samples",), [[1.1, 0.6]])],
     "samples.0: expected 3 components, got 2"),
    ("orbit-rotation", [(("orbit",), _DELETE), (("tasks",), [{"task": "certify_theorem"}])],
     "tasks.0 (certify_theorem): scenario needs m_space and map or orbit"),
    ("einstein-2d", [(("K",), _DELETE), (("tasks", 0, "energy_momentum"), True)],
     "tasks.0 (einstein): energy_momentum requires K"),
    ("orbit-rotation", [(("system",), {"kind": "general", "T": [["-x2"], ["x1"]]})],
     "tasks.0 (orbit): system.kind must be 'orbit'"),
    ("pfaff-exact", [(("system",), {"kind": "general", "T": [["1", "2"]]})],
     "tasks.0 (pfaff): system.kind must be 'pfaff'"),
    ("pseudolinear-exp", [(("system", "kind"), "pfaff"), (("system", "xi"), _DELETE)],
     "tasks.0 (pseudolinear): system.kind must be 'pseudolinear'"),
    ("group-two-generators",
     [(("system",), {"kind": "pseudolinear", "xi": ["1", "0"], "A": ["1", "1"]})],
     "tasks.0 (group_lagrangian): system.kind must be 'group'"),
    # a misspelled bound used to be ignored, and its gate skipped
    ("maxwell-logconformal", [(("tasks", 0, "residual3_maxx"), 1e-300)],
     "tasks.0 (maxwell): unknown key 'residual3_maxx'"),
    ("harmonic-identity", [(("tasks", 0, "max_abs"), 1e-9)],
     "tasks.0 (energy): unknown key 'max_abs'"),
    # a bound that is not a number used to end as an error record
    ("maxwell-logconformal", [(("tasks", 0, "residual3_max"), "abc")],
     "tasks.0 (maxwell): residual3_max must be a finite number, got 'abc'"),
    ("harmonic-identity", [(("tasks", 1, "max_abs"), True)],
     "tasks.1 (el_residual): max_abs must be a finite number, got True"),
    ("harmonic-identity", [(("tasks", 0, "expected"), float("inf"))],
     "tasks.0 (energy): expected must be a finite number, got inf"),
    ("orbit-rotation", [(("tasks", 0, "residual_threshold"), float("nan"))],
     "tasks.0 (orbit): residual_threshold must be a finite number, got nan"),
    ("einstein-2d", [(("tasks", 0, "check_sigma_zero_reduction"), 1)],
     "tasks.0 (einstein): check_sigma_zero_reduction must be true or false, got 1"),
    ("sphere-curvature", [(("tasks", 0, "energy_momentum"), "no")],
     "tasks.0 (einstein): energy_momentum must be true or false, got 'no'"),
    # energy-momentum components divide by K: a zero K used to end as an
    # error record
    ("einstein-2d", [(("K",), 0.0)], "tasks.0 (einstein): energy_momentum requires a nonzero K"),
    # JSON Schema's numbers include nan and inf: a nan step used to run as
    # one substep, and a nan end time to pass "t1 must exceed t0"
    ("orbit-rotation", [(("orbit", "rk4_step"), float("nan"))],
     "orbit.rk4_step: must be a finite number, got nan"),
    ("orbit-rotation", [(("orbit", "t1"), float("nan"))],
     "orbit.t1: must be a finite number, got nan"),
    ("orbit-rotation", [(("orbit", "x0", 1), float("-inf"))],
     "orbit.x0.1: must be a finite number, got -inf"),
    ("einstein-2d", [(("K",), float("nan"))], "K: must be a finite number, got nan"),
    ("maxwell-logconformal", [(("samples", 0, 2), float("inf"))],
     "samples.0.2: must be a finite number, got inf"),
    ("pfaff-exact", [(("m_space", "extents", 1, 1), float("inf"))],
     "m_space.extents.1.1: must be a finite number, got inf"),
    ("harmonic-identity", [(("map", "linear_jet", 0, 0), float("nan"))],
     "map.linear_jet.0.0: must be a finite number, got nan"),
    ("pfaff-exact", [(("tolerances", "tol_gap"), float("inf"))],
     "tolerances.tol_gap: must be a finite number, got inf"),
    # an integral float passes as an integer: 1e300 nodes used to validate
    ("pseudolinear-exp", [(("m_space", "nodes"), [1e300, 9])],
     "m_space.nodes: more than MAX_CHART_NODES = 1048576 nodes"),
    ("pseudolinear-exp", [(("m_space", "nodes"), [1025, 1024])],
     "m_space.nodes: more than MAX_CHART_NODES = 1048576 nodes"),
    ("maxwell-logconformal", [(("gl_space", "nodes"), [102, 102, 101])],
     "gl_space.nodes: more than MAX_CHART_NODES = 1048576 nodes"),
    # there is one Ricci trace, and no switch to another
    ("maxwell-logconformal", [(("gl_space", "ricci_convention"), "last")],
     "gl_space: Additional properties are not allowed ('ricci_convention' was unexpected)"),
])
def test_validator_branch_messages(name, edits, error, tmp_path):
    # one change of a bundled spec per semantic check: exactly its message,
    # and the runner refuses the spec before it writes anything
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    for path, value in edits:
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    assert validate_scenario(spec) == [error]
    with pytest.raises(ScenarioValidationError):
        run_scenario(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_every_task_key_is_read_by_the_runner(tmp_path):
    source = pathlib.Path(glharmonic.runner.__file__).read_text()
    for _, _, keys in glharmonic.scenarios._TASKS.values():
        for key in keys:
            assert f'"{key}"' in source, key
    # the correctly spelled bound gates the task
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["maxwell-logconformal"]))
    spec["tasks"][0]["residual3_max"] = 1e-300
    assert run_scenario(spec, tmp_path)["tasks"][0]["status"] == "fail"


def test_invalid_run_prints_every_error_and_exits_2(tmp_path):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["orbit-rotation"]))
    spec["orbit"].update(x0=[1.0], t1=0.0)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(spec))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["invalid: orbit.x0: expected 2 components, got 1",
                                          "invalid: orbit: t1 must exceed t0"]
    assert not (tmp_path / "out").exists()


def test_general_system_certifies_like_its_pfaff_system(tmp_path):
    # T = [A] is the Pfaff system df = A written out as a general tensor
    pfaff = json.loads(json.dumps(BUILTIN_SCENARIOS["pfaff-exact"]))
    pfaff["tasks"] = [{"task": "certify_theorem"}]
    general = json.loads(json.dumps(pfaff))
    general["name"] = "pfaff-as-general"
    general["system"] = {"kind": "general", "T": [pfaff["system"]["A"]]}
    (want,), (got,) = (run_scenario(spec, tmp_path)["tasks"] for spec in (pfaff, general))
    assert want["status"] == got["status"] == "pass"
    assert got["certificate"] == want["certificate"]


@pytest.mark.parametrize("rk4_step", [1e-320, 1e-9])
def test_validator_rejects_orbits_beyond_the_substep_limit(rk4_step, tmp_path):
    # a half turn at 201 nodes: 1e-320 overflows the substep count, 1e-9
    # asks for about 3.1e9 substeps, which would never finish
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["orbit-rotation"]))
    spec["orbit"].update(t1=np.pi, rk4_step=rk4_step)
    errors = validate_scenario(spec)
    assert len(errors) == 1
    assert errors[0].startswith("orbit.rk4_step: ")
    with pytest.raises(ScenarioValidationError):
        run_scenario(spec, tmp_path)


@pytest.mark.parametrize("name", ["pfaff-exact", "pseudolinear-exp"])
def test_validator_requires_target_for_pfaff_and_pseudolinear_tasks(name):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    del spec["n_space"]
    spec["tasks"] = spec["tasks"][:1]
    task = spec["tasks"][0]["task"]
    assert validate_scenario(spec) == [
        f"tasks.0 ({task}): scenario is missing required field 'n_space'"]


@pytest.mark.parametrize("name, metric", [
    ("harmonic-identity", {"matrix": [["1", "2"], ["2", "1"]]}),
    ("pfaff-exact", {"diag": ["1.5 - x1"]}),
    ("orbit-rotation", {"diag": ["1", "x2 - 0.5"]}),
    ("harmonic-identity", {"diag": ["3 - x1", "1"]}),
])
def test_indefinite_target_metric_is_an_error(name, metric, tmp_path):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    spec["n_space"]["metric"] = metric
    assert validate_scenario(spec) == []
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    for task in report["tasks"]:
        assert task["status"] == "error", task
        assert task["error_type"] == "SingularMetricError"
        assert task["reason"].startswith("target metric psi: ")
        assert task["node"] is not None
        # plain integers, not numpy scalars, in the reason
        assert task["reason"].endswith(f"at node {tuple(task['node'])}")
    if metric == {"diag": ["3 - x1", "1"]}:
        assert report["tasks"][0]["reason"].endswith("at node (16, 0)")


def test_nonfinite_source_metric_is_an_error(tmp_path):
    # ln(a1 - 3) is NaN for a1 < 3: np.linalg.cholesky returns NaN there
    # without an error, so the metric must be rejected as non-finite
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["m_space"]["metric"] = {"diag": ["1 + 0*ln(a1 - 3)", "1"]}
    with np.errstate(all="ignore"):
        report = run_scenario(spec, tmp_path)
    assert report["status"] == "fail"
    for task in report["tasks"]:
        assert task["status"] == "error", task
        assert task["error_type"] == "SingularMetricError"
        assert task["reason"] == "metric is not finite at node (0, 0)"
        assert task["node"] == [0, 0]


def test_energy_task_evaluates_the_density_once(tmp_path, monkeypatch):
    import importlib

    import glharmonic.runner as runner_module
    from glharmonic.energy import energy

    # the package exports the function ``energy`` under the module's name
    energy_module = importlib.import_module("glharmonic.energy")
    calls = []
    original = energy_module._first_stage

    def counted(*args):
        calls.append(1)
        return original(*args)

    # the one evaluation of the density and its intermediates
    monkeypatch.setattr(energy_module, "_first_stage", counted)
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["tasks"] = spec["tasks"][:1]
    report = run_scenario(spec, tmp_path)
    assert report["tasks"][0]["status"] == "pass"
    assert len(calls) == 1
    ctx = runner_module._Context(spec, None)
    expected = energy(ctx.map_jet, ctx.metric_pair, ctx.connection, ctx.phi)
    assert report["tasks"][0]["scalars"]["energy"] == expected


def test_orbit_is_integrated_once_per_scenario(tmp_path, monkeypatch):
    import glharmonic.runner as runner_module

    calls = []
    original = runner_module.integrate_orbit

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(runner_module, "integrate_orbit", counted)
    spec = BUILTIN_SCENARIOS["orbit-rotation"]
    assert [t["task"] for t in spec["tasks"]] == ["orbit", "certify_theorem"]
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    assert len(calls) == 1


def test_psi_is_checked_once_on_the_orbit_nodes(tmp_path, monkeypatch):
    # the orbit task checks psi on the curve, certify_theorem on the same
    # nodes as a map: one evaluation and check serves both
    import glharmonic.runner as runner_module

    checked = []
    original = runner_module.MetricField

    def counted(grid, values, *args, **kwargs):
        checked.append(values.shape)
        return original(grid, values, *args, **kwargs)

    monkeypatch.setattr(runner_module, "MetricField", counted)
    spec = BUILTIN_SCENARIOS["orbit-rotation"]
    assert [t["task"] for t in spec["tasks"]] == ["orbit", "certify_theorem"]
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    assert checked == [(spec["orbit"]["nodes"], 2, 2)]


@pytest.mark.parametrize("name, first", [
    ("pfaff-exact", "pfaff"), ("pseudolinear-exp", "pseudolinear")])
def test_map_is_certified_once_per_scenario(name, first, tmp_path, monkeypatch):
    # the construction task and certify_theorem share one certificate
    import glharmonic.runner as runner_module

    calls = []
    original = runner_module.certify_minimizer

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(runner_module, "certify_minimizer", counted)
    spec = BUILTIN_SCENARIOS[name]
    assert [t["task"] for t in spec["tasks"]] == [first, "certify_theorem"]
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    assert len(calls) == 1
    first_record, certify_record = report["tasks"]
    assert first_record["certificate"] == certify_record["certificate"]


@pytest.mark.parametrize("name, built", [
    ("orbit-rotation", 1), ("pseudolinear-exp", 2), ("group-two-generators", 4)])
def test_tasks_reuse_the_context_system(name, built, tmp_path, monkeypatch):
    # the orbit, pseudolinear and group tasks take their evaluators from
    # _Context.system, so each covector expression list is compiled once
    import glharmonic.scenarios as scenarios_module

    calls = []
    original = scenarios_module.covector_evaluator

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scenarios_module, "covector_evaluator", counted)
    report = run_scenario(BUILTIN_SCENARIOS[name], tmp_path)
    assert report["status"] == "pass"
    assert len(calls) == built


@pytest.mark.parametrize("name", ["harmonic-identity", "pseudolinear-exp"])
def test_tasks_reuse_the_context_metric_evaluators(name, tmp_path, monkeypatch):
    # the sampled source metric comes from _Context.phi_eval: one evaluator
    # per metric, phi in a and psi in x
    import glharmonic.scenarios as scenarios_module

    prefixes = []
    original = scenarios_module.metric_evaluator

    def counted(spec_metric, dim, prefix):
        prefixes.append(prefix)
        return original(spec_metric, dim, prefix)

    monkeypatch.setattr(scenarios_module, "metric_evaluator", counted)
    report = run_scenario(BUILTIN_SCENARIOS[name], tmp_path)
    assert report["status"] == "pass"
    assert prefixes == ["a", "x"]


def test_pseudolinear_run_evaluates_each_metric_once(tmp_path, monkeypatch):
    # the attached energy reads the context's sampled phi and checked psi,
    # as the group task does
    import glharmonic.scenarios as scenarios_module

    calls = {}
    original = scenarios_module.metric_evaluator

    def counted(spec_metric, dim, prefix):
        ev = original(spec_metric, dim, prefix)

        def wrapped(pts):
            calls[prefix] = calls.get(prefix, 0) + 1
            return ev(pts)

        return wrapped

    monkeypatch.setattr(scenarios_module, "metric_evaluator", counted)
    report = run_scenario(BUILTIN_SCENARIOS["pseudolinear-exp"], tmp_path)
    assert report["status"] == "pass"
    assert calls == {"a": 1, "x": 1}


def test_validator_rejects_pseudo_metric_key():
    # no builder reads the key, and every sampled metric is checked as
    # Riemannian, so accepting it would promise what the run ignores
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["m_space"]["metric"] = {"diag": ["1", "1"], "pseudo": True}
    errors = validate_scenario(spec)
    assert len(errors) == 1
    assert errors[0].startswith("m_space.metric: ")


_INTEGRAL_FLOATS = [
    ("harmonic-identity", [(("m_space", "dim"), 2.0)]),
    ("harmonic-identity", [(("n_space", "dim"), 2.0), (("m_space", "nodes"), [33.0, 33.0])]),
    ("orbit-rotation", [(("orbit", "nodes"), 201.0), (("orbit", "stencil_order"), 4.0)]),
    ("sphere-curvature", [(("gl_space", "nodes"), [64.0, 64]),
                          (("gl_space", "stencil_order"), 4.0)]),
]


def _edited(name, edits):
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    for path, value in edits:
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return spec


def _ints_only(tree):
    """Whether no float with an integral value sits anywhere in ``tree``."""
    if isinstance(tree, dict):
        return all(_ints_only(v) for v in tree.values())
    if isinstance(tree, list):
        return all(_ints_only(v) for v in tree)
    return not (isinstance(tree, float) and tree.is_integer())


@pytest.mark.parametrize("name, edits", _INTEGRAL_FLOATS)
def test_integral_floats_run_as_the_integers_they_validate_as(name, edits, tmp_path):
    # JSON Schema counts 2.0 as an integer: the checked copy stores it as one,
    # so the semantic checks, the builders and the report all see an int
    spec = _edited(name, edits)
    assert validate_scenario(spec) == []
    checked = require_valid(spec)
    for path, value in edits:
        held = checked
        for key in path:
            held = held[key]
        assert held == value and _ints_only(held)
    assert json.dumps(spec) == json.dumps(_edited(name, edits))  # left as it is
    report = run_scenario(spec, tmp_path)
    assert [task["status"] for task in report["tasks"]] == ["pass"] * len(spec["tasks"])
    assert _ints_only(report["environment"])


def test_cli_runs_integral_floats_and_rejects_fractional_ones(tmp_path):
    path = tmp_path / "floats.yaml"
    path.write_text(yaml.safe_dump(_edited(*_INTEGRAL_FLOATS[0])))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0, result.output
    assert "harmonic-identity: valid" in result.output
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    path.write_text(yaml.safe_dump(_edited("harmonic-identity", [(("m_space", "dim"), 2.5)])))
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "bad")]):
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert "invalid: m_space.dim: 2.5 is not of type 'integer'" in result.output
    assert not (tmp_path / "bad").exists()


def _stacked_covector_evaluator(exprs, dim, prefix):
    """Reference: each component broadcast to the point shape, then stacked."""
    names = [f"{prefix}{k + 1}" for k in range(dim)]
    compiled = [Expression(src, scalars=names) for src in exprs]

    def ev(pts):
        env = component_env(prefix, pts)
        cols = [np.broadcast_to(e(env), pts.shape[:-1]) for e in compiled]
        return np.stack(cols, axis=-1)

    return ev


@pytest.mark.parametrize("point_shape", [(), (7,), (5, 4)])
@pytest.mark.parametrize("exprs", [
    ["1", "0"], ["-x2", "x1"], ["1", "x1*x2 - 0.5"], ["0", "exp(x2)", "2.5", "sin(x1)/3"],
    ["+x1", "abs(x1) - cos(x2)/ln(2 + x1*x1)", "-(1/x2)"]])
def test_covector_evaluator_matches_stacked_columns(point_shape, exprs):
    pts = np.random.default_rng(5).normal(size=point_shape + (2,))
    got = covector_evaluator(exprs, 2, "x")(pts)
    ref = _stacked_covector_evaluator(exprs, 2, "x")(pts)
    assert got.shape == ref.shape == point_shape + (len(exprs),)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def _same_bytes(got, ref):
    assert got.shape == ref.shape
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def _single_point_cases(x):
    """(evaluator, one point's arguments) over the evaluator factories."""
    a, x = np.array([0.8, -0.4]), np.array(x)
    return [
        (metric_evaluator({"diag": ["1 + x1*x1", "exp(x2)"]}, 2, "x"), (x,)),
        (metric_evaluator({"matrix": [["2", "0.1*x1"], ["0.3*x2", "1/x1"]]}, 2, "x"), (x,)),
        (system_matrix_evaluator([["a1*x1", "a2"], ["x2", "sin(a1)/x1"], ["-x2", "1"]], 2, 2),
         (a, x)),
        (scalar_evaluator_two_args("0.3*x1*y2 - ln(abs(y1))", 2, "x", 2, "y"), (x, a)),
        (scalar_evaluator_two_args("ln(abs(dot(x, y)))", 2, "x", 2, "y"), (x, a)),
        (covector_evaluator(["-x2", "1/x1", "exp(x2)"], 2, "x"), (x,)),
    ]


POINTS = [[0.3, -1.7], [0.0, 2.0], [-0.0, np.inf]]


@pytest.mark.parametrize("x", POINTS)
def test_single_point_evaluators_match_the_array_path(x):
    # one point, each argument a 1-D array, gives the bytes of the same
    # point as a batch of one
    with np.errstate(all="ignore"):
        for ev, args in _single_point_cases(x):
            _same_bytes(ev(*args), ev(*(v[None] for v in args))[0])


@pytest.mark.parametrize("x", POINTS)
def test_float_entry_matches_the_array_path(x):
    # point_form, the float lowering: the outputs in row-major order as
    # Python floats, bit-equal to the array path's and nan where they are.
    # It raises nowhere, not at x1 = 0 either (the three lists that divide
    # by x1), and the list that uses dot has none.
    cases = _single_point_cases(x)
    assert [ev.point_form is None for ev, _ in cases] == [False] * 4 + [True, False]
    with np.errstate(all="ignore"):
        for ev, args in (case for case in cases if case[0].point_form is not None):
            ref = ev(*(v[None] for v in args))[0].ravel()
            got = ev.point_form(*(v for arg in args for v in arg.tolist()))
            assert type(got) is tuple and all(type(v) is float for v in got)
            got = np.array(got)
            nan = np.isnan(got)
            assert np.array_equal(nan, np.isnan(ref))
            _same_bytes(got[~nan], ref[~nan])


@pytest.mark.parametrize("point_shape", [(), (4, 3)])
def test_matrix_metric_is_the_symmetric_part_of_its_entries(point_shape):
    # the reference symmetrizes the unsymmetrized entries and their
    # gradient afterwards, in numpy
    rows = [["2", "0.1*x1"], ["0.3*x2", "1/x1"]]
    entries = [src for row in rows for src in row]
    pts = np.random.default_rng(11).normal(size=point_shape + (2,))
    values = covector_evaluator(entries, 2, "x")(pts).reshape(point_shape + (2, 2))
    grad = gradient_evaluator(entries, (("x", 2),), "x", (2, 2))(pts)
    _same_bytes(metric_evaluator({"matrix": rows}, 2, "x")(pts),
                0.5 * (values + np.swapaxes(values, -1, -2)))
    _same_bytes(metric_gradient_evaluator({"matrix": rows}, 2, "x")(pts),
                0.5 * (grad + np.swapaxes(grad, -3, -2)))


def _orbit_pair(exprs, x0, t1):
    xi = covector_evaluator(exprs, 2, "x")
    curve = integrate_orbit(xi, x0, 0.0, t1, nodes=101)
    ref = integrate_orbit(lambda pts: xi(pts[None])[0], x0, 0.0, t1, nodes=101)
    return curve.values, ref.values


def test_transcendental_orbit_matches_the_array_path():
    _same_bytes(*_orbit_pair(["-x2 + 0.1*sin(x1)", "x1*exp(-0.05*x2)"], [1.0, 0.0], np.pi))


@pytest.mark.parametrize("float_lowering", [True, False])
def test_orbit_float_entry_divides_and_overflows_as_the_array_path(float_lowering,
                                                                    monkeypatch):
    if not float_lowering:
        monkeypatch.setattr(Expression, "point_form", None)
    # every stage divides by zero, and both paths give 1/(1/0) = 1/inf = 0
    with np.errstate(divide="ignore"):
        curve, ref = _orbit_pair(["1", "1/(1/x2)"], [0.0, 0.0], 1.0)
    _same_bytes(curve, ref)
    assert np.all(curve[:, 1] == 0.0)
    # the second component overflows to inf once x1 passes ln(max float)/1000
    # (and the curve's velocity stencil meets inf - inf)
    with np.errstate(over="ignore", invalid="ignore"):
        curve, ref = _orbit_pair(["1", "exp(1000*x1)"], [0.0, 0.0], 1.0)
    _same_bytes(curve, ref)
    assert np.isinf(curve[-1, 1]) and np.all(np.isfinite(curve[:50]))


def _count_per_stage(monkeypatch) -> list:
    """The points of every evaluator call on one point (a 1-D first
    argument) from here on, in order: the orbit's per-stage array calls."""
    import glharmonic.scenarios as scenarios_module

    calls = []
    original = scenarios_module._Outputs.__call__

    def counted(self, first, second=None):
        if first.ndim == 1:
            calls.append(tuple(first.tolist()))
        return original(self, first, second)

    monkeypatch.setattr(scenarios_module._Outputs, "__call__", counted)
    return calls


def _count_zero_divisors(monkeypatch) -> list:
    """The dividend of every division by zero on the float lowering from
    here on, in order."""
    import glharmonic.expressions as expressions_module

    dividends = []
    divide = expressions_module._float_divide

    def counted(a, b):
        if not b:
            dividends.append(a)
        return divide(a, b)

    monkeypatch.setitem(expressions_module._POINT_NAMESPACE, "divide", counted)
    return dividends


def _per_stage(xi):
    """xi without its float lowering: integrate_orbit calls it on the point
    at every stage."""
    return lambda point: xi(point)


STEP = 0.012    # 5 RK4 substeps per interval of a 21-node unit interval


def _array_rk4(f, x0, nodes, max_step):
    """The RK4 orbit on [0, 1] as numpy array expressions, stage by stage:
    the reference for the order of the float loop's operations."""
    grid = interval_grid(0.0, 1.0, nodes)
    k = rk4_substeps(grid, max_step)
    h = grid.spacing[0] / k
    half_h, sixth_h = 0.5 * h, h / 6.0
    x = np.array(x0, float)
    samples = [x]
    for _ in range(nodes - 1):
        for _ in range(k):
            k1 = f(x)
            k2 = f(x + half_h * k1)
            k3 = f(x + half_h * k2)
            k4 = f(x + h * k3)
            x = x + sixth_h * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(x)
    return np.array(samples)


@pytest.mark.parametrize("exprs, x0", [
    (["-0.5*x1 + sin(x1)"], [0.3]),
    (["-x2 + 0.1*sin(x1)", "x1*exp(-0.05*x2)"], [1.0, 0.0]),
    (["x2*cos(x3)", "-x1 + ln(2 + x3*x3)", "abs(x1) - 0.3*x2/(1 + x3*x3)"], [0.4, -0.2, 0.7]),
])
def test_fused_orbit_matches_the_per_stage_route(exprs, x0, monkeypatch):
    # n = 1, 2 and 3: the compiled interval loop gives the bytes of the
    # per-stage array call, of a batch of one at every stage and of the RK4
    # written as array expressions, and a scenario evaluator never takes
    # the per-stage route
    k = rk4_substeps(interval_grid(0.0, 1.0, 21), STEP)
    assert k == 5
    xi = covector_evaluator(exprs, len(x0), "x")
    calls = _count_per_stage(monkeypatch)
    curve = integrate_orbit(xi, x0, 0.0, 1.0, nodes=21, max_step=STEP).values
    assert calls == []
    _same_bytes(curve, integrate_orbit(_per_stage(xi), x0, 0.0, 1.0, nodes=21,
                                       max_step=STEP).values)
    assert len(calls) == 4 * k * 20
    _same_bytes(curve, integrate_orbit(lambda pts: xi(pts[None])[0], x0, 0.0, 1.0, nodes=21,
                                       max_step=STEP).values)
    _same_bytes(curve, _array_rk4(lambda pts: xi(pts[None])[0], x0, 21, STEP))


def test_fused_orbit_divides_by_zero_as_the_per_stage_route(monkeypatch):
    # x2' = 1/(1/(x1 - c)) is x1 - c except at x1 == c, where both paths
    # give 1/(1/0) = 0.  c is the midpoint x1 + h/2 of interval 7's first
    # substep, where its second and third stages are evaluated; x1' = 1
    # takes the same steps whatever x2 does.
    drift = integrate_orbit(covector_evaluator(["1", "0"], 2, "x"), [0.0, 0.0], 0.0, 1.0,
                            nodes=21, max_step=STEP).values
    half_h = 0.5 * (interval_grid(0.0, 1.0, 21).spacing[0] / 5)
    xi = covector_evaluator(["1", f"1/(1/(x1 - {float(drift[7, 0] + half_h)!r}))"], 2, "x")
    calls = _count_per_stage(monkeypatch)
    dividends = _count_zero_divisors(monkeypatch)
    curve = integrate_orbit(xi, [0.0, 0.0], 0.0, 1.0, nodes=21, max_step=STEP).values
    # every interval runs fused, interval 7 too: its two midpoint stages
    # divide 1 by zero on the float lowering
    assert calls == [] and dividends == [1.0, 1.0]
    _same_bytes(curve[:, 0], drift[:, 0])
    _same_bytes(curve, integrate_orbit(_per_stage(xi), [0.0, 0.0], 0.0, 1.0, nodes=21,
                                       max_step=STEP).values)


def test_fused_orbit_overflows_as_the_per_stage_route(monkeypatch):
    # exp(1000*x1) overflows once x1 passes ln(max float)/1000 = 0.70978,
    # at t = 0.70478 from x1 = 0.005: at the fifth of interval 70's ten
    # substeps.  That interval and every later one run fused all the same.
    xi = covector_evaluator(["1", "exp(1000*x1)"], 2, "x")
    calls = _count_per_stage(monkeypatch)
    curve = integrate_orbit(xi, [0.005, 0.0], 0.0, 1.0, nodes=101).values
    first = int(np.flatnonzero(~np.all(np.isfinite(curve), axis=1))[0]) - 1
    assert first == 70 and np.all(np.isfinite(curve[:71])) and np.isinf(curve[-1, 1])
    assert calls == []
    _same_bytes(curve, integrate_orbit(_per_stage(xi), [0.005, 0.0], 0.0, 1.0,
                                       nodes=101).values)


def _per_node_group_oracle(gens, f, phi, psi_eval):
    """Reference: the group density by plain loops at one node at a time."""
    grid = f.grid
    pts = grid.points()
    phi_inv = invert_metric(phi).values
    psi_vals = np.asarray(psi_eval(f.values), float)
    out = np.zeros(grid.shape)
    m = grid.dim
    n = f.target_dim
    xi_all = [np.asarray(xi(f.values), float) for xi, _ in gens]
    A_all = [np.asarray(A(pts), float) for _, A in gens]
    for idx in np.ndindex(*grid.shape):
        jet = f.jet[idx]
        psi_n = psi_vals[idx]
        pinv = phi_inv[idx]
        flat = np.zeros(n)
        norm_xi = 0.0
        for xiv in (x[idx] for x in xi_all):
            flat_r = psi_n @ xiv
            flat += flat_r
            norm_xi += flat_r @ xiv
        A_sum = np.zeros(m)
        for Av in (a[idx] for a in A_all):
            A_sum += Av
        b = np.zeros(m)
        for g in range(m):
            for be in range(m):
                for i in range(n):
                    b[g] += pinv[g, be] * flat[i] * jet[i, be]
        Ab = A_sum @ b
        norm_A2 = A_sum @ pinv @ A_sum
        L = 0.0
        for g in range(m):
            for mu in range(m):
                for k in range(n):
                    for l in range(n):
                        L += 0.5 * (norm_A2 / Ab**2) * pinv[g, mu] * norm_xi \
                            * psi_n[k, l] * jet[k, g] * jet[l, mu]
        out[idx] = L
    return out


def test_group_loop_oracle_matches_per_node_loop():
    from glharmonic.runner import _Context, _group_loop_oracle

    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["group-two-generators"]))
    spec["m_space"]["nodes"] = [9, 7]
    spec["m_space"]["metric"] = {"matrix": [["1.2 + 0.3*a1", "0.1*a2"], ["0.1*a2", "0.9"]]}
    spec["n_space"]["metric"] = {"diag": ["1 + 0.2*x2", "exp(0.3*x1)"]}
    ctx = _Context(spec, None)
    args = (ctx.system.generators, ctx.map_jet, ctx.phi, ctx.psi_eval)
    ref = _per_node_group_oracle(*args)
    assert np.max(np.abs(_group_loop_oracle(*args) - ref)) <= 1e-15 * np.max(np.abs(ref))


_EXPRESSION_FIELDS = {"diag", "matrix", "components", "xi", "A", "T", "sigma", "tau"}


def _expression_sources(node, field=None) -> list:
    """Every expression source of a spec: the strings held, at any depth,
    under a metric's diag or matrix, map components, xi, A, T, sigma or tau."""
    if isinstance(node, str):
        return [node] if field in _EXPRESSION_FIELDS else []
    if isinstance(node, dict):
        return [src for key, value in node.items() for src in _expression_sources(value, key)]
    if isinstance(node, list):
        return [src for value in node for src in _expression_sources(value, field)]
    return []


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_run_parses_each_expression_source_once(name, tmp_path, monkeypatch):
    # the builders compile the trees the validator checked; the grammar
    # parses in eval mode, so other parses (e.g. inspect's) are not counted
    parsed = []
    original = ast.parse

    def counted(source, *args, mode="exec", **kwargs):
        if mode == "eval":
            parsed.append(source)
        return original(source, *args, mode=mode, **kwargs)

    monkeypatch.setattr(ast, "parse", counted)
    spec = BUILTIN_SCENARIOS[name]
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    sources = _expression_sources(spec)
    assert sources
    assert sorted(parsed) == sorted(sources)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_run_leaves_its_spec_unchanged(name, tmp_path):
    # the runner builds from the validator's checked copy: the bundled spec
    # (a module global) still holds its sources after a run
    spec = BUILTIN_SCENARIOS[name]
    before = copy.deepcopy(spec)
    run_scenario(spec, tmp_path)
    assert spec == before
    assert validate_scenario(spec) == []


def test_system_fields_a_kind_does_not_read_are_ignored(tmp_path):
    # an orbit is the generator (xi, 1) whatever else the system holds
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["orbit-rotation"]))
    ref = run_scenario(spec, tmp_path / "ref")
    spec["system"]["A"] = ["2"]
    got = run_scenario(spec, tmp_path / "got")
    for task in ref["tasks"] + got["tasks"]:
        task.pop("wall_time_s")
    assert got["tasks"] == ref["tasks"]


def test_certify_on_a_finite_orbit_leaves_numpy_warnings_on(tmp_path, monkeypatch):
    # only an orbit with non-finite nodes silences numpy in its tasks
    import glharmonic.runner as runner_module

    original = runner_module.certify_minimizer

    def dividing(*args):
        np.divide(1.0, np.zeros(1))
        return original(*args)

    monkeypatch.setattr(runner_module, "certify_minimizer", dividing)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        report = run_scenario(BUILTIN_SCENARIOS["orbit-rotation"], tmp_path)
    assert report["status"] == "pass"


def _without_jsonschema(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter in which importing jsonschema fails."""
    src = str(pathlib.Path(glharmonic.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.modules['jsonschema'] = None\n{code}", *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_validation_and_runs_need_no_jsonschema(tmp_path):
    # jsonschema is only the test oracle of the schema checker
    result = _without_jsonschema(
        "from glharmonic.scenarios import BUILTIN_SCENARIOS, validate_scenario\n"
        "assert all(validate_scenario(s) == [] for s in BUILTIN_SCENARIOS.values())")
    assert result.returncode == 0, result.stderr
    cli = "from glharmonic.cli import main; main()"
    result = _without_jsonschema(cli, "validate", "harmonic-identity")
    assert (result.returncode, result.stdout) == (0, "harmonic-identity: valid\n"), result.stderr
    bad = _edited("harmonic-identity", [(("m_space", "dim"), True), (("tasks",), [])])
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    result = _without_jsonschema(cli, "validate", str(path))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"invalid: {msg}" for msg in validate_scenario(bad)]
    result = _without_jsonschema(cli, "run", "flat-vacuum", "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "flat-vacuum__report.json").exists()
