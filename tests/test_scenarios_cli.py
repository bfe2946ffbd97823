import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from glharmonic.cli import main
from glharmonic.expressions import Expression, component_env
from glharmonic.runner import run_scenario
from glharmonic.scenarios import (
    BUILTIN_SCENARIOS,
    builtin_catalog,
    covector_evaluator,
    load_scenario,
    validate_scenario,
)
from glharmonic.tensor_core import invert_metric

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


def test_nonfinite_orbit_residual_fails_the_task(tmp_path):
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


def test_unexpected_exception_becomes_error_record(tmp_path, monkeypatch):
    import glharmonic.runner as runner_module

    def broken_task(ctx, task, out, dumps):
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


def test_validator_rejects_level_sets_of_vector_maps():
    # the level-set check of the pseudolinear task needs a scalar map
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["pseudolinear-exp"]))
    spec["n_space"]["dim"] = 2
    spec["map"]["components"] = ["exp(a1 + a2)", "a1"]
    spec["system"]["xi"] = ["1", "0"]
    errors = validate_scenario(spec)
    assert errors == ["tasks.0 (pseudolinear): the level-set check needs a "
                      "one-dimensional target, n_space.dim is 2"]


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
    original = energy_module._density_values

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(energy_module, "_density_values", counted)
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


def test_validator_rejects_pseudo_metric_key():
    # no builder reads the key, and every sampled metric is checked as
    # Riemannian, so accepting it would promise what the run ignores
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    spec["m_space"]["metric"] = {"diag": ["1", "1"], "pseudo": True}
    errors = validate_scenario(spec)
    assert len(errors) == 1
    assert errors[0].startswith("m_space.metric: ")


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
    ["1", "0"], ["-x2", "x1"], ["1", "x1*x2 - 0.5"], ["0", "exp(x2)", "2.5", "sin(x1)/3"]])
def test_covector_evaluator_matches_stacked_columns(point_shape, exprs):
    pts = np.random.default_rng(5).normal(size=point_shape + (2,))
    got = covector_evaluator(exprs, 2, "x")(pts)
    ref = _stacked_covector_evaluator(exprs, 2, "x")(pts)
    assert got.shape == ref.shape == point_shape + (len(exprs),)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


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
