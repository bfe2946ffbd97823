"""The exact fiber jet of a scenario sigma (``sigma_jet`` hook) against the
fiber-stencil path of the same space, on every bundled field-equation
scenario and on the benchmark's field-equations and bulk-output specs;
and the space the runner builds for a constant zero sigma."""

import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import glharmonic.field_equations as field_equations_module
import glharmonic.scenarios as scenarios_module
from glharmonic.field_equations import _em_jet, einstein_system, em_tensors, maxwell_residuals
from glharmonic.gl_space import conformal_space, sigma_blocks
from glharmonic.runner import _Context, run_scenario
from glharmonic.scenarios import BUILTIN_SCENARIOS, require_valid, sigma_jet_evaluator

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

BLOCKS = ("grad_h", "grad_v", "sq_h", "hess_h", "tr_h", "sq_v", "hess_v", "tr_v")


def _cases():
    cases = [(name, BUILTIN_SCENARIOS[name])
             for name in ("maxwell-logconformal", "einstein-2d", "flat-vacuum")]
    for workload in ("field-equations", "bulk-output"):
        for seed in (1, 7):
            cases += [(f"{workload}-{seed}-{spec['name']}", spec)
                      for spec in _workloads.WORKLOADS[workload](seed) if "gl_space" in spec]
    return cases


def _close(got, want, rtol):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= rtol * scale


CASES = _cases()


@pytest.mark.parametrize("spec", [spec for _, spec in CASES], ids=[name for name, _ in CASES])
def test_jet_path_matches_stencil_path(spec):
    space = _Context(spec, None).gl
    assert space.sigma_jet is not None

    def stencil(scale):
        return conformal_space(space.base, space.sigma, fiber_step_scale=scale)

    h = space.fiber_step_scale
    tasks = {task["task"] for task in spec["tasks"]}
    for y in spec["samples"]:
        y = np.asarray(y, float)
        blocks = sigma_blocks(space, y)
        fine, coarse = sigma_blocks(stencil(h), y), sigma_blocks(stencil(2 * h), y)
        for name in BLOCKS:
            got = getattr(blocks, name).values
            # Richardson: the stencil's O(h^2) truncation error removed
            # (alone it reaches 4e-7 relative in hess_v on the 3-D
            # log-direction charts)
            _close(got, (4 * getattr(fine, name).values - getattr(coarse, name).values) / 3,
                   1e-8)
            if "einstein" in tasks:
                _close(got, getattr(fine, name).values, 1e-8)
        # against Richardson too: the stencil alone is 2.7e-8 relative off in
        # f on the 3-D log-direction charts
        em, em_fine, em_coarse = (em_tensors(sp, y) for sp in (space, stencil(h), stencil(2 * h)))
        for name in ("F", "f"):
            fine_vals, coarse_vals = getattr(em_fine, name).values, getattr(em_coarse, name).values
            _close(getattr(em, name).values, (4 * fine_vals - coarse_vals) / 3, 1e-8)
        if "maxwell" in tasks:
            got, want = maxwell_residuals(space, y), maxwell_residuals(stencil(h), y)
            _close(got[0].values, want[0].values, 1e-8)
            _close(got[1].values, want[1].values, 1e-8)
            # residual3 is the cyclic sum of the symmetric sigma_yy's
            # partials: zero up to round-off on the jet path
            df = _em_jet(space, y, space.nonlinear_connection(y))[3]
            rows = df(*np.indices((space.dim,) * 2).reshape(2, -1))
            assert np.max(np.abs(got[2].values)) <= 1e-12 * max(1.0, np.max(np.abs(rows)))
        if "einstein" in tasks:
            K = spec.get("K", 1.0)
            got, want = einstein_system(space, K, y, False), einstein_system(stencil(h), K, y, False)
            for name in ("h_lhs", "v_lhs", "t_field"):
                _close(getattr(got, name).values, getattr(want, name).values, 1e-8)


def test_jet_path_makes_one_jet_call_and_no_sigma_call():
    spec = BUILTIN_SCENARIOS["maxwell-logconformal"]
    space = _Context(spec, None).gl
    calls = {"sigma": 0, "jet": 0}

    def counted(role, fn):
        def ev(*args):
            calls[role] += 1
            return fn(*args)
        return ev

    space = replace(space, sigma=counted("sigma", space.sigma),
                    sigma_jet=counted("jet", space.sigma_jet))
    y = np.asarray(spec["samples"][0], float)
    for fn, args in ((sigma_blocks, (space, y)), (maxwell_residuals, (space, y)),
                     (einstein_system, (space, 1.0, y, False))):
        calls.update(sigma=0, jet=0)
        fn(*args)
        assert calls == {"sigma": 0, "jet": 1}, fn.__name__


def test_jet_is_nan_wherever_an_entry_is_not_finite():
    # ln(x1) y1 at x1 = 0 has no derivatives: every entry of that node is
    # NaN, as a fiber difference through it would be; other nodes keep
    # their exact values
    jet = sigma_jet_evaluator("ln(x1) * y1 * y2", 2)
    points = np.array([[0.0, 0.3], [2.0, 0.3]])
    with np.errstate(divide="ignore", invalid="ignore"):
        s, s_y, s_yy = jet(points, np.array([0.5, 2.0]))
    assert np.isnan(s[0]) and np.all(np.isnan(s_y[0])) and np.all(np.isnan(s_yy[0]))
    ln2 = np.log(2.0)
    assert s[1] == ln2 * 0.5 * 2.0
    assert np.array_equal(s_y[1], [ln2 * 2.0, ln2 * 0.5])
    assert np.array_equal(s_yy[1], [[0.0, ln2], [ln2, 0.0]])


@pytest.mark.parametrize("sigma, none", [("0", True), ("0.0", True), ("0*x1", False)])
def test_a_constant_zero_sigma_is_no_factor(sigma, none, monkeypatch):
    # only the constant 0 skips the factor machinery; any other sigma is the
    # value of its jet, and no separate sigma evaluator is built
    monkeypatch.setattr(scenarios_module, "scalar_evaluator_two_args", None)
    spec = require_valid({**BUILTIN_SCENARIOS["flat-vacuum"],
                          "gl_space": {**BUILTIN_SCENARIOS["flat-vacuum"]["gl_space"],
                                       "sigma": sigma}})
    space = _Context(spec, None).gl
    assert (space.sigma is None) is none
    if not none:
        y = np.array([1.0, 0.5])
        assert np.array_equal(space.sigma(space.grid.points(), y),
                              space.sigma_jet(space.grid.points(), y)[0])


@pytest.mark.parametrize("check, runs", [(False, 0), (True, 1)])
def test_zero_sigma_runs_sigma_blocks_only_for_the_reduction_check(check, runs, monkeypatch,
                                                                   tmp_path):
    # two samples of a sigma = "0" chart make no derivative block; the
    # reduction check runs the full machinery on the zero jet once
    calls = []
    monkeypatch.setattr(field_equations_module, "sigma_blocks",
                        lambda *args: calls.append(1) or sigma_blocks(*args))
    spec = BUILTIN_SCENARIOS["sphere-curvature"]
    task = {**spec["tasks"][0], "check_sigma_zero_reduction": check}
    spec = {**spec, "samples": [[0.5, 0.5], [0.9, -0.2]], "tasks": [task]}
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    assert len(calls) == runs
    if check:
        assert report["tasks"][0]["scalars"]["sigma_zero_reduction_error"] == 0.0


def test_a_zero_sigma_dumps_the_same_v_lhs_bytes_in_3d(tmp_path):
    # "0" takes the no-factor short cut and "0*x1" the full path; both give
    # v_lhs = (2 - n)(+0.0), so the two dumps are equal byte for byte
    base = BUILTIN_SCENARIOS["maxwell-logconformal"]
    dumps = []
    for k, sigma in enumerate(("0", "0*x1")):
        spec = {**base, "gl_space": {**base["gl_space"], "nodes": [7, 7, 7], "sigma": sigma},
                "tasks": [{"task": "einstein", "energy_momentum": False}]}
        assert run_scenario(spec, tmp_path / str(k))["status"] == "pass"
        dumps.append((tmp_path / str(k) / f"{base['name']}__einstein__einstein_v_lhs.csv")
                     .read_bytes())
    assert dumps[0] == dumps[1]
    assert b"-0" in dumps[0]
