"""The exact partials a scenario-built conformal residual takes from the
grammar (the hooks of ``_Context.metric_pair`` and ``_Context.connection``):
sympy as the oracle of every derivative list, the difference path of the
same pair as the oracle of the residual, and the evaluations one run
makes."""

import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import glharmonic.scenarios as scenarios_module
from glharmonic.energy import density_partials, el_residual
from glharmonic.runner import _Context, run_scenario
from glharmonic.scenarios import BUILTIN_SCENARIOS, require_valid, validate_scenario

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)


def _residual_cases():
    cases = [(f"bundled-{name}", spec) for name, spec in sorted(BUILTIN_SCENARIOS.items())]
    for seed in (1, 7):
        cases += [(f"harmonic-maps-{seed}-{spec['name']}", spec)
                  for spec in _workloads.WORKLOADS["harmonic-maps"](seed)]
    return [(name, spec) for name, spec in cases
            if any(task["task"] == "el_residual" for task in spec["tasks"])]


CASES = _residual_cases()
IDS = [name for name, _ in CASES]
COUPLED = [(name, spec) for name, spec in CASES if "sigma" in spec]


def test_the_cases_reach_every_derivative_list():
    assert len(COUPLED) == 4
    assert {spec["connection"]["kind"] for _, spec in COUPLED} == {"covector_fiber",
                                                                  "oneform_source"}


def _sympy_oracle(sympy, source, symbols):
    names = {"ln": sympy.log, "log": sympy.log, "exp": sympy.exp, "sin": sympy.sin,
             "cos": sympy.cos, "abs": sympy.Abs, "pi": sympy.pi, "e": sympy.E, **symbols}
    return sympy.sympify(source, locals=names)


@pytest.mark.parametrize("spec", [spec for _, spec in CASES], ids=IDS)
def test_derivative_lists_match_sympy(spec):
    sympy = pytest.importorskip("sympy")
    ctx = _Context(require_valid(spec), None)
    pair, P = ctx.metric_pair, ctx.connection
    m, n = spec["m_space"]["dim"], spec["n_space"]["dim"]
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-2.0, 2.0, size=(2, 6, m))
    x, y = rng.uniform(-2.0, 2.0, size=(2, 6, n))
    names = {p: [f"{p}{k + 1}" for k in range(d)] for p, d in (("a", m), ("b", m),
                                                               ("x", n), ("y", n))}
    symbols = {s: sympy.Symbol(s, real=True) for group in names.values() for s in group}

    def oracle(source, wrt, args):
        """d source / d wrt_k at the points, (6, dim)."""
        expr = _sympy_oracle(sympy, source, symbols)
        variables = [symbols[s] for p in args for s in names[p]]
        grads = [sympy.diff(expr, symbols[s]) for s in names[wrt]]
        fn = sympy.lambdify(variables, grads, modules="numpy")
        points = {"a": a, "b": b, "x": x, "y": y}
        cols = fn(*(points[p][:, k] for p in args for k in range(len(names[p]))))
        return np.stack([np.broadcast_to(col, (6,)) for col in cols], axis=-1)

    def close(got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    metric = spec["n_space"].get("metric", "identity")
    if metric == "identity":
        entries = [[None] * n for _ in range(n)]
    else:
        entries = [[metric["diag"][i] if i == j else "0" for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            want = oracle(entries[i][j], "x", "x") if entries[i][j] else np.zeros((6, n))
            close(pair.psi_dx(x)[:, i, j], want)
    if "sigma" in spec:
        close(pair.sigma_db(a, b), oracle(spec["sigma"], "b", "ab"))
    if "tau" in spec:
        close(pair.tau_dy(x, y), oracle(spec["tau"], "y", "xy"))
        close(pair.tau_dx(x, y), oracle(spec["tau"], "x", "xy"))
    if spec["connection"]["kind"] == "oneform_source":
        dsource = P.source_dx(a, x)
        for i, component in enumerate(spec["connection"]["xi"]):
            want = oracle(component, "x", "x")
            for g in range(m):
                for c in range(m):
                    close(dsource[:, g, c, i], want if g == c else 0.0 * want)
    else:
        assert P.source_dx is None and not P.source_depends_on_x


def _difference_path(pair, P):
    return (replace(pair, sigma_db=None, tau_dy=None, tau_dx=None, psi_dx=None),
            replace(P, source_dx=None))


@pytest.mark.parametrize("spec", [spec for _, spec in CASES], ids=IDS)
def test_exact_residual_matches_the_difference_path(spec):
    ctx = _Context(require_valid(spec), None)
    f, phi = ctx.map_jet, ctx.phi
    got = el_residual(f, ctx.metric_pair, ctx.connection, phi).values
    want = el_residual(f, *_difference_path(ctx.metric_pair, ctx.connection), phi).values
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
    exact = density_partials(f, ctx.metric_pair, ctx.connection, phi)
    fd = density_partials(f, *_difference_path(ctx.metric_pair, ctx.connection), phi)
    for g, w in zip(exact, fd):
        assert np.max(np.abs(g - w)) <= 1e-8 * max(1.0, np.max(np.abs(w)))


def _counting_factories(monkeypatch, counts):
    """Every evaluator the scenario factories build counts its calls in
    ``counts`` under its role (sigma/tau, phi/psi, covector) and the
    derivative lists count their builds."""
    def wrap(factory, role_of):
        def built(*args, **kwargs):
            ev = factory(*args, **kwargs)
            role = role_of(*args)

            def counted(*a):
                counts[role] = counts.get(role, 0) + 1
                return ev(*a)

            return counted

        return built

    monkeypatch.setattr(scenarios_module, "scalar_evaluator_two_args",
                        wrap(scenarios_module.scalar_evaluator_two_args,
                             lambda src, d1, p1, *rest: "sigma" if p1 == "a" else "tau"))
    monkeypatch.setattr(scenarios_module, "metric_evaluator",
                        wrap(scenarios_module.metric_evaluator,
                             lambda spec, dim, prefix: "phi" if prefix == "a" else "psi"))
    monkeypatch.setattr(scenarios_module, "covector_evaluator",
                        wrap(scenarios_module.covector_evaluator, lambda *args: "P block"))
    original = scenarios_module.gradient_evaluator

    def counted_lists(*args, **kwargs):
        counts["derivative lists"] = counts.get("derivative lists", 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios_module, "gradient_evaluator", counted_lists)


@pytest.mark.parametrize("name, lists", [("coupled-covector", 4), ("coupled-oneform", 5)])
def test_coupled_run_evaluates_each_factor_once(name, lists, monkeypatch, tmp_path):
    # across its energy and el_residual tasks, one run evaluates sigma, tau,
    # psi and the connection's covector at the map once, and phi once on
    # the grid; sigma_db, tau_dy, tau_dx, psi_dx and a one-form's xi_dx
    # are one list each
    spec = next(spec for _, spec in COUPLED if spec["name"] == name)
    assert [task["task"] for task in spec["tasks"]] == ["energy", "el_residual"]
    counts = {}
    _counting_factories(monkeypatch, counts)
    report = run_scenario(spec, tmp_path)
    assert report["status"] == "pass"
    assert counts == {"sigma": 1, "tau": 1, "phi": 1, "psi": 1, "P block": 1,
                      "derivative lists": lists}


def test_energy_only_spec_evaluates_sigma_and_tau_once(monkeypatch, tmp_path):
    counts = {}
    _counting_factories(monkeypatch, counts)
    for _, spec in COUPLED[:2]:
        spec = {**spec, "tasks": [{"task": "energy"}]}
        assert run_scenario(spec, tmp_path / spec["name"])["status"] == "pass"
    assert counts["sigma"] == counts["tau"] == 2


def test_a_spec_setting_fd_step_is_rejected():
    # every scenario-built residual takes its pointwise partials exactly, so
    # no task has a difference step to set
    _, spec = COUPLED[0]
    stepped = {**spec, "tolerances": {**spec.get("tolerances", {}), "fd_step": 1e-3}}
    assert validate_scenario(spec) == []
    errors = validate_scenario(stepped)
    assert len(errors) == 1
    assert errors[0].startswith("tolerances: ") and "'fd_step'" in errors[0]

