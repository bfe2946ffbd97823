"""Scenario files: schema, validation, construction of library objects
from declarative specs, and the bundled catalog.

A scenario is a YAML mapping validated against SCENARIO_SCHEMA plus
semantic checks (expression grammar, dimension consistency, per-task
requirements).  All validation errors are collected and reported at once.

Variable naming in expressions: source-chart quantities use a1..am (and
b1..bm for the induced source direction), target quantities use x1..xn
(and y1..yn for fiber directions).  Field-equation scenarios live on a
single chart whose coordinates are x1..xn.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import ScenarioValidationError
from .expressions import Expression, ExpressionError, component_env
from .tensor_core import ChartGrid, MetricField, box_grid, metric_field

TASK_NAMES = (
    "energy",
    "el_residual",
    "certify_theorem",
    "orbit",
    "pfaff",
    "pseudolinear",
    "group_lagrangian",
    "maxwell",
    "einstein",
)

_EXPR = {"type": "string", "minLength": 1}
_EXPR_LIST = {"type": "array", "items": _EXPR, "minItems": 1}

_METRIC_SPEC = {
    "oneOf": [
        {"const": "identity"},
        {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "diag": _EXPR_LIST,
                "matrix": {"type": "array", "items": _EXPR_LIST, "minItems": 1},
            },
        },
    ]
}

_CHART_SPEC = {
    "type": "object",
    "required": ["dim", "extents", "nodes"],
    "additionalProperties": False,
    "properties": {
        "dim": {"type": "integer", "minimum": 1, "maximum": 4},
        "extents": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
            "minItems": 1,
        },
        "nodes": {"type": "array", "items": {"type": "integer", "minimum": 5}},
        "periodic": {
            "oneOf": [{"type": "boolean"},
                      {"type": "array", "items": {"type": "boolean"}}]
        },
        "stencil_order": {"enum": [2, 4]},
        "metric": _METRIC_SPEC,
    },
}

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "tasks"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "m_space": _CHART_SPEC,
        "n_space": {
            "type": "object",
            "required": ["dim"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1, "maximum": 4},
                "metric": _METRIC_SPEC,
            },
        },
        "gl_space": {
            "type": "object",
            "required": ["dim", "extents", "nodes", "sigma"],
            "additionalProperties": False,
            "properties": {
                **_CHART_SPEC["properties"],
                "sigma": _EXPR,
                "ricci_convention": {"enum": ["last", "middle"]},
            },
        },
        "map": {
            "type": "object",
            "required": ["components"],
            "additionalProperties": False,
            "properties": {
                "components": _EXPR_LIST,
                "linear_jet": {"type": "array",
                               "items": {"type": "array", "items": {"type": "number"}}},
            },
        },
        "sigma": _EXPR,
        "tau": _EXPR,
        "system": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["general", "orbit", "pfaff", "pseudolinear", "group"]},
                "T": {"type": "array", "items": _EXPR_LIST},
                "xi": _EXPR_LIST,
                "A": _EXPR_LIST,
                "generators": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["xi", "A"],
                        "additionalProperties": False,
                        "properties": {"xi": _EXPR_LIST, "A": _EXPR_LIST},
                    },
                    "minItems": 1,
                },
            },
        },
        "connection": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "covector_fiber", "oneform_source"]},
                "A": _EXPR_LIST,
                "xi": _EXPR_LIST,
            },
        },
        "orbit": {
            "type": "object",
            "required": ["x0", "t0", "t1", "nodes"],
            "additionalProperties": False,
            "properties": {
                "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "t0": {"type": "number"},
                "t1": {"type": "number"},
                "nodes": {"type": "integer", "minimum": 5},
                "rk4_step": {"type": "number", "exclusiveMinimum": 0},
                "stencil_order": {"enum": [2, 4]},
            },
        },
        "samples": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "minItems": 1,
        },
        "K": {"type": "number"},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol_gap": {"type": "number", "exclusiveMinimum": 0},
                "tol_defect": {"type": "number", "exclusiveMinimum": 0},
                "eps_sing": {"type": "number", "exclusiveMinimum": 0},
                "fd_step": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["task"],
                "properties": {"task": {"enum": list(TASK_NAMES)}},
            },
        },
    },
}

_TASK_REQUIREMENTS = {
    "energy": ("m_space", "n_space", "map", "connection"),
    "el_residual": ("m_space", "n_space", "map", "connection"),
    # certify accepts either a sampled map on a chart or an integrated orbit
    "certify_theorem": ("n_space", "system", ("m_space+map", "orbit")),
    "orbit": ("n_space", "system", "orbit"),
    "pfaff": ("m_space", "n_space", "map", "system"),
    "pseudolinear": ("m_space", "n_space", "map", "system"),
    "group_lagrangian": ("m_space", "n_space", "map", "system"),
    "maxwell": ("gl_space", "samples"),
    "einstein": ("gl_space", "samples"),
}

DEFAULT_TOLERANCES = {
    "tol_gap": 1e-6,
    "tol_defect": 1e-3,
    "eps_sing": 1e-8,
    "fd_step": 1e-6,
}


def validate_scenario(spec: Any) -> list[str]:
    """All schema and semantic problems of a scenario spec, with paths.
    Empty list means valid."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = []
    for err in sorted(validator.iter_errors(spec), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{path}: {err.message}")
    if errors:
        return errors  # structural problems make semantic checks unreliable

    errors.extend(_semantic_errors(spec))
    return errors


def _check_expr(errors, path, src, scalars, vectors=()):
    try:
        Expression(src, scalars=scalars, vectors=vectors)
    except ExpressionError as exc:
        errors.append(f"{path}: {exc}")


def _chart_errors(errors, path, chart):
    dim = chart["dim"]
    if len(chart["extents"]) != dim:
        errors.append(f"{path}.extents: expected {dim} entries, got {len(chart['extents'])}")
    if len(chart["nodes"]) != dim:
        errors.append(f"{path}.nodes: expected {dim} entries, got {len(chart['nodes'])}")
    per = chart.get("periodic", False)
    if isinstance(per, list) and len(per) != dim:
        errors.append(f"{path}.periodic: expected {dim} entries, got {len(per)}")
    for k, (lo, hi) in enumerate(chart["extents"]):
        if hi <= lo:
            errors.append(f"{path}.extents.{k}: empty interval [{lo}, {hi}]")


def _metric_errors(errors, path, spec, dim, names):
    if spec == "identity" or spec is None:
        return
    if "diag" in spec and "matrix" in spec:
        errors.append(f"{path}: give either diag or matrix, not both")
        return
    if "diag" in spec:
        if len(spec["diag"]) != dim:
            errors.append(f"{path}.diag: expected {dim} entries, got {len(spec['diag'])}")
        for k, src in enumerate(spec["diag"]):
            _check_expr(errors, f"{path}.diag.{k}", src, names)
    elif "matrix" in spec:
        rows = spec["matrix"]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            errors.append(f"{path}.matrix: expected a {dim}x{dim} array of expressions")
        for i, row in enumerate(rows):
            for j, src in enumerate(row):
                _check_expr(errors, f"{path}.matrix.{i}.{j}", src, names)
    else:
        errors.append(f"{path}: needs diag or matrix (or the string 'identity')")


def _semantic_errors(spec: dict) -> list[str]:
    errors: list[str] = []
    m = spec.get("m_space")
    n = spec.get("n_space")
    gl = spec.get("gl_space")
    m_dim = m["dim"] if m else None
    n_dim = n["dim"] if n else None

    a_names = [f"a{k + 1}" for k in range(m_dim)] if m_dim else []
    x_names = [f"x{k + 1}" for k in range(n_dim)] if n_dim else []

    if m:
        _chart_errors(errors, "m_space", m)
        _metric_errors(errors, "m_space.metric", m.get("metric", "identity"), m_dim, a_names)
    if n:
        _metric_errors(errors, "n_space.metric", n.get("metric", "identity"), n_dim, x_names)
    if gl:
        _chart_errors(errors, "gl_space", gl)
        g_names = [f"x{k + 1}" for k in range(gl["dim"])]
        gy_names = [f"y{k + 1}" for k in range(gl["dim"])]
        _metric_errors(errors, "gl_space.metric", gl.get("metric", "identity"),
                       gl["dim"], g_names)
        _check_expr(errors, "gl_space.sigma", gl["sigma"], g_names + gy_names,
                    vectors=("x", "y"))

    mp = spec.get("map")
    if mp:
        if n_dim and len(mp["components"]) != n_dim:
            errors.append(
                f"map.components: expected {n_dim} entries for the target dimension, "
                f"got {len(mp['components'])}")
        for k, src in enumerate(mp["components"]):
            _check_expr(errors, f"map.components.{k}", src, a_names, vectors=("a",))
        lj = mp.get("linear_jet")
        if lj is not None and m_dim and n_dim:
            if len(lj) != n_dim or any(len(row) != m_dim for row in lj):
                errors.append(f"map.linear_jet: expected a {n_dim}x{m_dim} numeric array")

    if "sigma" in spec:
        _check_expr(errors, "sigma", spec["sigma"],
                    a_names + [f"b{k + 1}" for k in range(m_dim or 0)], vectors=("a", "b"))
    if "tau" in spec:
        _check_expr(errors, "tau", spec["tau"],
                    x_names + [f"y{k + 1}" for k in range(n_dim or 0)], vectors=("x", "y"))

    system = spec.get("system")
    if system:
        kind = system["kind"]
        need = {"general": ("T",), "orbit": ("xi",), "pfaff": ("A",),
                "pseudolinear": ("xi", "A"), "group": ("generators",)}[kind]
        for key in need:
            if key not in system:
                errors.append(f"system: kind {kind!r} requires {key!r}")
        if kind == "orbit" and m and m_dim != 1:
            errors.append("system: orbit systems need a one-dimensional source")
        if kind == "pfaff" and n_dim not in (None, 1):
            errors.append("system: Pfaff systems need a one-dimensional target")
        for key, names in (("xi", x_names), ("A", a_names)):
            for k, src in enumerate(system.get(key, [])):
                _check_expr(errors, f"system.{key}.{k}", src, names)
        for r, gen in enumerate(system.get("generators", [])):
            for k, src in enumerate(gen["xi"]):
                _check_expr(errors, f"system.generators.{r}.xi.{k}", src, x_names)
            for k, src in enumerate(gen["A"]):
                _check_expr(errors, f"system.generators.{r}.A.{k}", src, a_names)
        if kind == "orbit" and n_dim and len(system.get("xi", [])) not in (0, n_dim):
            errors.append(f"system.xi: expected {n_dim} components")

    conn = spec.get("connection")
    if conn:
        if conn["kind"] == "covector_fiber" and "A" not in conn:
            errors.append("connection: covector_fiber requires A")
        if conn["kind"] == "oneform_source" and "xi" not in conn:
            errors.append("connection: oneform_source requires xi")
        for k, src in enumerate(conn.get("A", [])):
            _check_expr(errors, f"connection.A.{k}", src, a_names)
        for k, src in enumerate(conn.get("xi", [])):
            _check_expr(errors, f"connection.xi.{k}", src, x_names)

    orbit = spec.get("orbit")
    if orbit:
        if n_dim and len(orbit["x0"]) != n_dim:
            errors.append(f"orbit.x0: expected {n_dim} components, got {len(orbit['x0'])}")
        if orbit["t1"] <= orbit["t0"]:
            errors.append("orbit: t1 must exceed t0")

    samples = spec.get("samples")
    if samples and gl:
        for k, s in enumerate(samples):
            if len(s) != gl["dim"]:
                errors.append(f"samples.{k}: expected {gl['dim']} components, got {len(s)}")

    for t, task in enumerate(spec.get("tasks", [])):
        name = task.get("task")
        for req in _TASK_REQUIREMENTS.get(name, ()):
            if isinstance(req, tuple):
                options = [alt.split("+") for alt in req]
                if not any(all(key in spec for key in opt) for opt in options):
                    pretty = " or ".join(" and ".join(opt) for opt in options)
                    errors.append(f"tasks.{t} ({name}): scenario needs {pretty}")
            elif req not in spec:
                errors.append(f"tasks.{t} ({name}): scenario is missing required field {req!r}")
        if name == "einstein" and "K" not in spec and task.get("energy_momentum", False):
            errors.append(f"tasks.{t} (einstein): energy_momentum requires K")
        if name == "orbit" and spec.get("system", {}).get("kind") != "orbit":
            errors.append(f"tasks.{t} (orbit): system.kind must be 'orbit'")
        if name == "pfaff" and spec.get("system", {}).get("kind") != "pfaff":
            errors.append(f"tasks.{t} (pfaff): system.kind must be 'pfaff'")
        if name == "pseudolinear" and spec.get("system", {}).get("kind") != "pseudolinear":
            errors.append(f"tasks.{t} (pseudolinear): system.kind must be 'pseudolinear'")
        if name == "pseudolinear" and n_dim not in (None, 1):
            errors.append(f"tasks.{t} (pseudolinear): the level-set check needs a "
                          f"one-dimensional target, n_space.dim is {n_dim}")
        if name == "group_lagrangian" and spec.get("system", {}).get("kind") != "group":
            errors.append(f"tasks.{t} (group_lagrangian): system.kind must be 'group'")
    return errors


def require_valid(spec: Any) -> None:
    errors = validate_scenario(spec)
    if errors:
        raise ScenarioValidationError(errors)


# ---------------------------------------------------------------------------
# builders: declarative spec -> library objects
# ---------------------------------------------------------------------------


def build_grid(chart: dict, stencil_override: int | None = None) -> ChartGrid:
    per = chart.get("periodic", False)
    order = stencil_override or chart.get("stencil_order", 2)
    return box_grid(chart["extents"], chart["nodes"], per, order)


def metric_evaluator(spec_metric, dim: int, prefix: str) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized metric evaluator from 'identity', {'diag': ...} or
    {'matrix': ...} with expressions in prefix1..prefixD."""
    if spec_metric in (None, "identity"):
        def identity(pts):
            return np.broadcast_to(np.eye(dim), pts.shape[:-1] + (dim, dim)).copy()

        return identity

    names = [f"{prefix}{k + 1}" for k in range(dim)]
    if "diag" in spec_metric:
        exprs = [Expression(src, scalars=names) for src in spec_metric["diag"]]

        def diag_eval(pts):
            env = component_env(prefix, pts)
            out = np.zeros(pts.shape[:-1] + (dim, dim))
            for k, e in enumerate(exprs):
                out[..., k, k] = e(env)
            return out

        return diag_eval

    rows = [[Expression(src, scalars=names) for src in row] for row in spec_metric["matrix"]]

    def matrix_eval(pts):
        out = _fill_matrix(rows, component_env(prefix, pts), pts.shape[:-1])
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return matrix_eval


def system_matrix_evaluator(rows, m_dim: int, n_dim: int):
    """Vectorized T^i_a(a, x) of a general first-order system from rows of
    expressions in a1..am and x1..xn: ``T(a_pts, x_vals) -> (..., n, m)``."""
    names = [f"a{k + 1}" for k in range(m_dim)] + [f"x{k + 1}" for k in range(n_dim)]
    compiled = [[Expression(src, scalars=names) for src in row] for row in rows]

    def T(a_pts, x_vals):
        env = component_env("a", a_pts)
        env.update(component_env("x", x_vals))
        return _fill_matrix(compiled, env, a_pts.shape[:-1])

    return T


def _fill_matrix(rows, env: dict, lead_shape: tuple) -> np.ndarray:
    """(*lead_shape, rows, columns) array of compiled expressions in env."""
    out = np.zeros(lead_shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e(env)
    return out


def covector_evaluator(exprs, dim: int, prefix: str):
    names = [f"{prefix}{k + 1}" for k in range(dim)]
    compiled = [Expression(src, scalars=names) for src in exprs]

    def ev(pts):
        env = component_env(prefix, pts)
        out = np.empty(pts.shape[:-1] + (len(compiled),))
        for j, e in enumerate(compiled):
            out[..., j] = e(env)    # broadcasts constant components
        return out

    return ev


def scalar_evaluator_two_args(src: str, d1: int, p1: str, d2: int, p2: str):
    """Expression over two stacked arguments, e.g. sigma(x, y)."""
    names = [f"{p1}{k + 1}" for k in range(d1)] + [f"{p2}{k + 1}" for k in range(d2)]
    e = Expression(src, scalars=names, vectors=(p1, p2))

    def ev(first, second):
        first = np.asarray(first, float)
        second = np.asarray(second, float)
        if second.ndim == 1:
            second = np.broadcast_to(second, first.shape[:-1] + second.shape)
        env = component_env(p1, first)
        env.update(component_env(p2, second))
        env[p1] = first
        env[p2] = second
        return np.broadcast_to(e(env), first.shape[:-1]).copy()

    return ev


def sampled_metric(grid: ChartGrid, spec_metric, dim: int, prefix: str,
                   definite: str = "riemannian") -> MetricField:
    ev = metric_evaluator(spec_metric, dim, prefix)
    return metric_field(grid, ev(grid.points()), definite=definite)


def build_map_values(spec_map: dict, grid: ChartGrid, n_dim: int):
    names = [f"a{k + 1}" for k in range(grid.dim)]
    pts = grid.points()
    env = component_env("a", pts)
    env["a"] = pts
    cols = []
    for src in spec_map["components"]:
        e = Expression(src, scalars=names, vectors=("a",))
        cols.append(np.broadcast_to(e(env), grid.shape))
    values = np.stack(cols, axis=-1)
    linear_jet = spec_map.get("linear_jet")
    return values, (np.asarray(linear_jet, float) if linear_jet is not None else None)


# ---------------------------------------------------------------------------
# bundled scenarios: one per construction
# ---------------------------------------------------------------------------

BUILTIN_SCENARIOS: dict[str, dict] = {
    "orbit-rotation": {
        "name": "orbit-rotation",
        "description": "Rotation-field orbit integrated by RK4 certifies as a "
                       "global minimizer and as a geodesic of the orbit metric",
        "n_space": {"dim": 2, "metric": "identity"},
        "system": {"kind": "orbit", "xi": ["-x2", "x1"]},
        "orbit": {"x0": [1.0, 0.0], "t0": 0.0, "t1": 1.5707963267948966,
                  "nodes": 201, "rk4_step": 1e-3, "stencil_order": 4},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 1e-3},
        "tasks": [
            {"task": "orbit", "residual_threshold": 1e-4},
            {"task": "certify_theorem"},
        ],
    },
    "pfaff-exact": {
        "name": "pfaff-exact",
        "description": "Exact primitive of a closed covector field attains the "
                       "half-volume minimum of the quotient functional",
        "m_space": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]],
                    "nodes": [65, 65], "periodic": False, "metric": "identity"},
        "n_space": {"dim": 1, "metric": "identity"},
        "map": {"components": ["a1 + 2*a2 + 0.3*sin(a1)*cos(a2)"]},
        "system": {"kind": "pfaff",
                   "A": ["1 + 0.3*cos(a1)*cos(a2)", "2 - 0.3*sin(a1)*sin(a2)"]},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 5e-3},
        "tasks": [{"task": "pfaff"}, {"task": "certify_theorem"}],
    },
    "pseudolinear-exp": {
        "name": "pseudolinear-exp",
        "description": "The exponential pseudolinear map solves its factorized "
                       "system exactly; level sets are totally geodesic",
        "m_space": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]],
                    "nodes": [65, 65], "periodic": False, "metric": "identity"},
        "n_space": {"dim": 1, "metric": "identity"},
        "map": {"components": ["exp(a1 + a2)"]},
        "system": {"kind": "pseudolinear", "xi": ["1"],
                   "A": ["exp(a1 + a2)", "exp(a1 + a2)"]},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 5e-3},
        "tasks": [
            {"task": "pseudolinear", "level_set_threshold": 1e-8},
            {"task": "certify_theorem"},
        ],
    },
    "group-two-generators": {
        "name": "group-two-generators",
        "description": "Two-generator transformation-group system: density of "
                       "the attached energy, cross-checked against a nodewise loop",
        "m_space": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]],
                    "nodes": [33, 33], "periodic": False, "metric": "identity"},
        "n_space": {"dim": 2, "metric": "identity"},
        "map": {"components": ["a1 + 0.3*a2", "a2 - 0.1*a1"]},
        "system": {"kind": "group", "generators": [
            {"xi": ["1", "0"], "A": ["1 + a2", "1"]},
            {"xi": ["0", "1 + 0.2*x1"], "A": ["1", "2 - a1"]},
        ]},
        "tasks": [{"task": "group_lagrangian", "oracle_tol": 1e-12}],
    },
    "sphere-curvature": {
        "name": "sphere-curvature",
        "description": "Round-sphere chart: positive scalar curvature 2/R^2 and "
                       "the vanishing two-dimensional Einstein tensor",
        "gl_space": {"dim": 2, "extents": [[0.7, 2.441592653589793], [0.0, 6.283185307179586]],
                     "nodes": [128, 128], "periodic": [False, True],
                     "stencil_order": 4,
                     "metric": {"diag": ["1", "sin(x1)*sin(x1)"]},
                     "sigma": "0"},
        "samples": [[0.5, 0.5]],
        "K": 1.0,
        "tasks": [{"task": "einstein", "expected_scalar": 2.0, "scalar_tol": 1e-3,
                   "h_lhs_max": 1e-3, "energy_momentum": False}],
    },
    "maxwell-logconformal": {
        "name": "maxwell-logconformal",
        "description": "Log-direction conformal factor on a curved "
                       "three-dimensional chart: the vertical cyclic Maxwell "
                       "residual vanishes to fiber-step accuracy",
        "gl_space": {"dim": 3,
                     "extents": [[0.0, 6.283185307179586]] * 3,
                     "nodes": [15, 15, 15], "periodic": True,
                     "metric": {"matrix": [
                         ["1.3 + 0.2*sin(x1)", "0.05*sin(x1)*sin(x2)", "0"],
                         ["0.05*sin(x1)*sin(x2)", "1.1 + 0.15*cos(x2)", "0"],
                         ["0", "0", "1"]]},
                     "sigma": "ln(abs(0.7*y1 + 0.4*y2 - 0.5*y3)) * (1 + 0.1*sin(x1))"},
        "samples": [[1.1, 0.6, 0.4]],
        "tasks": [{"task": "maxwell", "residual3_max": 1e-6}],
    },
    "einstein-2d": {
        "name": "einstein-2d",
        "description": "Two-dimensional conformal space: the vertical equation "
                       "is identically zero and switching the factor off "
                       "recovers the base Einstein tensor",
        "gl_space": {"dim": 2, "extents": [[0.7, 2.441592653589793], [0.0, 6.283185307179586]],
                     "nodes": [48, 48], "periodic": [False, True],
                     "stencil_order": 4,
                     "metric": {"diag": ["1", "sin(x1)*sin(x1)"]},
                     "sigma": "0.2*sin(x1) * (1 + 0.3*y1)"},
        "samples": [[0.7, 0.3]],
        "K": 25.132741228718345,
        "tasks": [{"task": "einstein", "v_lhs_max": 0.0,
                   "check_sigma_zero_reduction": True, "reduction_tol": 1e-10}],
    },
    "flat-vacuum": {
        "name": "flat-vacuum",
        "description": "Flat chart with the factor switched off: every "
                       "field-equation output vanishes",
        "gl_space": {"dim": 2,
                     "extents": [[0.0, 6.283185307179586], [0.0, 6.283185307179586]],
                     "nodes": [17, 17], "periodic": True,
                     "metric": "identity", "sigma": "0"},
        "samples": [[1.0, 0.0]],
        "K": 1.0,
        "tasks": [
            {"task": "maxwell", "residual1_max": 1e-12, "residual2_max": 1e-12,
             "residual3_max": 1e-12},
            {"task": "einstein", "h_lhs_max": 1e-12, "v_lhs_max": 1e-12,
             "energy_momentum": False},
        ],
    },
    "harmonic-identity": {
        "name": "harmonic-identity",
        "description": "Identity map of a flat torus: unit density, energy "
                       "equal to the volume, vanishing residual",
        "m_space": {"dim": 2,
                    "extents": [[0.0, 6.283185307179586], [0.0, 6.283185307179586]],
                    "nodes": [33, 33], "periodic": True, "metric": "identity"},
        "n_space": {"dim": 2, "metric": "identity"},
        "map": {"components": ["a1", "a2"], "linear_jet": [[1, 0], [0, 1]]},
        "connection": {"kind": "zero"},
        "tasks": [
            {"task": "energy", "expected": 39.47841760435743, "tol": 1e-9},
            {"task": "el_residual", "max_abs": 1e-9},
        ],
    },
}


def builtin_catalog() -> list[tuple[str, str]]:
    return [(name, spec["description"]) for name, spec in sorted(BUILTIN_SCENARIOS.items())]


def load_scenario(source) -> dict:
    """A scenario dict from a builtin name, a path, or a mapping."""
    import pathlib

    import yaml

    if isinstance(source, dict):
        return source
    name = str(source)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]
    path = pathlib.Path(name)
    if not path.exists():
        raise ScenarioValidationError(
            [f"{name!r} is neither a bundled scenario nor a readable file; "
             f"bundled: {', '.join(sorted(BUILTIN_SCENARIOS))}"])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioValidationError([f"{name}: not valid YAML: {exc}"]) from None
    if not isinstance(spec, dict):
        raise ScenarioValidationError([f"{name}: top level must be a mapping"])
    return spec
