"""Scenario files: schema, validation, construction of library objects
from declarative specs, and the bundled catalog.

A scenario is a YAML mapping validated against SCENARIO_SCHEMA plus
semantic checks (expression grammar, dimension consistency, per-task
requirements).  All validation errors are collected and reported at once.
The schema is checked in this module (``_schema_problems``), for the
keyword subset it uses, with jsonschema's messages and order; jsonschema
itself is only the test oracle of that checker.

Variable naming in expressions: source-chart quantities use a1..am (and
b1..bm for the induced source direction), target quantities use x1..xn
(and y1..yn for fiber directions).  Field-equation scenarios live on a
single chart whose coordinates are x1..xn.
"""

from __future__ import annotations

import ast
import copy
import functools
import math
import numbers
import operator
from typing import Any, Callable

import numpy as np

from .energy import constant_metric
from .errors import ScenarioValidationError, StepLimitError
from .expressions import Expression, ExpressionError, component_env, derivative
from .systems import DEFAULT_RK4_STEP, rk4_substeps
from .tensor_core import ChartGrid, MetricField, box_grid, interval_grid, sample_metric

# task -> (the scenario fields it needs, a tuple of field tuples being
# either of them; the system kind it needs; the optional keys it reads
# beside "task": finite-number bounds and the flags of _TASK_FLAGS)
_TASKS = {
    "energy": (("m_space", "n_space", "map", "connection"), None, ("expected", "tol")),
    "el_residual": (("m_space", "n_space", "map", "connection"), None, ("max_abs",)),
    # certify accepts either a sampled map on a chart or an integrated orbit
    "certify_theorem": (("n_space", "system", (("m_space", "map"), ("orbit",))), None, ()),
    "orbit": (("n_space", "system", "orbit"), "orbit", ("residual_threshold",)),
    "pfaff": (("m_space", "n_space", "map", "system"), "pfaff", ()),
    "pseudolinear": (("m_space", "n_space", "map", "system"), "pseudolinear",
                     ("level_set_threshold",)),
    "group_lagrangian": (("m_space", "n_space", "map", "system"), "group", ("oracle_tol",)),
    "maxwell": (("gl_space", "samples"), None, ("residual1_max", "residual2_max", "residual3_max")),
    "einstein": (("gl_space", "samples"), None,
                 ("h_lhs_max", "v_lhs_max", "expected_scalar", "scalar_tol", "reduction_tol",
                  "energy_momentum", "check_sigma_zero_reduction")),
}
_TASK_FLAGS = {"energy_momentum", "check_sigma_zero_reduction"}

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

# The most nodes a chart may sample, all axes together; the largest chart of
# the benchmark workloads has 257^2 = 66,049
MAX_CHART_NODES = 2**20

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
            },
        },
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["task"],
                "properties": {"task": {"enum": list(_TASKS)}},
            },
        },
    },
}

# the fields each system kind reads
SYSTEM_FIELDS = {"general": ("T",), "orbit": ("xi",), "pfaff": ("A",),
                 "pseudolinear": ("xi", "A"), "group": ("generators",)}

DEFAULT_TOLERANCES = {
    "tol_gap": 1e-6,
    "tol_defect": 1e-3,
    "eps_sing": 1e-8,
}


def validate_scenario(spec: Any) -> list[str]:
    """All schema and semantic problems of a scenario spec, with paths.
    Empty list means valid.  The spec is left as it is."""
    return _checked(spec)[0]


def _checked(spec: Any) -> tuple[list[str], dict | None]:
    """The problems of a spec, and its checked copy: a deep copy in which
    every expression source that passed is its checked tree and every
    integer-typed field an ``int``."""
    problems, integral = [], []
    _schema_problems(SCENARIO_SCHEMA, spec, (), problems, integral)
    if problems:  # structural problems make semantic checks unreliable
        problems.sort(key=lambda problem: problem[0])
        return [f"{'.'.join(map(str, path)) or '<root>'}: {message}"
                for path, message in problems], None

    checked = copy.deepcopy(spec)
    # JSON Schema accepts 2.0 as an integer, ``range`` does not
    for path in integral:
        holder = functools.reduce(operator.getitem, path[:-1], checked)
        holder[path[-1]] = int(holder[path[-1]])
    return _semantic_errors(checked), checked


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    # an int of any size is finite; math.isfinite overflows on a huge one
    return isinstance(value, numbers.Integral) or math.isfinite(value)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()),
}

_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


def _equal(a, b) -> bool:
    """jsonschema's equality for the scalar members of an enum or const:
    a bool equals only a bool, so True is not 1."""
    return a is b or isinstance(a, bool) == isinstance(b, bool) and a == b


def _schema_problems(schema: dict, value: Any, path: tuple, problems: list,
                     integral: list) -> None:
    """Append to ``problems`` the (path, message) of each way ``value`` at
    ``path`` breaks ``schema``, and to ``integral`` the path of each float
    it accepts as an integer.

    The keywords are the subset SCENARIO_SCHEMA uses, with the rules and
    messages of jsonschema's Draft 2020-12 validator: a bool is neither an
    integer nor a number, an integral float is an integer, only a list is
    an array and only a dict an object.  They are checked in the schema's
    order, as jsonschema yields them, so a stable sort by path gives its
    order."""
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                problems.append((path, f"{value!r} is not of type {arg!r}"))
            elif arg == "integer" and isinstance(value, float):
                integral.append(path)
        elif key == "enum":
            if not any(_equal(option, value) for option in arg):
                problems.append((path, f"{value!r} is not one of {arg!r}"))
            elif isinstance(value, float) and all(type(option) is int for option in arg):
                integral.append(path)
        elif key == "const":
            if not _equal(arg, value):
                problems.append((path, f"{arg!r} was expected"))
        elif key == "oneOf":
            valid = []
            for branch in arg:
                branch_problems, branch_integral = [], []
                _schema_problems(branch, value, path, branch_problems, branch_integral)
                if not branch_problems:
                    valid.append((branch, branch_integral))
            if not valid:
                problems.append((path, f"{value!r} is not valid under any of the given schemas"))
            elif len(valid) > 1:
                reprs = ", ".join(repr(branch) for branch, _ in valid[1:] + valid[:1])
                problems.append((path, f"{value!r} is valid under each of {reprs}"))
            else:
                integral += valid[0][1]
        elif key in _BOUNDS:
            beyond, words = _BOUNDS[key]
            if _is_number(value) and beyond(value, arg):
                problems.append((path, f"{value!r} is {words} {arg!r}"))
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                long = "is expected to be empty" if arg == 0 else "is too long"
                problems.append((path, f"{value!r} {long}"))
        elif key in ("minItems", "minLength"):
            if isinstance(value, list if key == "minItems" else str) and len(value) < arg:
                short = "should be non-empty" if arg == 1 else "is too short"
                problems.append((path, f"{value!r} {short}"))
        elif key == "items":
            if isinstance(value, list):
                for k, item in enumerate(value):
                    _schema_problems(arg, item, path + (k,), problems, integral)
        elif key == "required":
            if isinstance(value, dict):
                problems += [(path, f"{name!r} is a required property")
                             for name in arg if name not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        _schema_problems(sub, value[name], path + (name,), problems, integral)
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                known = schema.get("properties", {})
                extras = sorted(set(name for name in value if name not in known), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    problems.append(
                        (path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
        else:
            raise ValueError(f"schema keyword {key!r} is not checked")


def _check_expr(errors, path, holder, key, scalars, vectors=()):
    """Check ``holder[key]`` against the grammar; its checked tree replaces it."""
    try:
        holder[key] = Expression(holder[key], scalars=scalars, vectors=vectors).trees[0]
    except ExpressionError as exc:
        errors.append(f"{path}: {exc}")


def _component_errors(errors, path, exprs, dim, names):
    """Grammar check of a vector of expressions, and its length against
    ``dim`` when that is known: the evaluators broadcast whatever they get."""
    if dim and len(exprs) != dim:
        errors.append(f"{path}: expected {dim} components, got {len(exprs)}")
    for k in range(len(exprs)):
        _check_expr(errors, f"{path}.{k}", exprs, k, names)


def _chart_errors(errors, path, chart):
    dim = chart["dim"]
    if len(chart["extents"]) != dim:
        errors.append(f"{path}.extents: expected {dim} entries, got {len(chart['extents'])}")
    if len(chart["nodes"]) != dim:
        errors.append(f"{path}.nodes: expected {dim} entries, got {len(chart['nodes'])}")
    if math.prod(chart["nodes"]) > MAX_CHART_NODES:
        errors.append(f"{path}.nodes: more than MAX_CHART_NODES = {MAX_CHART_NODES} nodes")
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
        for k in range(len(spec["diag"])):
            _check_expr(errors, f"{path}.diag.{k}", spec["diag"], k, names)
    elif "matrix" in spec:
        rows = spec["matrix"]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            errors.append(f"{path}.matrix: expected a {dim}x{dim} array of expressions")
        for i, row in enumerate(rows):
            for j in range(len(row)):
                _check_expr(errors, f"{path}.matrix.{i}.{j}", row, j, names)
    else:
        errors.append(f"{path}: needs diag or matrix (or the string 'identity')")


def _nonfinite_errors(errors, path, value):
    """A message for each non-finite float in ``value`` and its entries."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            _nonfinite_errors(errors, f"{path}.{key}", item)
    elif isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: must be a finite number, got {value!r}")


def _semantic_errors(spec: dict) -> list[str]:
    errors: list[str] = []
    # JSON Schema's numbers include nan and inf; the tasks' own keys are
    # checked with the task
    for key, value in spec.items():
        if key != "tasks":
            _nonfinite_errors(errors, key, value)
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
        _check_expr(errors, "gl_space.sigma", gl, "sigma", g_names + gy_names,
                    vectors=("x", "y"))

    mp = spec.get("map")
    if mp:
        if n_dim and len(mp["components"]) != n_dim:
            errors.append(
                f"map.components: expected {n_dim} entries for the target dimension, "
                f"got {len(mp['components'])}")
        for k in range(len(mp["components"])):
            _check_expr(errors, f"map.components.{k}", mp["components"], k, a_names,
                        vectors=("a",))
        lj = mp.get("linear_jet")
        if lj is not None and m_dim and n_dim:
            if len(lj) != n_dim or any(len(row) != m_dim for row in lj):
                errors.append(f"map.linear_jet: expected a {n_dim}x{m_dim} numeric array")

    if "sigma" in spec:
        _check_expr(errors, "sigma", spec, "sigma",
                    a_names + [f"b{k + 1}" for k in range(m_dim or 0)], vectors=("a", "b"))
    if "tau" in spec:
        _check_expr(errors, "tau", spec, "tau",
                    x_names + [f"y{k + 1}" for k in range(n_dim or 0)], vectors=("x", "y"))

    system = spec.get("system")
    if system:
        kind = system["kind"]
        for key in SYSTEM_FIELDS[kind]:
            if key not in system:
                errors.append(f"system: kind {kind!r} requires {key!r}")
        if kind == "orbit" and m and m_dim != 1:
            errors.append("system: orbit systems need a one-dimensional source")
        if kind == "pfaff" and n_dim not in (None, 1):
            errors.append("system: Pfaff systems need a one-dimensional target")
        # the builders read a missing space as dimension 1
        for key, dim, names in (("xi", n_dim or 1, x_names), ("A", m_dim or 1, a_names)):
            if key in system:
                _component_errors(errors, f"system.{key}", system[key], dim, names)
        if "T" in system:
            # the builder reads T as an n x m array in a1..am and x1..xn,
            # with dimension 1 for a missing space
            rows, t_m, t_n = system["T"], m_dim or 1, n_dim or 1
            if len(rows) != t_n or any(len(row) != t_m for row in rows):
                errors.append(f"system.T: expected a {t_n}x{t_m} array of expressions")
            t_names = [f"a{k + 1}" for k in range(t_m)] + [f"x{k + 1}" for k in range(t_n)]
            for i, row in enumerate(rows):
                for j in range(len(row)):
                    _check_expr(errors, f"system.T.{i}.{j}", row, j, t_names)
        for r, gen in enumerate(system.get("generators", [])):
            _component_errors(errors, f"system.generators.{r}.xi", gen["xi"], n_dim or 1,
                              x_names)
            _component_errors(errors, f"system.generators.{r}.A", gen["A"], m_dim or 1,
                              a_names)

    conn = spec.get("connection")
    if conn:
        if conn["kind"] == "covector_fiber" and "A" not in conn:
            errors.append("connection: covector_fiber requires A")
        if conn["kind"] == "oneform_source" and "xi" not in conn:
            errors.append("connection: oneform_source requires xi")
        for key, dim, names in (("A", m_dim, a_names), ("xi", n_dim, x_names)):
            if key in conn:
                _component_errors(errors, f"connection.{key}", conn[key], dim, names)

    orbit = spec.get("orbit")
    if orbit:
        if n_dim and len(orbit["x0"]) != n_dim:
            errors.append(f"orbit.x0: expected {n_dim} components, got {len(orbit['x0'])}")
        times = (orbit["t0"], orbit["t1"], orbit.get("rk4_step", DEFAULT_RK4_STEP))
        if not all(map(_is_finite_real, times)):
            pass    # reported as non-finite above
        elif orbit["t1"] <= orbit["t0"]:
            errors.append("orbit: t1 must exceed t0")
        else:
            grid = interval_grid(orbit["t0"], orbit["t1"], orbit["nodes"])
            try:
                rk4_substeps(grid, orbit.get("rk4_step", DEFAULT_RK4_STEP))
            except StepLimitError as exc:
                errors.append(f"orbit.rk4_step: {exc}")

    samples = spec.get("samples")
    if samples and gl:
        for k, s in enumerate(samples):
            if len(s) != gl["dim"]:
                errors.append(f"samples.{k}: expected {gl['dim']} components, got {len(s)}")

    for t, task in enumerate(spec.get("tasks", [])):
        name = task.get("task")
        fields, needed, keys = _TASKS[name]
        for key, value in task.items():
            if key == "task":
                continue
            if key not in keys:
                errors.append(f"tasks.{t} ({name}): unknown key {key!r}")
            elif key in _TASK_FLAGS:
                if not isinstance(value, bool):
                    errors.append(f"tasks.{t} ({name}): {key} must be true or false, "
                                  f"got {value!r}")
            elif not _is_finite_real(value):
                errors.append(f"tasks.{t} ({name}): {key} must be a finite number, got {value!r}")
        for req in fields:
            if isinstance(req, tuple):
                if not any(all(key in spec for key in option) for option in req):
                    pretty = " or ".join(" and ".join(option) for option in req)
                    errors.append(f"tasks.{t} ({name}): scenario needs {pretty}")
            elif req not in spec:
                errors.append(f"tasks.{t} ({name}): scenario is missing required field {req!r}")
        # the runner's default: energy-momentum components when K is given
        if name == "einstein" and task.get("energy_momentum", "K" in spec):
            if "K" not in spec:
                errors.append(f"tasks.{t} (einstein): energy_momentum requires K")
            elif spec["K"] == 0:
                errors.append(f"tasks.{t} (einstein): energy_momentum requires a nonzero K")
        if needed and spec.get("system", {}).get("kind") != needed:
            errors.append(f"tasks.{t} ({name}): system.kind must be {needed!r}")
        if name == "pseudolinear" and n_dim not in (None, 1):
            errors.append(f"tasks.{t} (pseudolinear): the level-set check needs a "
                          f"one-dimensional target, n_space.dim is {n_dim}")
    return errors


def require_valid(spec: Any) -> dict:
    """The checked copy of a valid spec (see ``_checked``), whose trees the
    builders compile without parsing; ScenarioValidationError with every
    message of :func:`validate_scenario` otherwise."""
    errors, checked = _checked(spec)
    if errors:
        raise ScenarioValidationError(errors)
    return checked


# ---------------------------------------------------------------------------
# builders: declarative spec -> library objects
# ---------------------------------------------------------------------------


def build_grid(chart: dict, stencil_order: int) -> ChartGrid:
    return box_grid(chart["extents"], chart["nodes"], chart.get("periodic", False), stencil_order)


def metric_evaluator(spec_metric, dim: int, prefix: str) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized metric evaluator from 'identity', {'diag': ...} or
    {'matrix': ...} with expressions (sources or checked trees) in
    prefix1..prefixD; a matrix metric is symmetrized in its entries
    (``_metric_entries``)."""
    if spec_metric in (None, "identity"):
        return constant_metric(np.eye(dim))
    return _Outputs(_metric_entries(spec_metric, dim, prefix), ((prefix, dim),), (dim, dim))


def metric_gradient_evaluator(spec_metric, dim: int, prefix: str):
    """The exact partials of :func:`metric_evaluator`'s metric in its
    coordinates, ``grad(pts) -> (..., dim, dim, dim)`` with the derivative
    axis last: the derivatives of its entries, so a matrix metric's are
    those of the symmetrized entries."""
    if spec_metric in (None, "identity"):
        return lambda pts: np.zeros(pts.shape[:-1] + (dim, dim, dim))
    return gradient_evaluator(_metric_entries(spec_metric, dim, prefix), ((prefix, dim),),
                              prefix, (dim, dim))


def _metric_entries(spec_metric, dim: int, prefix: str) -> list:
    """The entries of a diag or matrix metric spec in row-major order.  A
    matrix spec's (i, j) and (j, i) entries are one tree, 0.5*(m_ij + m_ji)."""
    if "diag" in spec_metric:
        diag = spec_metric["diag"]
        return [diag[i] if i == j else ast.Constant(0) for i in range(dim) for j in range(dim)]
    m = Expression([src for row in spec_metric["matrix"] for src in row],
                   [f"{prefix}{k + 1}" for k in range(dim)]).trees
    sym = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            sym[i, j] = sym[j, i] = ast.BinOp(ast.Constant(0.5), ast.Mult(), ast.BinOp(
                m[i * dim + j], ast.Add(), m[j * dim + i]))
    return [sym.get((i, j), m[i * dim + j]) for i in range(dim) for j in range(dim)]


def system_matrix_evaluator(rows, m_dim: int, n_dim: int):
    """Vectorized T^i_a(a, x) of a general first-order system from rows of
    expressions in a1..am and x1..xn: ``T(a_pts, x_vals) -> (..., n, m)``."""
    return _Outputs([src for row in rows for src in row], (("a", m_dim), ("x", n_dim)),
                    (len(rows), len(rows[0])))


def covector_evaluator(exprs, dim: int, prefix: str):
    return _Outputs(exprs, ((prefix, dim),), (len(exprs),))


def scalar_evaluator_two_args(src, d1: int, p1: str, d2: int, p2: str):
    """Expression over two stacked arguments, e.g. sigma(x, y); a single
    point of the second broadcasts against the first."""
    return _Outputs([src], ((p1, d1), (p2, d2)), (), vectors=True)


def gradient_evaluator(sources, args, wrt: str, shape: tuple = (), vectors: bool = False):
    """The exact partials of a list of expressions (sources or checked
    trees) over the stacked arguments ``args`` in the components of the
    argument ``wrt``: ``grad(first[, second]) -> (..., *shape, dim)``, the
    sources making up ``shape`` in row-major order and the derivative axis
    last, as ``energy.central_partials`` lays it out.  Each partial is
    differentiated from the checked tree by ``expressions.derivative``,
    and the list is compiled into one function, as the sigma jet is."""
    names = [f"{p}{k + 1}" for p, dim in args for k in range(dim)]
    declared = [p for p, _ in args] if vectors else []
    trees = Expression(list(sources), names, declared).trees
    wrt_names = [f"{wrt}{k + 1}" for k in range(dict(args)[wrt])]
    # a tree listed twice is differentiated once, so its partials are shared
    partials = {id(tree): [derivative(tree, v, declared) for v in wrt_names] for tree in trees}
    return _Outputs([d for tree in trees for d in partials[id(tree)]],
                    args, tuple(shape) + (len(wrt_names),), vectors)


def sigma_jet_evaluator(src, dim: int):
    """The log factor sigma(x, y) of a conformal space with its exact fiber
    derivatives, for ``ConformalLagrangeSpace.sigma_jet``:
    ``jet(points, y) -> (sigma, sigma_y, sigma_yy)`` at one fiber vector,
    shapes (...), (..., n) and (..., n, n).

    The list [sigma, d sigma/dy^k, d^2 sigma/dy^j dy^k (j <= k)] is
    differentiated from the checked tree once and compiled into one
    function; y enters it as scalars, so y-only terms are evaluated once.
    A node where any entry of the jet is non-finite has no derivatives and
    gets NaN in every entry, as a fiber difference through it would."""
    args = (("x", dim), ("y", dim))
    vectors = ("x", "y")
    names = [f"{p}{k + 1}" for p, _ in args for k in range(dim)]
    sigma = Expression(src, names, vectors).trees[0]
    ys = names[dim:]
    first = [derivative(sigma, v, vectors) for v in ys]
    pairs = [(j, k) for j in range(dim) for k in range(j, dim)]
    second = [derivative(first[j], ys[k], vectors) for j, k in pairs]
    outputs = [sigma, *first, *second]
    value = _Outputs(outputs, args, (len(outputs),), vectors=True)

    first_slots = [[(k,)] for k in range(dim)]
    second_slots = [[(j, k), (k, j)] for j, k in pairs]

    def jet(points, y):
        points = np.asarray(points, float)
        cols = value.columns(points, np.asarray(y, float))
        lead = points.shape[:-1]
        s = np.broadcast_to(cols[0], lead)
        s_y = _node_block(cols[1:1 + dim], first_slots, lead, (dim,))
        s_yy = _node_block(cols[1 + dim:], second_slots, lead, (dim, dim))
        finite = functools.reduce(np.logical_and, map(np.isfinite, cols))
        if not np.all(finite):
            finite = np.broadcast_to(finite, lead)
            s = np.where(finite, s, np.nan)
            s_y = np.where(finite[..., None], s_y, np.nan)
            s_yy = np.where(finite[..., None, None], s_yy, np.nan)
        return s, s_y, s_yy

    return jet


def _node_block(cols, slots, lead: tuple, shape: tuple) -> np.ndarray:
    """A per-node block of ``shape`` with each column written at its slots.
    When every column is free of the grid (0-d), the block is the same at
    every node: one block, broadcast read-only over the nodes."""
    grid_free = all(np.ndim(col) == 0 for col in cols)
    out = np.empty(shape if grid_free else lead + shape)
    for col, where in zip(cols, slots):
        for index in where:
            out[(...,) + index] = col
    return np.broadcast_to(out, lead + shape) if grid_free else out


class _Outputs:
    """One compiled function for a list of expressions in the components
    of stacked coordinate arguments, ``args`` = ((prefix, dim), ...), and
    the array it fills: the outputs in row-major order make up a per-point
    block of ``shape``.  With ``vectors`` each prefix is also declared as a
    vector for dot.

    ``at_point`` is the one single-point entry: Python floats in, a tuple
    of Python floats out, by the float lowering.  Called on one point,
    every argument a 1-D float64 array of its dimension, the evaluator
    returns that tuple as an array of ``shape``; any other call takes the
    array path."""

    def __init__(self, sources, args, shape: tuple, vectors: bool = False):
        self.args = tuple(args)
        names = [f"{p}{k + 1}" for p, dim in self.args for k in range(dim)]
        self.expr = Expression(list(sources), scalars=names,
                               vectors=[p for p, _ in self.args] if vectors else ())
        self.vectors = vectors
        self.shape = shape
        self.size = math.prod(shape)
        self._point_shapes = tuple((dim,) for _, dim in self.args)

    def __call__(self, first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
        shapes = self._point_shapes
        if first.shape == shapes[0] and first.dtype is _FLOAT and (
                second is None or second.shape == shapes[1] and second.dtype is _FLOAT):
            values = first.tolist() if second is None else first.tolist() + second.tolist()
            return np.array(self.at_point(*values)).reshape(self.shape)
        lead = first.shape[:-1]
        out = np.zeros(lead + self.shape)
        flat = out.reshape(lead + (self.size,))
        for j, value in enumerate(self.columns(first, second)):
            flat[..., j] = value    # broadcasts constants
        return out

    def at_point(self, *values: float) -> tuple:
        """The outputs at one point, the arguments' components in order as
        Python floats, as a tuple of floats in row-major order.  Where the
        float lowering raises ZeroDivisionError, gives a non-finite value or
        does not exist (dot), it is the array path's result for the point."""
        form = self.expr.point_form
        if form is not None:
            try:
                outputs = form(*values)
                if all(map(math.isfinite, outputs)):
                    return outputs
            except ZeroDivisionError:
                pass
        split = self.args[0][1]
        batch = (np.array([values[:split]]), np.array([values[split:]]))[:len(self.args)]
        return tuple(self(*batch)[0].ravel().tolist())

    def columns(self, first: np.ndarray, second: np.ndarray | None = None) -> tuple:
        """The outputs on the array path, each as computed: an argument's
        components enter as they are given, and a constant stays a float."""
        arrays = (first,) if second is None else (first, second)
        env = {}
        for (prefix, _), a in zip(self.args, arrays):
            env.update(component_env(prefix, a))
            if self.vectors:
                env[prefix] = a
        return self.expr(env)


_FLOAT = np.dtype(float)


def sampled_metric(grid: ChartGrid, spec_metric, dim: int, prefix: str) -> MetricField:
    return sample_metric(grid, metric_evaluator(spec_metric, dim, prefix))


def build_map_values(spec_map: dict, grid: ChartGrid, n_dim: int):
    components = spec_map["components"]
    values = _Outputs(components, (("a", grid.dim),), (len(components),),
                      vectors=True)(grid.points())
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
