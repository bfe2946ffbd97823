import ast
import builtins
import importlib.util
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.expressions import (
    CONSTANTS,
    FUNCTIONS,
    Expression,
    ExpressionError,
    component_env,
)
from glharmonic.scenarios import covector_evaluator


def test_arithmetic_and_functions():
    e = Expression("exp(2*x1) + sin(x2) - 3/(1 + abs(x1))", scalars=["x1", "x2"])
    env = {"x1": np.array([0.0, 1.0]), "x2": np.array([np.pi / 2, 0.0])}
    out = e(env)
    assert out[0] == pytest.approx(1.0 + 1.0 - 3.0)
    assert out[1] == pytest.approx(np.exp(2) + 0.0 - 1.5)


def test_ln_alias_and_constants():
    e = Expression("ln(e) + cos(pi)", scalars=[])
    assert e({}) == pytest.approx(0.0)


def test_unary_minus():
    e = Expression("-x1 + -(2)", scalars=["x1"])
    assert e({"x1": 3.0}) == pytest.approx(-5.0)


def test_dot_of_declared_vectors():
    e = Expression("ln(abs(dot(x, y)))", scalars=[], vectors=["x", "y"])
    env = {"x": np.array([[1.0, 2.0]]), "y": np.array([[3.0, 0.5]])}
    assert e(env)[0] == pytest.approx(np.log(4.0))


def test_vectorized_over_grids():
    e = Expression("x1*x2", scalars=["x1", "x2"])
    pts = np.random.default_rng(0).normal(size=(4, 5, 2))
    out = e(component_env("x", pts))
    assert out.shape == (4, 5)
    assert np.allclose(out, pts[..., 0] * pts[..., 1])


OUTSIDE_GRAMMAR = [
    "__import__('os')",
    "x1 ** 2",
    "lambda: 1",
    "x1.real",
    "[1, 2]",
    "unknown_fn(x1)",
    "zzz + 1",
    "dot(x1, x1)",
    "x",               # bare vector outside dot
    "'str'",
    "1 if x1 else 2",
]


@pytest.mark.parametrize("bad", OUTSIDE_GRAMMAR)
def test_rejects_outside_grammar(bad):
    with pytest.raises(ExpressionError):
        Expression(bad, scalars=["x1"], vectors=["x"])


def test_grammar_is_checked_before_anything_is_compiled(monkeypatch):
    # ast.parse compiles to a tree only; any compile to code must come after
    # the grammar check, on the first evaluation
    real_compile = builtins.compile

    def no_code(source, filename, mode, flags=0, *args, **kwargs):
        if not flags & ast.PyCF_ONLY_AST:
            raise AssertionError("compiled to code")
        return real_compile(source, filename, mode, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", no_code)
    for bad in OUTSIDE_GRAMMAR:
        with pytest.raises(ExpressionError):
            Expression(bad, scalars=["x1"], vectors=["x"])
    ok = Expression("x1 + 1", scalars=["x1"])
    with pytest.raises(AssertionError, match="to code"):
        ok({"x1": 1.0})


def test_call_is_defined_on_the_class():
    # the one entry point of every evaluation, rebound by span tracers
    assert "__call__" in Expression.__dict__


def test_component_env_names():
    env = component_env("a", np.zeros((3, 2)))
    assert set(env) == {"a1", "a2"}


# ---------------------------------------------------------------------------
# the compiled evaluation against the tree walker it replaced
# ---------------------------------------------------------------------------

_UFUNCS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}


def _walk(node, env):
    """Reference: evaluate a validated tree node by node."""
    if isinstance(node, ast.BinOp):
        return _UFUNCS[type(node.op)](_walk(node.left, env), _walk(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = _walk(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else +val
    if isinstance(node, ast.Call):
        name = node.func.id
        if name == "dot":
            u = env[node.args[0].id]
            v = env[node.args[1].id]
            return np.einsum("...k,...k->...", np.asarray(u, float), np.asarray(v, float))
        return FUNCTIONS[name](_walk(node.args[0], env))
    if isinstance(node, ast.Name):
        if node.id in CONSTANTS:
            return CONSTANTS[node.id]
        return env[node.id]
    if isinstance(node, ast.Constant):
        return float(node.value)
    raise AssertionError("unreachable: node was validated")


def _assert_same(got, ref):
    assert type(got) is type(ref)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


# declared pi and e must not shadow the constants; variables named like a
# function or a ufunc are read from env and do not shadow it either
_SCALARS = ["x1", "x2", "pi", "e", "abs", "add"]
_literals = st.one_of(st.integers(0, 10**20).map(str),
                      st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(repr))
_leaves = st.one_of(_literals, st.sampled_from(
    ["x1", "x2", "pi", "e", "abs", "add", "dot(u, v)", "dot(v, v)"]))


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from("-+"), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


_sources = st.recursive(_leaves, _extend, max_leaves=12)


def _env(lead_shape, seed):
    r = np.random.default_rng(seed)
    env = component_env("x", r.normal(size=lead_shape + (2,)))
    env.update(u=r.normal(size=lead_shape + (3,)), v=r.normal(size=lead_shape + (3,)),
               pi=7.0, e=-3.0, abs=r.normal(size=lead_shape), add=0.25)
    return env


@settings(max_examples=200, deadline=None, database=None)
@given(source=_sources, lead_shape=st.sampled_from([(), (5,), (3, 4)]),
       seed=st.integers(0, 2**32 - 1))
def test_compiled_matches_tree_walker(source, lead_shape, seed):
    expr = Expression(source, scalars=_SCALARS, vectors=["u", "v"])
    env = _env(lead_shape, seed)
    with np.errstate(all="ignore"):
        _assert_same(expr(env), _walk(ast.parse(source, mode="eval").body, env))


@pytest.mark.parametrize("source, expected", [
    ("1/0", np.inf), ("-1/0", -np.inf), ("0/0", np.nan), ("ln(0)", -np.inf),
    ("1/(1 - 1)", np.inf), ("e", np.e), ("pi", np.pi), ("-(2)", -2.0)])
def test_literal_only_expressions(source, expected):
    # ufunc semantics, not Python's: no ZeroDivisionError, and declared
    # scalars named pi or e do not shadow the constants
    expr = Expression(source, scalars=_SCALARS)
    env = _env((), 0)
    with np.errstate(all="ignore"):
        got = expr(env)
        _assert_same(got, _walk(ast.parse(source, mode="eval").body, env))
    assert np.array_equal(got, expected, equal_nan=True)


def test_declared_e_is_the_constant():
    assert Expression("e", scalars=["e"])({"e": 5.0}) == np.e


# ---------------------------------------------------------------------------
# the float lowering of one point against the array path
# ---------------------------------------------------------------------------

_point_leaves = st.one_of(_literals, st.sampled_from(["x1", "x2", "x3", "pi", "e", "0"]))
_point_sources = st.recursive(_point_leaves, _extend, max_leaves=10)
_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-4.0, 4.0))


def _warning_messages(evaluate):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = evaluate()
    return value, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


@settings(max_examples=300, deadline=None, database=None)
@given(sources=st.lists(_point_sources, min_size=1, max_size=4),
       point=st.lists(_coordinates, min_size=3, max_size=3))
def test_float_lowering_matches_array_path(sources, point):
    # zero divisors, inf and nan fall back to the array path; where the
    # output is finite the float path must give the same bits
    ev = covector_evaluator(sources, 3, "x")
    pts = np.array(point)
    got, got_warnings = _warning_messages(lambda: ev(pts))
    ref, ref_warnings = _warning_messages(lambda: ev(pts[None])[0])
    _assert_same(got, ref)
    if not np.all(np.isfinite(ref)):
        assert got_warnings == ref_warnings


# ---------------------------------------------------------------------------
# symbolic derivatives: folding, conventions, and sympy as the oracle
# ---------------------------------------------------------------------------

from glharmonic.expressions import derivative  # noqa: E402
from glharmonic.scenarios import sigma_jet_evaluator  # noqa: E402

_XY = ["x1", "x2", "x3", "y1", "y2", "y3"]


def _d(source, name):
    tree = Expression(source, scalars=_XY, vectors=["x", "y"]).trees[0]
    return derivative(tree, name, ["x", "y"])


@pytest.mark.parametrize("source", ["0", "3.5*sin(x1) + x2", "exp(dot(x, x))"])
def test_derivative_of_a_variable_free_term_folds_to_zero(source):
    assert ast.unparse(_d(source, "y2")) == "0.0"


@pytest.mark.parametrize("source, name, expected", [
    ("0.2*sin(x1) * (1 + 0.3*y1)", "y1", "0.2 * sin(x1) * 0.3"),
    ("dot(x, y)", "y2", "x2"),
    ("dot(y, x)", "y3", "x3"),
    ("dot(y, y)", "y1", "2.0 * y1"),
    ("abs(y1)", "y1", "sign(y1)"),
    ("ln(y1) + y2", "y1", "1.0 / y1"),
    ("-y1", "y1", "-1.0"),
])
def test_derivative_rules_and_folding(source, name, expected):
    assert ast.unparse(_d(source, name)) == expected


def test_sign_is_only_in_derivative_trees():
    with pytest.raises(ExpressionError):
        Expression("sign(x1)", scalars=["x1"])
    # the derivative of abs at its kink is sign(0) = 0, the central difference
    tree = _d("abs(y1 - x1)", "y1")
    assert Expression(tree, scalars=_XY)({"x1": 0.5, "y1": 0.5}) == 0.0


def test_shared_subtrees_are_bound_once():
    # derivative trees share subtrees of their source: the compiled list
    # binds each shared subtree to a local once, with the values of the
    # same list without sharing
    tree = Expression("exp(sin(x1) * y1)", scalars=_XY).trees[0]
    first = derivative(tree, "y1")
    trees = [tree, first, derivative(first, "y1")]
    env = {"x1": np.array([0.3, 1.2]), "y1": np.array([0.7, -0.4])}
    shared = Expression(trees, scalars=_XY)
    unshared = Expression([ast.unparse(t) for t in trees], scalars=_XY)
    for got, want in zip(shared(env), unshared(env)):
        _assert_same(got, want)
    assert shared._compiled.__code__.co_nlocals > unshared._compiled.__code__.co_nlocals == 1
    point = shared.point_form(0.3, 0.0, 0.0, 0.7, 0.0, 0.0)
    assert point == unshared.point_form(0.3, 0.0, 0.0, 0.7, 0.0, 0.0)


def _sympy_strategy():
    import sympy

    symbols = {name: sympy.Symbol(name, real=True) for name in _XY}
    x = [symbols[f"x{k}"] for k in (1, 2, 3)]
    y = [symbols[f"y{k}"] for k in (1, 2, 3)]
    literal = st.floats(0.1, 2.0).map(lambda v: (repr(v), sympy.Float(v, 17)))
    leaves = st.one_of(
        literal,
        st.sampled_from([(name, symbols[name]) for name in _XY]),
        st.just(("dot(x, y)", sum(a * b for a, b in zip(x, y)))),
        st.just(("dot(y, y)", sum(b * b for b in y))),
    )

    def extend(inner):
        def binary(t):
            (a, sa), op, (b, sb) = t
            if op == "/":
                # a positive denominator
                return f"({a}) / (1.5 + cos({b}))", sa / (sympy.Rational(3, 2) + sympy.cos(sb))
            return f"({a}) {op} ({b})", {"+": sa + sb, "-": sa - sb, "*": sa * sb}[op]

        unary = {
            "-": lambda a, sa: (f"-({a})", -sa),
            "exp": lambda a, sa: (f"exp(sin({a}))", sympy.exp(sympy.sin(sa))),
            "ln": lambda a, sa: (f"ln(1 + ({a})*({a}))", sympy.log(1 + sa * sa)),
            "sin": lambda a, sa: (f"sin({a})", sympy.sin(sa)),
            "cos": lambda a, sa: (f"cos({a})", sympy.cos(sa)),
            # sqrt(u^2): sympy cannot always prove u real, and then leaves
            # the derivative of Abs(u) unevaluated
            "abs": lambda a, sa: (f"abs({a})", sympy.sqrt(sa * sa)),
        }
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(binary),
            st.tuples(st.sampled_from(sorted(unary)), inner).map(
                lambda t: unary[t[0]](*t[1])),
        )

    return sympy, symbols, st.recursive(leaves, extend, max_leaves=8)


_SYMPY = _sympy_strategy() if importlib.util.find_spec("sympy") else None


@pytest.mark.skipif(_SYMPY is None, reason="sympy is the oracle")
@settings(max_examples=60, deadline=None, database=None)
@given(pair=_SYMPY[2] if _SYMPY else st.nothing(),
       seed=st.integers(0, 2**32 - 1))
def test_fiber_jet_matches_sympy(pair, seed):
    sympy, symbols, _ = _SYMPY
    source, expr = pair
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.5, 1.5, size=(4, 3))
    y = rng.uniform(-1.5, 1.5, size=3)
    with np.errstate(all="ignore"):
        s, s_y, s_yy = sigma_jet_evaluator(source, 3)(points, y)
    args = [symbols[name] for name in _XY]
    ys = [symbols[f"y{k}"] for k in (1, 2, 3)]
    first = [sympy.diff(expr, v) for v in ys]
    pairs = [(j, k) for j in range(3) for k in range(j, 3)]
    oracle = [expr, *first, *(sympy.diff(first[j], ys[k]) for j, k in pairs)]
    oracle = [e.replace(sympy.DiracDelta, lambda *a: sympy.Integer(0)) for e in oracle]
    values = sympy.lambdify(args, oracle, modules="numpy")(*points.T, *np.tile(y, (4, 1)).T)
    want = [np.broadcast_to(v, (4,)) for v in values]
    got = [s, *(s_y[:, k] for k in range(3)), *(s_yy[:, j, k] for j, k in pairs)]
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-10 * np.maximum(1.0, np.abs(w))), (source, g, w)
    assert np.array_equal(s_yy, np.swapaxes(s_yy, -1, -2))
