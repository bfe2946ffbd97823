"""A small arithmetic expression grammar for scenario files.

Supported: + - * /, unary minus, parentheses, exp, ln (alias log), sin,
cos, abs, dot(u, v) on declared vector names, numeric literals, pi and e,
and declared variable names.  Nothing else parses: scenario files cannot
execute code.

An expression, or a list of them, is validated against the grammar when
it is constructed.  A list compiles to one function returning the tuple of
its values; each scenario evaluator (``scenarios``) holds one such list.
There are two lowerings, each compiled once, into a namespace without
builtins that holds only the grammar's functions:

- the array lowering, on the first evaluation, which a scenario
  evaluator calls on one point as on many: operators call the numpy
  ufuncs, literals are floats, pi and e are literals, and variables are
  lookups in an environment of arrays;
- the float lowering, on the first read of ``point_form``, which only the
  RK4 orbit reads: the scalars are positional Python floats, ``+ - *`` and
  unary minus stay Python operators, ``/`` is Python's but numpy's at a
  zero divisor (±inf or nan), and exp, ln, sin, cos and abs call the
  numpy ufuncs (same values and warnings as on 0-d arrays) with the
  result converted to a float.  It never raises and gives the array
  lowering's bits up to the sign and payload of a nan, but an overflow in
  ``+ - * /`` gives no numpy warning.  A list that uses dot has none.

:func:`derivative` differentiates a checked tree symbolically (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 2): the sum,
product and quotient rules for ``+ - * /`` and unary minus, the chain rule
through exp, ln, sin and cos, ``abs(u)' = sign(u) u'`` and
``dot(u, v)' = `` the other vector's component (so ``dot(y, y)`` gives
``2 y_k``).  Constants are folded as the result is built, so a term free of
the variable collapses to 0.  ``sign`` exists only in derivative trees, not
in the scenario grammar: it is numpy's, with sign(0) = 0, which is the
central difference of abs at its kink; the derivative itself is undefined
at u = 0.  A list of sources and derivative trees compiles like any
expression.
"""

from __future__ import annotations

import ast
import functools
import operator
from typing import Mapping, Sequence

import numpy as np

FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
}

CONSTANTS = {"pi": np.pi, "e": np.e}

# Functions that only derivative trees contain; a source cannot name them.
DERIVED_FUNCTIONS = {"sign": np.sign}
_TREE_FUNCTIONS = {**FUNCTIONS, **DERIVED_FUNCTIONS}

_UFUNCS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


def _dot(u, v):
    return np.einsum("...k,...k->...", np.asarray(u, float), np.asarray(v, float))


# Everything compiled code can name.  Variables are read as env["x1"], so
# no variable can shadow a function.
_NAMESPACE = {
    "__builtins__": {},
    **FUNCTIONS,
    **DERIVED_FUNCTIONS,
    **{fn.__name__: fn for fn in _UFUNCS.values()},
    "dot": _dot,
}


def _float_divide(a, b):
    """a / b on floats, numpy's ±inf or nan (and warning) at a zero divisor."""
    return a / b if b else float(np.divide(a, b))


# Everything the float lowering can name; its variables are parameters p0,
# p1, ... in declaration order.
_POINT_NAMESPACE = {"__builtins__": {}, **FUNCTIONS, **DERIVED_FUNCTIONS, "float": float,
                    "divide": _float_divide}


class ExpressionError(ValueError):
    """The expression uses something outside the grammar."""


class Expression:
    """One scenario expression, or a list of them, over named scalar/vector
    variables: validated on construction, compiled on first evaluation.

    A source is a string, or a tree from :func:`derivative`; a tree is
    checked against the grammar too, where it may also call sign.  Called
    with an environment of arrays, a single source gives its value and a
    list gives the tuple of its values.  ``point_form`` is the same list as
    a function of the scalars as positional Python floats."""

    def __init__(self, source: str | ast.expr | Sequence[str | ast.expr],
                 scalars: Sequence[str], vectors: Sequence[str] = ()):
        self.scalars = tuple(scalars)
        self.vectors = tuple(vectors)
        self._single = isinstance(source, (str, ast.expr))
        sources = [source] if self._single else list(source)
        self._roots = [self._parse(src) for src in sources]
        self._compiled = None

    @property
    def trees(self) -> tuple[ast.expr, ...]:
        """The checked tree of each source, in order."""
        return tuple(self._roots)

    def _parse(self, source: str | ast.expr) -> ast.expr:
        if isinstance(source, ast.expr):
            self._check(source, False, "<derivative tree>", _TREE_FUNCTIONS)
            return source
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from None
        self._check(tree.body, False, source, FUNCTIONS)
        return tree.body

    def _check(self, node: ast.AST, vector_ok: bool, source: str,
               functions: Mapping) -> None:
        if isinstance(node, ast.BinOp) and type(node.op) in _UFUNCS:
            self._check(node.left, False, source, functions)
            self._check(node.right, False, source, functions)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            self._check(node.operand, False, source, functions)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError(f"bad function call in {source!r}")
            name = node.func.id
            if name == "dot":
                if len(node.args) != 2:
                    raise ExpressionError("dot takes exactly two vector names")
                for arg in node.args:
                    self._check(arg, True, source, functions)
                    if not (isinstance(arg, ast.Name) and arg.id in self.vectors):
                        raise ExpressionError(
                            f"dot arguments must be declared vectors {self.vectors}, "
                            f"got {ast.dump(arg)}")
            elif name in functions:
                if len(node.args) != 1:
                    raise ExpressionError(f"{name} takes exactly one argument")
                self._check(node.args[0], False, source, functions)
            else:
                raise ExpressionError(
                    f"unknown function {name!r}; allowed: {sorted(FUNCTIONS)} and dot")
        elif isinstance(node, ast.Name):
            if node.id in self.vectors:
                if not vector_ok:
                    raise ExpressionError(
                        f"vector {node.id!r} can only appear inside dot(...)")
            elif node.id not in self.scalars and node.id not in CONSTANTS:
                raise ExpressionError(
                    f"unknown name {node.id!r}; scalars: {sorted(self.scalars)}, "
                    f"vectors: {sorted(self.vectors)}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"literal {node.value!r} is not a number")
        else:
            raise ExpressionError(
                f"construct {type(node).__name__} is outside the expression grammar")

    def __call__(self, env: Mapping[str, np.ndarray]):
        if self._compiled is None:
            self._compiled = self._compile(["env"], _lower, _NAMESPACE)
        return self._compiled(env)

    @functools.cached_property
    def point_form(self):
        """The float lowering, compiled on first use: the values at one
        point, given the scalars in declaration order as Python floats.
        None when the expressions use dot."""
        if any(isinstance(node, ast.Call) and node.func.id == "dot"
               for root in self._roots for node in ast.walk(root)):
            return None
        index = {name: k for k, name in enumerate(self.scalars)}
        return self._compile([f"p{k}" for k in range(len(self.scalars))],
                             lambda node, lower: _lower_point(node, lower, index),
                             _POINT_NAMESPACE)

    def _compile(self, params: list[str], lower, namespace: dict):
        """One lambda of ``params`` returning the lowered expression, or
        the tuple of the lowered list.  A subtree object the list reaches
        more than once (derivative trees share them) is lowered once, bound
        to a local name by ``:=`` where it is first evaluated and read
        from that name afterwards."""
        shared = _shared_subtrees(self._roots)
        names: dict[int, str] = {}

        def lower_once(node: ast.expr) -> ast.expr:
            if id(node) in names:
                return _name(names[id(node)])
            out = lower(node, lower_once)
            if id(node) in shared:
                names[id(node)] = f"_t{len(names)}"
                return ast.NamedExpr(_name(names[id(node)], ast.Store()), out, **_LOC)
            return out

        body = [lower_once(root) for root in self._roots]
        if self._single:
            body = body[0]
        else:
            body = ast.Tuple(body, ast.Load(), **_LOC)
        args = ast.arguments(posonlyargs=[], args=[ast.arg(p, **_LOC) for p in params],
                             kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.Expression(ast.Lambda(args, body, **_LOC))
        return eval(compile(tree, "<expression>", "eval"), namespace)


def _shared_subtrees(roots: Sequence[ast.expr]) -> set[int]:
    """ids of the operator and call nodes reached more than once from
    ``roots``."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)):
            continue
        if id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            stack.extend(ast.iter_child_nodes(node))
    return shared


# Every lowered node sits at line 1, column 0: the code is never shown.
_LOC = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _lower(node: ast.AST, lower) -> ast.expr:
    """The validated tree as Python code with the semantics of the grammar,
    its subtrees lowered by ``lower``: operators call the numpy ufuncs (a
    literal 1/0 gives inf, it does not raise), literals are floats, pi and
    e are literals that no variable shadows, and a variable is read as
    ``env[name]``."""
    if isinstance(node, ast.BinOp):
        return _call(_UFUNCS[type(node.op)].__name__, lower(node.left), lower(node.right))
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, lower(node.operand), **_LOC)
    if isinstance(node, ast.Call):
        if node.func.id == "dot":
            return _call("dot", *(_lookup(arg.id) for arg in node.args))
        return _call(node.func.id, lower(node.args[0]))
    if isinstance(node, ast.Name):
        if node.id in CONSTANTS:
            return ast.Constant(CONSTANTS[node.id], **_LOC)
        return _lookup(node.id)
    return ast.Constant(float(node.value), **_LOC)


def _lower_point(node: ast.AST, lower, index: Mapping[str, int]) -> ast.expr:
    """The validated tree (without dot) on Python floats, its subtrees
    lowered by ``lower``: ``+ - *`` stay Python operators, ``/`` calls
    :func:`_float_divide` (numpy's value at a zero divisor), each function
    calls its numpy ufunc and converts the result to a float, and a
    variable is the positional parameter ``p<k>`` of its declared index,
    which no function name shadows."""
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return _call("divide", lower(node.left), lower(node.right))
        return ast.BinOp(lower(node.left), node.op, lower(node.right), **_LOC)
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, lower(node.operand), **_LOC)
    if isinstance(node, ast.Call):
        return _call("float", _call(node.func.id, lower(node.args[0])))
    if isinstance(node, ast.Name):
        if node.id in CONSTANTS:
            return ast.Constant(CONSTANTS[node.id], **_LOC)
        return _name(f"p{index[node.id]}")
    return ast.Constant(float(node.value), **_LOC)


def _name(name: str, ctx: ast.expr_context | None = None) -> ast.Name:
    return ast.Name(name, ctx or ast.Load(), **_LOC)


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(_name(name), list(args), [], **_LOC)


def _lookup(name: str) -> ast.Subscript:
    return ast.Subscript(_name("env"), ast.Constant(name, **_LOC), ast.Load(), **_LOC)


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------


def derivative(node: ast.expr, name: str, vectors: Sequence[str] = ()) -> ast.expr:
    """The partial derivative of a checked tree in the scalar ``name``, as a
    new tree with constants folded; it shares subtrees with ``node``.

    A vector ``p`` listed in ``vectors`` has the scalars ``p1, p2, ...`` as
    its components (the naming of :func:`component_env`), so in ``y2``
    ``dot(x, y)`` has the derivative ``x2`` and ``dot(y, y)`` has ``2*y2``.
    ``abs(u)`` gives ``sign(u)*u'``, and sign has the derivative 0."""
    owner = suffix = None
    for prefix in vectors:
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            owner, suffix = prefix, name[len(prefix):]

    def d(node: ast.expr) -> ast.expr:
        if isinstance(node, ast.BinOp):
            u, v = node.left, node.right
            du, dv = d(u), d(v)
            if isinstance(node.op, ast.Add):
                return _add(du, dv)
            if isinstance(node.op, ast.Sub):
                return _sub(du, dv)
            if isinstance(node.op, ast.Mult):
                return _add(_mul(du, v), _mul(u, dv))
            return _sub(_div(du, v), _div(_mul(u, dv), _mul(v, v)))
        if isinstance(node, ast.UnaryOp):
            du = d(node.operand)
            return _neg(du) if isinstance(node.op, ast.USub) else du
        if isinstance(node, ast.Call):
            fn = node.func.id
            if fn == "dot":
                u, v = (arg.id for arg in node.args)
                if u == v == owner:
                    return _mul(ast.Constant(2.0), ast.Name(name, ast.Load()))
                terms = [ast.Name(other + suffix, ast.Load())
                         for this, other in ((u, v), (v, u)) if this == owner]
                return terms[0] if terms else _ZERO
            u = node.args[0]
            du = d(u)
            if fn == "exp":
                return _mul(du, node)
            if fn in ("ln", "log"):
                return _div(du, u)
            if fn == "sin":
                return _mul(du, _call("cos", u))
            if fn == "cos":
                return _neg(_mul(du, _call("sin", u)))
            if fn == "abs":
                return _mul(du, _call("sign", u))
            return _ZERO                                   # sign
        if isinstance(node, ast.Name):
            is_variable = node.id == name and name not in CONSTANTS
            return ast.Constant(1.0) if is_variable else _ZERO
        return _ZERO

    return d(node)


_ZERO = ast.Constant(0.0)
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv}


def _value(node: ast.expr) -> float | None:
    return float(node.value) if isinstance(node, ast.Constant) else None


def _binop(a: ast.expr, op: ast.operator, b: ast.expr) -> ast.expr:
    """a op b, folded to its value when both are constants (a zero divisor
    is left to numpy)."""
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None and not (isinstance(op, ast.Div) and vb == 0.0):
        return ast.Constant(_FOLD[type(op)](va, vb))
    return ast.BinOp(a, op, b)


def _add(a: ast.expr, b: ast.expr) -> ast.expr:
    return b if _value(a) == 0.0 else a if _value(b) == 0.0 else _binop(a, ast.Add(), b)


def _sub(a: ast.expr, b: ast.expr) -> ast.expr:
    return a if _value(b) == 0.0 else _neg(b) if _value(a) == 0.0 else _binop(a, ast.Sub(), b)


def _mul(a: ast.expr, b: ast.expr) -> ast.expr:
    if 0.0 in (_value(a), _value(b)):
        return _ZERO
    return b if _value(a) == 1.0 else a if _value(b) == 1.0 else _binop(a, ast.Mult(), b)


def _div(a: ast.expr, b: ast.expr) -> ast.expr:
    return _ZERO if _value(a) == 0.0 else a if _value(b) == 1.0 else _binop(a, ast.Div(), b)


def _neg(a: ast.expr) -> ast.expr:
    va = _value(a)
    if va is not None:
        return ast.Constant(-va)
    if isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub):
        return a.operand
    return ast.UnaryOp(ast.USub(), a)


def component_env(prefix: str, values: np.ndarray) -> dict:
    """Name the components of a stacked coordinate array: prefix1, prefix2, ..."""
    return {f"{prefix}{k + 1}": values[..., k] for k in range(values.shape[-1])}
