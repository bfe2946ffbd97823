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

- the array lowering, on the first evaluation: operators call the numpy
  ufuncs, literals are floats, pi and e are literals, and variables are
  lookups in an environment of arrays;
- the float lowering, on the first evaluation at a single point: the
  scalars are positional Python floats, ``+ - * /`` and unary minus stay
  Python operators, and exp, ln, sin, cos and abs call the numpy ufuncs
  (same values and warnings as on 0-d arrays) with the result converted
  to a float.  A list that uses dot has no float lowering.

An evaluator takes the float lowering when it is given one point (every
argument 1-D).  Where that raises ZeroDivisionError or gives a non-finite
value it returns the array path's result for the point instead, so the
values are bit-identical on both paths, and numpy's warnings for a
non-finite result are the array path's (a ufunc warning the float path
already gave is then given twice).  The one difference: an intermediate
overflow in ``+ - * /`` whose result still ends finite gives no overflow
warning on the float path.
"""

from __future__ import annotations

import ast
import functools
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
    **{fn.__name__: fn for fn in _UFUNCS.values()},
    "dot": _dot,
}

# Everything the float lowering can name; its variables are parameters p0,
# p1, ... in declaration order.
_POINT_NAMESPACE = {"__builtins__": {}, **FUNCTIONS, "float": float}


class ExpressionError(ValueError):
    """The expression uses something outside the grammar."""


class Expression:
    """One scenario expression, or a list of them, over named scalar/vector
    variables: validated on construction, compiled on first evaluation.

    Called with an environment of arrays, a single source gives its value
    and a list gives the tuple of its values.  ``point_form`` is the same
    list as a function of the scalars as positional Python floats."""

    def __init__(self, source: str | Sequence[str], scalars: Sequence[str],
                 vectors: Sequence[str] = ()):
        self.source = source
        self.scalars = tuple(scalars)
        self.vectors = tuple(vectors)
        sources = [source] if isinstance(source, str) else list(source)
        self._roots = [self._parse(src) for src in sources]
        self._compiled = None

    def _parse(self, source: str) -> ast.expr:
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from None
        self._check(tree.body, False, source)
        return tree.body

    def _check(self, node: ast.AST, vector_ok: bool, source: str) -> None:
        if isinstance(node, ast.BinOp) and type(node.op) in _UFUNCS:
            self._check(node.left, False, source)
            self._check(node.right, False, source)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            self._check(node.operand, False, source)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError(f"bad function call in {source!r}")
            name = node.func.id
            if name == "dot":
                if len(node.args) != 2:
                    raise ExpressionError("dot takes exactly two vector names")
                for arg in node.args:
                    self._check(arg, True, source)
                    if not (isinstance(arg, ast.Name) and arg.id in self.vectors):
                        raise ExpressionError(
                            f"dot arguments must be declared vectors {self.vectors}, "
                            f"got {ast.dump(arg)}")
            elif name in FUNCTIONS:
                if len(node.args) != 1:
                    raise ExpressionError(f"{name} takes exactly one argument")
                self._check(node.args[0], False, source)
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
                             lambda node: _lower_point(node, index), _POINT_NAMESPACE)

    def _compile(self, params: list[str], lower, namespace: dict):
        """One lambda of ``params`` returning the lowered expression, or
        the tuple of the lowered list."""
        body = [lower(root) for root in self._roots]
        if isinstance(self.source, str):
            body = body[0]
        else:
            body = ast.Tuple(body, ast.Load())
        args = ast.arguments(posonlyargs=[], args=[ast.arg(p) for p in params],
                             kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.Expression(ast.Lambda(args, body))
        code = compile(ast.fix_missing_locations(tree), "<expression>", "eval")
        return eval(code, namespace)


def _lower(node: ast.AST) -> ast.expr:
    """The validated tree as Python code with the semantics of the grammar:
    operators call the numpy ufuncs (a literal 1/0 gives inf, it does not
    raise), literals are floats, pi and e are literals that no variable
    shadows, and a variable is read as ``env[name]``."""
    if isinstance(node, ast.BinOp):
        return _call(_UFUNCS[type(node.op)].__name__, _lower(node.left), _lower(node.right))
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _lower(node.operand))
    if isinstance(node, ast.Call):
        if node.func.id == "dot":
            return _call("dot", *(_lookup(arg.id) for arg in node.args))
        return _call(node.func.id, _lower(node.args[0]))
    if isinstance(node, ast.Name):
        if node.id in CONSTANTS:
            return ast.Constant(CONSTANTS[node.id])
        return _lookup(node.id)
    return ast.Constant(float(node.value))


def _lower_point(node: ast.AST, index: Mapping[str, int]) -> ast.expr:
    """The validated tree (without dot) on Python floats: operators stay
    Python operators (a zero divisor raises ZeroDivisionError), each
    function calls its numpy ufunc and converts the result to a float, and
    a variable is the positional parameter ``p<k>`` of its declared index,
    which no function name shadows."""
    if isinstance(node, ast.BinOp):
        return ast.BinOp(_lower_point(node.left, index), node.op,
                         _lower_point(node.right, index))
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _lower_point(node.operand, index))
    if isinstance(node, ast.Call):
        return _call("float", _call(node.func.id, _lower_point(node.args[0], index)))
    if isinstance(node, ast.Name):
        if node.id in CONSTANTS:
            return ast.Constant(CONSTANTS[node.id])
        return ast.Name(f"p{index[node.id]}", ast.Load())
    return ast.Constant(float(node.value))


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _lookup(name: str) -> ast.Subscript:
    return ast.Subscript(ast.Name("env", ast.Load()), ast.Constant(name), ast.Load())


def component_env(prefix: str, values: np.ndarray) -> dict:
    """Name the components of a stacked coordinate array: prefix1, prefix2, ..."""
    return {f"{prefix}{k + 1}": values[..., k] for k in range(values.shape[-1])}
