"""A small arithmetic expression grammar for scenario files.

Supported: + - * /, unary minus, parentheses, exp, ln (alias log), sin,
cos, abs, dot(u, v) on declared vector names, numeric literals, pi and e,
and declared variable names.  Nothing else parses: scenario files cannot
execute code.

An expression is validated against the grammar when it is constructed.
On its first evaluation the validated tree is lowered (operators to the
numpy ufuncs, literals to floats, pi and e to literals, variables to
lookups in the evaluation environment) and compiled once, into a
namespace without builtins that holds only the grammar's functions.
"""

from __future__ import annotations

import ast
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


class ExpressionError(ValueError):
    """The expression uses something outside the grammar."""


class Expression:
    """A scenario expression over named scalar/vector variables, validated
    on construction and compiled on its first evaluation."""

    def __init__(self, source: str, scalars: Sequence[str], vectors: Sequence[str] = ()):
        self.source = source
        self.scalars = tuple(scalars)
        self.vectors = tuple(vectors)
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from None
        self._root = tree.body
        self._check(self._root, vector_ok=False)
        self._compiled = None

    def _check(self, node: ast.AST, vector_ok: bool) -> None:
        if isinstance(node, ast.BinOp) and type(node.op) in _UFUNCS:
            self._check(node.left, False)
            self._check(node.right, False)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            self._check(node.operand, False)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError(f"bad function call in {self.source!r}")
            name = node.func.id
            if name == "dot":
                if len(node.args) != 2:
                    raise ExpressionError("dot takes exactly two vector names")
                for arg in node.args:
                    self._check(arg, vector_ok=True)
                    if not (isinstance(arg, ast.Name) and arg.id in self.vectors):
                        raise ExpressionError(
                            f"dot arguments must be declared vectors {self.vectors}, "
                            f"got {ast.dump(arg)}")
            elif name in FUNCTIONS:
                if len(node.args) != 1:
                    raise ExpressionError(f"{name} takes exactly one argument")
                self._check(node.args[0], False)
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

    def __call__(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if self._compiled is None:
            params = ast.arguments(posonlyargs=[], args=[ast.arg("env")], kwonlyargs=[],
                                   kw_defaults=[], defaults=[])
            tree = ast.Expression(ast.Lambda(params, _lower(self._root)))
            code = compile(ast.fix_missing_locations(tree), "<expression>", "eval")
            self._compiled = eval(code, _NAMESPACE)
        return self._compiled(env)


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


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _lookup(name: str) -> ast.Subscript:
    return ast.Subscript(ast.Name("env", ast.Load()), ast.Constant(name), ast.Load())


def component_env(prefix: str, values: np.ndarray) -> dict:
    """Name the components of a stacked coordinate array: prefix1, prefix2, ..."""
    return {f"{prefix}{k + 1}": values[..., k] for k in range(values.shape[-1])}
