"""No library module other than the package ``__init__`` imports a name it
never reads, and no library module defines a module-level private name
(``_x``) it never reads: a name left behind when its last use goes fails
here."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "glharmonic"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def _unread_private_names(source: str) -> list[str]:
    """Module-level ``_x`` functions, classes and assignments that the
    module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports((SRC / path).read_text()) == []


@pytest.mark.parametrize("path", MODULES)
def test_module_reads_every_private_name_it_defines(path):
    assert _unread_private_names((SRC / path).read_text()) == []


def test_the_guard_sees_an_unused_name():
    source = "from .tensor_core import LO, TensorField\n\nTensorField(1, 2)\n"
    assert _unused_imports(source) == ["line 1: LO"]


def test_the_guard_sees_a_left_behind_helper():
    # a helper whose last caller went, and a table read only by that helper
    source = (
        "_ZERO = 0.0\n_SCALE = 2.0\n\n\n"
        "def _old_helper(x):\n    return _SCALE * x\n\n\n"
        "def _kept(x):\n    return x + _ZERO\n\n\n"
        "def public(x):\n    return _kept(x)\n"
    )
    assert _unread_private_names(source) == ["line 5: _old_helper"]
