"""No library module other than the package ``__init__`` imports a name it
never reads: a name left behind when its last use goes fails here."""

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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports((SRC / path).read_text()) == []


def test_the_guard_sees_an_unused_name():
    source = "from .tensor_core import LO, TensorField\n\nTensorField(1, 2)\n"
    assert _unused_imports(source) == ["line 1: LO"]
