"""Source hygiene of the package: every module imports only names it uses."""

import ast
from pathlib import Path

import pytest

import nilcoh

PACKAGE = Path(nilcoh.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports, with the line of the import,
    that the module never reads: not as a name, which includes the root of
    an attribute chain, and not inside a quoted annotation."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for text in (a.value for a in annotations
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)):
            quoted = ast.parse(text, mode="eval")
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from .groups import Group, cayley_tree\n\ndef f(G: Group):\n    return G\n"
    assert unused_imports(source) == ["cayley_tree (line 1)"]
    assert unused_imports("import os.path\n\nos.path.join('a')\n") == []
    assert unused_imports("from x import Y\n\ndef f() -> 'list[Y]':\n    pass\n") == []
