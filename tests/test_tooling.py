"""Source hygiene of the package: every module imports only names it uses,
every function, class and method it defines is used, and importing it loads
no costly standard module it does not need."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nilcoh

PACKAGE = Path(nilcoh.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
PERFBENCH = PACKAGE.parents[1] / "perfbench"
# Called by argparse, not by name.
CALLED_BY_LIBRARIES = {"_Parser.error"}


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


def referenced_names(tree: ast.AST) -> Counter:
    """Every name the tree reads, and every attribute it reads or writes,
    an attribute counted as "." and its name."""
    return Counter(node.id if isinstance(node, ast.Name) else f".{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def traced_names(tracer_source: str) -> set[str]:
    """The names in the tracer's TARGETS, whose second field names a package
    attribute such as "ActionInstance.action"."""
    for node in ast.parse(tracer_source).body:
        bound = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in bound):
            return {part for entry in node.value.elts for part in entry.elts[1].value.split(".")}
    raise AssertionError("the tracer defines no TARGETS")


def definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of the module-level functions and classes
    and of the methods of its classes, dunder methods left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name, item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def unreferenced(package: dict[str, str], others: list[str], extra: set[str]) -> list[str]:
    """The definitions of the package modules (name -> source) that nothing
    references: not the package outside its own body, not the other sources,
    and not a name in `extra`.  A function or class is referenced by its
    name or as an attribute; a method only as an attribute, so a local name
    that happens to spell it does not count."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    counts = sum((referenced_names(tree) for tree in trees.values()), Counter())
    for source in others:
        counts += referenced_names(ast.parse(source))
    return [f"{module}: {qualified}" for module, tree in trees.items()
            for qualified, name, node in definitions(tree)
            if qualified not in CALLED_BY_LIBRARIES and name not in extra
            and all(counts[key] <= referenced_names(node)[key]
                    for key in ([f".{name}"] if "." in qualified else [name, f".{name}"]))]


def test_package_defines_nothing_that_only_tests_use():
    package = {str(p.relative_to(PACKAGE)): p.read_text() for p in MODULES}
    bench = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    extra = traced_names((PERFBENCH / "tracer.py").read_text())
    assert {"Group", "ActionInstance", "action", "load_scenario"} <= extra
    assert unreferenced(package, bench, extra) == []


def test_unreferenced_definition_is_found():
    package = {
        "a.py": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b.py": "class K:\n    def m(self):\n        return used()\n\n"
                "    def __repr__(self):\n        return ''\n\nK().m\n",
    }
    assert unreferenced(package, [], set()) == ["a.py: recursive"]
    assert unreferenced(package, ["recursive(3)"], set()) == []
    assert unreferenced(package, [], {"recursive"}) == []
    # A parameter that spells a method's name is not a use of the method.
    package["c.py"] = "def run(m):\n    return m\n\nrun(0)\n"
    package["b.py"] = package["b.py"].replace("K().m\n", "K()\n")
    assert unreferenced(package, ["recursive(3)"], set()) == ["b.py: K.m"]
    assert unreferenced(package, ["recursive(3)", "K().m()"], set()) == []


def test_import_loads_no_costly_standard_module():
    # `dataclasses` pulls in inspect, ast and dis, and `logging` threading
    # and more: several milliseconds of every run's start-up, for records
    # and one error message the package writes by hand.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = ("import sys, nilcoh, nilcoh.harness; "
             "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-s", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
