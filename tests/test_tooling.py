"""Source hygiene of the package: every module imports only names it uses,
every function, class and method it defines is used, every method whose
name another class shares has a named caller, every optional parameter is
set by some call, and importing it loads no costly standard module it does
not need."""

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


def shared_name_methods(package: dict[str, str]) -> list[str]:
    """The methods of the package's classes, as "module: Class.method", whose
    name another class of the package also defines as a method or lists in
    its `__slots__`.  `unreferenced` matches a method by its attribute name
    alone, so a read of the other class's attribute keeps such a method
    alive whether or not anything calls it."""
    owners: dict[str, set[str]] = {}
    methods = []
    for module, source in package.items():
        for cls in (n for n in ast.parse(source).body if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        methods.append((module, cls.name, item.name))
                        owners.setdefault(item.name, set()).add(f"{module}: {cls.name}")
                elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                    for slot in ast.walk(item.value):
                        if isinstance(slot, ast.Constant) and isinstance(slot.value, str):
                            owners.setdefault(slot.value, set()).add(f"{module}: {cls.name}")
    return [f"{module}: {cls}.{name}" for module, cls, name in methods
            if len(owners[name]) > 1]


# Each package method whose name another package class shares, with a package
# or benchmark function ("file: qualified name") that calls it.
SHARED_NAME_CALLERS = {
    "actions.py: ActionOnGroup._keep": "actions.py: action_from_generator_images",
    "cohomology.py: DecompositionReport.to_json": "harness/cli.py: cmd_decompose",
    "cohomology.py: Eq3Report.ok": "harness/suite.py: eq3_report",
    "cohomology.py: Eq3Report.to_json": "harness/suite.py: eq3_report",
    "cohomology.py: CohomologySet.size": "harness/suite.py: correspondence_report",
    "groups.py: Group.elements": "structure.py: complements",
    "groups.py: Subgroup._keep": "groups.py: Subgroup.generated_by",
    "groups.py: Subgroup.order": "theorems.py: _prop5_setting_checks",
    "harness/catalog.py: ActionInstance.action": "harness/suite.py: _run_row",
    "harness/suite.py: CheckOutcome.ok": "harness/suite.py: exit_code",
    "theorems.py: VerificationReport.to_json": "harness/suite.py: report_emit",
}


def test_every_method_behind_a_shared_name_has_a_caller():
    package = {str(p.relative_to(PACKAGE)): p.read_text() for p in MODULES}
    assert sorted(shared_name_methods(package)) == sorted(SHARED_NAME_CALLERS)
    for method, caller in SHARED_NAME_CALLERS.items():
        path, qualified = caller.split(": ")
        root = PERFBENCH.parent if path.startswith("perfbench/") else PACKAGE
        node = next(node for q, _, node in definitions(ast.parse((root / path).read_text()))
                    if q == qualified)
        assert referenced_names(node)["." + method.rsplit(".", 1)[1]], (method, caller)


def test_shared_name_method_is_found():
    package = {
        "a.py": "class A:\n    __slots__ = ('size',)\n\n    def run(self):\n        pass\n",
        "b.py": "class B:\n    def size(self):\n        pass\n\n    def __len__(self):\n"
                "        return 0\n\n    def run(self):\n        pass\n",
        "c.py": "class C:\n    def __len__(self):\n        return 1\n\n    def own(self):\n"
                "        pass\n",
    }
    assert shared_name_methods(package) == ["a.py: A.run", "b.py: B.size", "b.py: B.run"]


def optional_parameters(node: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of the function that has a
    default, the position counted from the first argument that a call
    passes (after the `skip` bound ones) and None for a keyword-only one."""
    positional = (node.args.posonlyargs + node.args.args)[skip:]
    first = len(positional) - len(node.args.defaults)
    return [(a.arg, k) for k, a in enumerate(positional) if k >= first] + [(a.arg, None) for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]


def sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call may set the parameter: by keyword, by position, or
    through `*args` or `**kwargs`."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(package: dict[str, str], others: list[str]) -> list[str]:
    """The optional parameters of the package's functions, methods and class
    constructors (`__init__`, called by the class name) that no call in the
    package or the other sources sets, as "module: name(parameters)".  Calls
    match by name as in `unreferenced`: a function or class by its name or
    as an attribute, a method only as an attribute."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                key = node.func.id if isinstance(node.func, ast.Name) else f".{node.func.attr}"
                calls.setdefault(key, []).append(node)
    out = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree):
            method = "." in qualified
            bound = method or isinstance(node, ast.ClassDef)    # self or cls
            if isinstance(node, ast.ClassDef):
                node = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                             and item.name == "__init__"), None)
                if node is None:
                    continue
            keys = [f".{name}"] if method else [name, f".{name}"]
            unset = [p for p, position in optional_parameters(node, int(bound))
                     if not any(sets(call, p, position) for key in keys
                                for call in calls.get(key, []))]
            if unset:
                out.append(f"{module}: {qualified}({', '.join(unset)})")
    return out


# The optional parameters that no call in the package or the benchmark sets,
# each with the reason it stays.
UNSET_BY_DESIGN = {
    "cohomology.py: cocycles_bruteforce(K, budget)":
        "the oracle's domain and budget, which the tests it serves set",
    "harness/cli.py: main(argv)":
        "the entry point's arguments, which the console script takes from sys.argv",
}


def test_every_optional_parameter_has_a_caller():
    package = {str(p.relative_to(PACKAGE)): p.read_text() for p in MODULES}
    bench = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    assert unset_parameters(package, bench) == list(UNSET_BY_DESIGN)


def test_unset_parameter_is_found():
    package = {"a.py": "def f(x, y=1, *, z=2):\n    return x\n\n"
                       "class K:\n    def __init__(self, a=0):\n        self.a = a\n\n"
                       "    def m(self, b=None):\n        return b\n"}
    assert unset_parameters(package, []) == ["a.py: f(y, z)", "a.py: K(a)", "a.py: K.m(b)"]
    # By position and by keyword; a method is called only as an attribute.
    assert unset_parameters(package, ["f(0, 1)", "K(a=1)", "m(0)"]) == ["a.py: f(z)",
                                                                       "a.py: K.m(b)"]
    # Through *args and **kwargs; the bound self takes no argument of a call.
    assert unset_parameters(package, ["mod.f(*xs, **kw)", "K(*xs)", "k.m(0)"]) == []
    assert unset_parameters(package, ["f(0, *xs)", "K()", "k.m()"]) == [
        "a.py: f(z)", "a.py: K(a)", "a.py: K.m(b)"]


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
