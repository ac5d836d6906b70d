"""Every function and class in src/askzeta is reached by the package or the benchmark.

A definition counts as used when its name appears somewhere else in src or
perfbench: as a name, an attribute, an imported name or a string that is
exactly the name (getattr-style lookups).  References inside the definition
itself (recursion) do not count, and neither does the package's own
re-export in its __init__.py.  Dunders are exempt.  A name that only tests
use belongs in the tests, unless PUBLIC_API lists it: then a test must name
it.  The package exports what its __init__ imports and no submodule.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "askzeta"
SCANNED = (ROOT / "src", ROOT / "perfbench")
TESTS = ROOT / "tests"

# Library entries with no caller in the package; none today.
PUBLIC_API = ()


def _names(tree) -> Counter:
    """How often each identifier is named in a syntax tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _exempt(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def _named_in(tops) -> Counter:
    named = Counter()
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                named += _names(ast.parse(path.read_text(encoding="utf-8")))
    return named


def unused_definitions(public=PUBLIC_API) -> list[str]:
    """path:line name of each package definition that neither the package nor
    the benchmark names, except the `public` names that a test names."""
    named = _named_in(SCANNED)
    tested = _named_in((TESTS,))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if _exempt(node) or (node.name in public and tested[node.name]):
                continue
            if named[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_named_elsewhere():
    assert unused_definitions() == []


def test_public_api_is_what_only_tests_reach():
    # each listed name is needed: without the list, exactly these are reported
    assert sorted(entry.split()[1] for entry in unused_definitions(public=())) == sorted(
        PUBLIC_API
    )


def test_traced_names_resolve():
    # the benchmark's tracer wraps askzeta.<module>.<name> for each name in
    # TRACED; it is read from its source, so nothing is written under perfbench
    path = ROOT / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    assert tracer["TRACED"]
    for module, names in tracer["TRACED"].items():
        found = importlib.import_module(f"askzeta.{module}")
        for name in names:
            assert callable(getattr(found, name, None)), f"askzeta.{module}.{name}"


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from askzeta import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert modules == []
    assert "ask_series" in namespace and "module" not in namespace


def test_the_scan_sees_an_unused_function(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "askzeta"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n\n"
        "@register('x')\ndef builder():\n    pass\n\n\n"
        "class Thing:\n    def __repr__(self):\n        return ''\n\n\n"
        "def tested_only():\n    pass\n\n\n"
        "def public():\n    pass\n"
    )
    (pkg / "__init__.py").write_text("from .a import lonely\n")
    (pkg / "b.py").write_text("Thing()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("tested_only()\npublic()\n")
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    monkeypatch.setitem(globals(), "SCANNED", (tmp_path / "src",))
    monkeypatch.setitem(globals(), "TESTS", tmp_path / "tests")
    assert unused_definitions(public=("public",)) == [
        "a.py:5 lonely",
        "a.py:10 builder",
        "a.py:19 tested_only",
    ]
