"""Every function and class in src/askzeta has a caller.

A definition counts as used when its name appears somewhere else in src,
tests or perfbench: as a name, an attribute, an imported name or a string
that is exactly the name (getattr-style lookups).  References inside the
definition itself (recursion) do not count, and neither does the package's
own re-export in its __init__.py.  Dunders are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "askzeta"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


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


def unused_definitions() -> list[str]:
    """path:line name of each definition in the package that nothing names."""
    named = Counter()
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                named += _names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if _exempt(node):
                continue
            if named[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_named_elsewhere():
    assert unused_definitions() == []


def test_the_scan_sees_an_unused_function(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "askzeta"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n\n"
        "@register('x')\ndef builder():\n    pass\n\n\n"
        "class Thing:\n    def __repr__(self):\n        return ''\n"
    )
    (pkg / "__init__.py").write_text("from .a import lonely\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("Thing()\n")
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    monkeypatch.setitem(globals(), "SCANNED", (tmp_path / "src", tmp_path / "tests"))
    assert unused_definitions() == ["a.py:5 lonely", "a.py:10 builder"]
