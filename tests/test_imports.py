"""Every name a module brings in by `from ... import` is used there.

The modules of src/exitpath, tests and demos are parsed with ast; a
name counts as used when it appears as a Name node anywhere in the
module, the root of an attribute chain included.  `from __future__`
imports and star imports bind no name to check.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCANNED = ("src/exitpath", "tests", "demos")


def modules():
    for folder in SCANNED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
            for f in sorted(files):
                if f.endswith(".py"):
                    yield os.path.join(dirpath, f)


def unused_from_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = os.path.relpath(path, ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_from_import_is_used():
    found = sorted(modules())
    assert any(p.endswith("construction.py") for p in found)
    assert [hit for path in found for hit in unused_from_imports(path)] == []
