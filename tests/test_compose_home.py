"""Composition of value tuples has one home, operators.compose_values.

The modules of src/exitpath are parsed with ast, and a call
`map(<expr>.__getitem__, ...)`, a gather by hand of what compose_values
gathers in one call, fails the test with its place.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "exitpath")


def getitem_maps(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and node.args
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "__getitem__"]


def test_no_map_of_getitem_in_src():
    paths = sorted(os.path.join(SRC, f) for f in os.listdir(SRC) if f.endswith(".py"))
    assert any(p.endswith("operators.py") for p in paths)
    assert [hit for path in paths for hit in getitem_maps(path)] == []


def test_the_scan_sees_a_map_of_getitem(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(x, y):\n    return tuple(map(x.values.__getitem__, y))\n",
                    encoding="utf-8")
    assert getitem_maps(str(path)) == ["m.py:2"]
