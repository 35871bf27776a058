"""Composition of value tuples has one home, operators.compose_values.

The modules of src/exitpath are parsed with ast, and a gather by hand
of what compose_values gathers in one call fails the test with its
place.  The scan sees two spellings of it: a call
`map(<expr>.__getitem__, ...)`, and a list or generator comprehension
whose iterable is a name or an attribute and whose element subscripts a
name by an expression of its loop variable, like
`[tau[v - 1] for v in rest]`, anywhere but in compose_values itself.  A
comprehension over a literal tuple or a call such as range(...) gathers
no value tuple and is not flagged.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "exitpath")


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def src_paths() -> list[str]:
    paths = sorted(os.path.join(SRC, f) for f in os.listdir(SRC) if f.endswith(".py"))
    assert any(p.endswith("operators.py") for p in paths)
    return paths


def getitem_maps(path: str) -> list[str]:
    return [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(parse(path))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and node.args
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "__getitem__"]


def is_gather(node: ast.AST) -> bool:
    """node is a one-loop comprehension over a name or attribute whose
    element subscripts a name by an expression of the loop variable."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp)) or len(node.generators) != 1:
        return False
    loop, element = node.generators[0], node.elt
    return (isinstance(loop.iter, (ast.Name, ast.Attribute)) and isinstance(loop.target, ast.Name)
            and isinstance(element, ast.Subscript) and isinstance(element.value, ast.Name)
            and any(isinstance(name, ast.Name) and name.id == loop.target.id
                    for name in ast.walk(element.slice)))


def gather_comprehensions(path: str) -> list[str]:
    tree = parse(path)
    home = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "compose_values"
            for node in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if id(node) not in home and is_gather(node))
    return [f"{os.path.basename(path)}:{line}" for line in lines]


def test_no_map_of_getitem_in_src():
    assert [hit for path in src_paths() for hit in getitem_maps(path)] == []


def test_the_scan_sees_a_map_of_getitem(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(x, y):\n    return tuple(map(x.values.__getitem__, y))\n",
                    encoding="utf-8")
    assert getitem_maps(str(path)) == ["m.py:2"]


def test_no_gather_comprehension_in_src():
    assert [hit for path in src_paths() for hit in gather_comprehensions(path)] == []


def test_the_scan_sees_a_gather_comprehension(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(x, y, j):\n"
        "    a = tuple([x[v if v < j else v - 1] for v in y])\n"
        "    b = tuple(x[v] for v in y.values)\n"
        "    c = [x[v] for v in range(j)]\n"
        "    d = [x[v] for v in (1, 2)]\n"
        "    e = [x[j] for v in y]\n"
        "    return a, b, c, d, e\n"
        "\n"
        "\n"
        "def compose_values(outer, inner):\n"
        "    return tuple([outer[v] for v in inner])\n",
        encoding="utf-8")
    assert gather_comprehensions(str(path)) == ["m.py:2", "m.py:3"]
