"""Writing spans to disk and reading them back.

Every finitely generated simplicial set, map, and span has a plain-text
document form.  Emitting a span and re-parsing it reproduces the same
objects, so complexes built from the two copies agree generator for
generator.
"""

import tempfile
from pathlib import Path

from exitpath.construction import build_exit, exit_simplices
from exitpath.documents import parse_span_file, print_smap, write_span_documents
from exitpath.gallery import load_span
from exitpath.simplicial import simplex_repr

span = load_span("s0-defect")

print("=== iota as a document ===")
print(print_smap(span.iota))

with tempfile.TemporaryDirectory() as tmp:
    span_path = Path(write_span_documents(span, tmp))
    print(f"=== files written next to {span_path.name} ===")
    for f in sorted(Path(tmp).iterdir()):
        print(f"  {f.name}")
    print()
    print(f"=== {span_path.name} ===")
    print(span_path.read_text())

    copy = parse_span_file(str(span_path))

    ex = build_exit(span, 3)
    ex2 = build_exit(copy, 3)
    for k in range(4):
        mine = [repr(s) for s in ex.simplices_at(k)]
        theirs = [repr(s) for s in ex2.simplices_at(k)]
        marker = "ok" if mine == theirs else "MISMATCH"
        print(f"degree {k}: {len(mine)} simplices in both copies [{marker}]")
    print()

    print("exit paths of the reparsed span at degree 1:")
    for gen, values, j in exit_simplices(copy, 1):
        print(f"  exit({simplex_repr(gen, values)}@{j})")
