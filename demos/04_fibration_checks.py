"""Calibrating the fibration checker on maps we understand.

check_fibration tests lifting against horn inclusions.  Which horns are
required depends on the kind: right fibrations lift Lambda^n_i for
0 < i <= n, inner fibrations for 0 < i < n, Kan fibrations for all i.
The vertex inclusions into the interval separate the three notions.
"""

from exitpath.gallery import discrete, load_span, point
from exitpath.simplicial import SimplicialMap, nondeg, standard_simplex
from exitpath.verify import check_fibration

interval = standard_simplex(1, "interval")

def vertex(label, name):
    pt = point(name, "v")
    return SimplicialMap(name, pt, interval, {"v": nondeg(label, 0)})

at_one = vertex("1", "vtx1")
at_zero = vertex("0", "vtx0")

for kind in ("right", "inner", "kan"):
    report = check_fibration(at_one, kind=kind, depth=2)
    print(f"vertex 1 as a {kind} fibration: {'PASS' if report.ok else 'FAIL'}")
print()

for kind in ("right", "kan"):
    report = check_fibration(at_zero, kind=kind, depth=2)
    print(f"vertex 0 as a {kind} fibration: {'PASS' if report.ok else 'FAIL'}")
print()

# Two points over one: a right fibration with genuinely disconnected fibers.
sphere = discrete("sphere0", ["n-", "n+"])
collapse = SimplicialMap(
    "collapse", sphere, point("star", "c"),
    {"n-": nondeg("c", 0), "n+": nondeg("c", 0)},
)
report = check_fibration(collapse, kind="right", depth=3)
print("S^0 -> * as a right fibration, depth 3:")
print(report.to_text())
print()

span = load_span("broken")
report = check_fibration(span.pi, kind="right", depth=2)
print("pi of the broken span:")
print(report.to_text())
for entry in report.failed:
    print(f"  witness: {entry.witness}")
