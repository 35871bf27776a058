"""Inner horn filling in exit complexes, and how it fails.

When the span's structure maps are good (iota a levelwise-injective
inclusion, pi a right fibration) the exit complex is a quasicategory:
every inner horn has a filler.  The broken gallery span violates the
fibration hypothesis and its complex has a concrete unfillable horn.
"""

from exitpath.construction import build_exit
from exitpath.gallery import load_span
from exitpath.simplicial import nondeg
from exitpath.verify import (
    HornProblem,
    Tables,
    enumerate_horns,
    find_filler,
    verify_quasicategory,
)

for name in ("s0-defect", "boundary-collar"):
    span = load_span(name)
    ex = build_exit(span, 3)
    report = verify_quasicategory(ex, 3)
    print(report.to_text())
    print()

span = load_span("broken")
ex = build_exit(span, 2)
print("the broken span:  edge <- point -> edge, pi landing at the closed end")
report = verify_quasicategory(ex, 2)
print(report.to_text())
print()

print("the failing horn, by hand: the strata edge M.0,1 followed by the")
print("exit edge P.0,1@1 would need a composite 2-simplex, but every")
print("2-simplex of Ex is degenerate or lives in one part:")
h = HornProblem(2, 1, (nondeg("P.0,1@1", 1), None, nondeg("M.0,1", 1)))
print(f"  horn: {h.describe()}")
print(f"  filler: {find_filler(ex, h)}")
print()

tables = Tables(ex)  # face columns numbered by rank, shared by the enumeration and the index
horns = enumerate_horns(ex, 2, 1, tables=tables)
# a horn fills when some 2-simplex has its faces: one index of X_2 by
# the faces at the horn's slots answers every horn of the shape
fillers = tables.face_keys(2, horns.slots)
fillable = sum(key in fillers for key in horns.numbers)
print(f"for scale: {fillable} of {len(horns)} inner 2-horns of Ex(broken) do fill")
