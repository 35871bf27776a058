"""Building the exit complex of the boundary-with-collar span.

The span is  point <- point -> edge  with the link sitting at vertex 0
of the edge: a 1-dimensional cartoon of a manifold boundary and its
collar.  Exit paths either stop at the collar vertex or run along the
edge, and the complex glues them to the boundary stratum.
"""

from exitpath.construction import build_exit, exit_face, exit_simplices, is_exit_path
from exitpath.documents import print_sset
from exitpath.gallery import load_span
from exitpath.simplicial import nondeg, simplex_repr


def show_exit(gen, values, j):
    """An exit path (sigma^*gen, j), sigma given by its values."""
    return f"exit({simplex_repr(gen, values)}@{j})"


def show_face(part, gen, values, _):
    """A low (part "M") or upper (part "N") face from exit_face."""
    return f"{'low' if part == 'M' else 'upper'}[{simplex_repr(gen, values)}]"


span = load_span("boundary-collar")
print(f"span: {span.M.name} <- {span.L.name} -> {span.N.name}")
print(f"iota levelwise injective through degree 3: {span.iota.is_mono(3)[0]}")
print()

# a simplex sigma^*gen of N as (gen, values of sigma)
edge = ("0,1", (0, 1))
degenerate_at_0 = ("0", (0, 0))
degenerate_at_1 = ("1", (0, 0))
print("membership of (gamma, j): the level-0 restriction must lift through iota")
for gamma in (edge, degenerate_at_0, degenerate_at_1):
    print(f"  ({simplex_repr(*gamma)}, 1): {is_exit_path(span, *gamma, 1)}")
print()

print(f"faces of the exit edge {show_exit(*edge, 1)}:")
print(f"  d_1 (low)   = {show_face(*exit_face(span, *edge, 1, 1))}   # through pi after the lift")
print(f"  d_0 (upper) = {show_face(*exit_face(span, *edge, 1, 0))}")
print()

print("exit paths per degree (degenerate ones included):")
for k in range(1, 4):
    print(f"  degree {k}: [{', '.join(show_exit(*p) for p in exit_simplices(span, k))}]")
print()

ex = build_exit(span, 3)
print("the materialized complex, as its document:")
print(print_sset(ex), end="")
print()
print("reading the triangle back: its faces compose the two exit edges")
tri = nondeg("P.0,1+s0@1", 2)
for i in range(3):
    print(f"  d_{i} = {ex.face(tri, i)!r}")
