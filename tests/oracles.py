"""Definitions and fixtures that only the tests use.

The package computes by closed forms and lookups; here are the
definitions those replace, kept as oracles, the enumerations and
predicates that no code in the package calls, and the fixtures that
several test files build.
"""

from itertools import combinations, combinations_with_replacement

from exitpath.construction import Low, Upper, exit_simplices
from exitpath.operators import Operator, degeneracy_op, face_op
from exitpath.shuffles import exit_shuffle
from exitpath.simplicial import SimplicialSet, nerve_of_poset, nondeg

# -- operators -----------------------------------------------------------------


def monotone_maps(src_dim, dst_dim):
    """All operators [src_dim] -> [dst_dim] in lexicographic order of values."""
    for values in combinations_with_replacement(range(dst_dim + 1), src_dim + 1):
        yield Operator(src_dim, dst_dim, values)


def injections(src_dim, dst_dim):
    """All injective operators [src_dim] -> [dst_dim], lexicographic in values."""
    for values in combinations(range(dst_dim + 1), src_dim + 1):
        yield Operator(src_dim, dst_dim, values)


def is_injective(op):
    return all(a < b for a, b in zip(op.values, op.values[1:]))


# -- shuffles ------------------------------------------------------------------


def shuffle_level(S):
    """The level coordinate of the exit shuffle S as an operator [k] -> [1]."""
    return Operator(S.k, 1, tuple(p[0] for p in S.points))


def shuffle_position(S):
    """The position coordinate of S as an operator [k] -> [k - 1] ([0] for k = 1)."""
    return Operator(S.k, max(S.k - 1, 0), tuple(p[1] for p in S.points))


def shuffle_after_coface(k, j, i):
    """Points of S_j . coface_i : [k-1] -> Delta[1] x Delta[k-1]."""
    S = exit_shuffle(k, j)
    op = face_op(k, i)
    return tuple(S(op(m)) for m in range(k))


def shuffle_after_codegeneracy(k, j, i):
    """Points of S_j . codegeneracy_i : [k+1] -> Delta[1] x Delta[k-1]."""
    S = exit_shuffle(k, j)
    op = degeneracy_op(k, i)
    return tuple(S(op(m)) for m in range(k + 2))


def first_at_level_one(points):
    """Smallest m whose point sits at level 1, None when none does."""
    for m, (level, _) in enumerate(points):
        if level == 1:
            return m
    return None


def flat_oracle(k, j, i):
    """flat by its definition: the first m that S_j . coface_i sends to
    level 1, None when the composite never leaves level 0."""
    return first_at_level_one(shuffle_after_coface(k, j, i))


def sharp_oracle(k, j, i):
    """sharp by its definition, from S_j . codegeneracy_i."""
    return first_at_level_one(shuffle_after_codegeneracy(k, j, i))


# -- simplicial sets -----------------------------------------------------------


def chain3():
    return nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], "chain3")


def corrupted_triangle():
    # T's face table breaks d_0 d_2 = d_1 d_0 on purpose
    X = SimplicialSet("corrupt")
    X.add_generator(0, "a")
    X.add_generator(0, "b")
    X.add_generator(1, "e", [nondeg("b", 0), nondeg("a", 0)])
    X.add_generator(2, "T", [nondeg("e", 1), nondeg("e", 1), nondeg("e", 1)])
    return X


# -- exit complexes ------------------------------------------------------------


def all_exit_simplices(span, k):
    """Every k-simplex of Ex in tagged form, in M + P + N order."""
    return ([Low(s) for s in span.M.simplices_at(k)] + exit_simplices(span, k)
            + [Upper(s) for s in span.N.simplices_at(k)])


def front_face_lifts(span, gen, r):
    """LinkedSpan.front_lifts by the face walk: the front face
    g . (0 < ... < r) of the generator gen of N is d_{r+1} ... d_d g,
    and it lifts when iota has a preimage of it."""
    d = span.N.gen_dims[gen]
    face = gen, tuple(range(d + 1))
    for i in range(d, r, -1):
        face = span.N.face_values(*face, i)
    return span.iota.preimage_values(*face) is not None


# -- horns ---------------------------------------------------------------------


def horn_is_compatible(X, h):
    """Whether the faces of the horn h satisfy d_a f_b = d_{b-1} f_a
    for a < b, both present."""
    for b in range(h.n + 1):
        if b == h.missing:
            continue
        for a in range(b):
            if a == h.missing:
                continue
            if X.face(h.faces[b], a) != X.face(h.faces[a], b - 1):
                return False
    return True
