"""Definitions and fixtures that only the tests use.

The package computes by closed forms and lookups; here are the
definitions those replace, kept as oracles, the enumerations and
predicates that no code in the package calls, and the fixtures that
several test files build.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from exitpath.construction import (
    LinkedSpan,
    build_exit,
    detect_degenerate_exit,
    exit_degeneracy,
    exit_face,
    exit_label,
    exit_normal_form,
    exit_simplices,
)
from exitpath.operators import Operator, degeneracy_op, face_op, identity
from exitpath.shuffles import exit_shuffle
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialSet,
    nerve_of_map,
    nerve_of_poset,
    nondeg,
)

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


def is_identity(op):
    # the only monotone map of [n] onto itself
    return op.onto and op.src_dim == op.dst_dim


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


def prefix_span(name, elements, relations, prefix, M, f):
    """M <- nerve(P') -> nerve(P) for a poset P, a down-closed subset P'
    of it and a monotone map f from P' to the poset of M, on elements."""
    N = nerve_of_poset(elements, relations, f"{name}-N")
    L = nerve_of_poset(prefix, [(a, b) for a, b in relations if b in prefix], f"{name}-L")
    return LinkedSpan(name, M, L, N, nerve_of_map("pi", L, M, f),
                      nerve_of_map("iota", L, N, {x: x for x in prefix}))


def seeded_poset_span(rng, i):
    """chain <- nerve(P') -> nerve(P): a random poset P on 3 to 5
    elements, a down-closed prefix P' of it and a monotone map from P'
    onto levels of a chain of 1 to 3 elements, with shuffled labels."""
    n = 3 + i % 3
    r, m = rng.randint(1, n - 1), rng.randint(1, 3)
    labels = [f"q{e}" for e in range(n)]
    rng.shuffle(labels)
    rel = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)
           if rng.random() < 0.5]
    chain = [f"c{v}" for v in range(m)]
    M = nerve_of_poset(chain, [(chain[a], chain[b]) for a in range(m)
                               for b in range(a + 1, m)], f"seeded{i}-M")
    prefix = labels[:r]
    levels = sorted(rng.randrange(m) for _ in prefix)
    return prefix_span(f"seeded{i}", labels, rel, prefix, M,
                       {x: chain[v] for x, v in zip(prefix, levels)})


def seeded_poset_spans(rng, count):
    spans = [seeded_poset_span(rng, i) for i in range(count)]
    # the family reaches every part of Ex: low generators above the
    # vertices, exit paths of both kinds and low faces of exit paths
    assert any(span.M.generators(1) for span in spans)
    assert any(g.startswith("P.") and "+s" in g and ex.faces[g][2].gen.startswith("M.")
               for ex in (build_exit(span, 3) for span in spans) for g in ex.generators(2))
    return spans


def small_prefix_spans():
    """pt <- nerve(P') -> nerve(P) for every poset P on at most three
    labelled elements and every down-closed P' of P."""
    for n in range(4):
        elements = list("abc"[:n])
        pairs = [(x, y) for x in elements for y in elements if x != y]
        for mask in range(1 << len(pairs)):
            rel = [pq for b, pq in enumerate(pairs) if mask >> b & 1]
            if any((y, x) in rel for x, y in rel) or \
                    any((x, z) not in rel for x, y in rel for w, z in rel if w == y):
                continue
            for down in range(1 << n):
                prefix = [e for b, e in enumerate(elements) if down >> b & 1]
                if all(x in prefix for x, y in rel if y in prefix):
                    base = nerve_of_poset(["m"], [], "base")
                    yield prefix_span(f"P{rel}>{prefix}", elements, rel, prefix, base,
                                      dict.fromkeys(prefix, "m"))


def corrupted_triangle():
    # T's face table breaks d_0 d_2 = d_1 d_0 on purpose
    X = SimplicialSet("corrupt")
    X.add_generator(0, "a")
    X.add_generator(0, "b")
    X.add_generator(1, "e", [nondeg("b", 0), nondeg("a", 0)])
    X.add_generator(2, "T", [nondeg("e", 1), nondeg("e", 1), nondeg("e", 1)])
    return X


# -- exit complexes ------------------------------------------------------------


# The tagged view: a simplex of Ex as a Low, Exit or Upper value, each
# operation a thin layer over the (generator, values) functions of
# exitpath.construction.


def simplex(gen, values):
    """sigma^*gen as a FormalSimplex, sigma given by its values."""
    return FormalSimplex(gen, Operator(len(values) - 1, values[-1], values))


def pair(s):
    """A FormalSimplex as (generator, values)."""
    return s.gen, s.values


@dataclass(frozen=True)
class Low:
    simplex: FormalSimplex

    @property
    def dim(self):
        return self.simplex.dim

    def __repr__(self):
        return f"low[{self.simplex!r}]"


@dataclass(frozen=True)
class Exit:
    """An exit path: a k-simplex gamma of N together with its exit index j.

    Equality is equality of both coordinates; the same gamma with two
    different indices gives two different simplices of Ex.
    """

    gamma: FormalSimplex
    index: int

    def __post_init__(self):
        if not 1 <= self.index <= self.gamma.dim:
            raise ValueError(f"exit index {self.index} outside 1..{self.gamma.dim}")

    @property
    def dim(self):
        return self.gamma.dim

    def __repr__(self):
        return f"exit({self.gamma!r}@{self.index})"


@dataclass(frozen=True)
class Upper:
    simplex: FormalSimplex

    @property
    def dim(self):
        return self.simplex.dim

    def __repr__(self):
        return f"upper[{self.simplex!r}]"


def tagged_exit(gen, values, j):
    """The exit path (gen, values, j) as an Exit."""
    return Exit(simplex(gen, values), j)


def tagged_face(span, s, i):
    """d_i of a tagged simplex of Ex: face on Low and Upper, and
    exit_face on an exit path."""
    if s.dim < 1:
        raise ValueError("vertices have no faces")
    if not 0 <= i <= s.dim:
        raise ValueError(f"face index {i} outside 0..{s.dim}")
    if isinstance(s, Low):
        return Low(span.M.face(s.simplex, i))
    if isinstance(s, Upper):
        return Upper(span.N.face(s.simplex, i))
    part, gen, values, j = exit_face(span, *pair(s.gamma), s.index, i)
    if part == "P":
        return tagged_exit(gen, values, j)
    return (Low if part == "M" else Upper)(simplex(gen, values))


def tagged_degeneracy(span, s, i):
    """s_i of a tagged simplex of Ex; exit paths stay exit paths."""
    if not 0 <= i <= s.dim:
        raise ValueError(f"degeneracy index {i} outside 0..{s.dim}")
    if isinstance(s, Low):
        return Low(span.M.degeneracy(s.simplex, i))
    if isinstance(s, Upper):
        return Upper(span.N.degeneracy(s.simplex, i))
    return tagged_exit(*exit_degeneracy(*pair(s.gamma), s.index, i))


def tagged_detect(span, p):
    """detect_degenerate_exit on an Exit: (q, i) with s_i q = p, or None."""
    hit = detect_degenerate_exit(span, *pair(p.gamma), p.index)
    return None if hit is None else (tagged_exit(*hit[0]), hit[1])


def tagged_normal_form(span, s):
    """s as (nondegenerate core, surjection): Low and Upper parts
    inherit normal forms from M and N, an exit path takes its core
    (r, c) and surjection from exit_normal_form."""
    if not isinstance(s, Exit):
        x = s.simplex
        return type(s)(nondeg(x.gen, x.gen_dim)), Operator(x.dim, x.gen_dim, x.values)
    gamma, d = s.gamma, s.gamma.gen_dim
    r, c, values = exit_normal_form(gamma.values, s.index)
    core = FormalSimplex(gamma.gen, degeneracy_op(d, r) if c else identity(d))
    return Exit(core, r + 1), Operator(gamma.dim, d + c, values)


def tagged_label(s):
    """The generator label of a nondegenerate tagged simplex; an exit
    path's by exit_label from its core."""
    if isinstance(s, Low):
        return f"M.{s.simplex.gen}"
    if isinstance(s, Upper):
        return f"N.{s.simplex.gen}"
    r, c, _ = exit_normal_form(s.gamma.values, s.index)
    return exit_label(s.gamma.gen, r, c)


def all_exit_simplices(span, k):
    """Every k-simplex of Ex in tagged form, in M + P + N order."""
    return ([Low(s) for s in span.M.simplices_at(k)]
            + [tagged_exit(*p) for p in exit_simplices(span, k)]
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
