"""Exit paths: membership, the face/degeneracy dispatch, normal forms,
and the simplicial identities at the tagged level."""

import random

import pytest

from exitpath.construction import (
    Exit,
    ExitComplex,
    LinkedSpan,
    Low,
    SpanIntegrityError,
    Upper,
    build_exit,
    detect_degenerate_exit,
    exit_degeneracy,
    exit_face,
    exit_face_values,
    exit_label,
    exit_normal_form,
    exit_simplices,
    is_exit_path,
)
from exitpath.documents import print_sset
from exitpath.gallery import (
    GALLERY,
    boundary_collar_span,
    broken_span,
    cone_span,
    discrete,
    load_span,
    point,
)
from exitpath.operators import Operator, compose, degeneracy_op, identity
from exitpath.shuffles import restriction_operator
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)
from oracles import all_exit_simplices, front_face_lifts

SPAN_NAMES = sorted(GALLERY)


def degenerate_edge(vertex: str) -> FormalSimplex:
    return FormalSimplex(vertex, Operator(1, 0, (0, 0)))


# -- membership ----------------------------------------------------------------


def test_membership_on_the_collar():
    span = boundary_collar_span()
    b = nondeg("0,1", 1)
    assert is_exit_path(span, b, 1)
    assert is_exit_path(span, degenerate_edge("0"), 1)
    assert not is_exit_path(span, degenerate_edge("1"), 1)


def test_membership_input_checks():
    span = boundary_collar_span()
    with pytest.raises(ValueError):
        is_exit_path(span, nondeg("0", 0), 1)
    with pytest.raises(ValueError):
        is_exit_path(span, nondeg("0,1", 1), 0)
    with pytest.raises(ValueError):
        is_exit_path(span, nondeg("0,1", 1), 2)


def test_exit_path_index_range():
    with pytest.raises(ValueError):
        Exit(nondeg("0,1", 1), 2)
    with pytest.raises(ValueError):
        Exit(nondeg("0,1", 1), 0)


def test_same_gamma_different_index_are_distinct():
    span = load_span("point-cone")
    gamma = span.N.degeneracy(degenerate_edge("x"), 0)
    assert Exit(gamma, 1) != Exit(gamma, 2)
    assert is_exit_path(span, gamma, 1) and is_exit_path(span, gamma, 2)


def collapsed_span():
    """Two link vertices onto one vertex of N: iota is mono through no
    degree."""
    L = discrete("twolink", ["l1", "l2"])
    N = point("onept", "n")
    M = point("onebase", "m")
    pi = SimplicialMap("pi", L, M, {"l1": nondeg("m", 0), "l2": nondeg("m", 0)})
    iota = SimplicialMap("iota", L, N, {"l1": nondeg("n", 0), "l2": nondeg("n", 0)})
    return LinkedSpan("collapsed", M, L, N, pi, iota)


def test_membership_requires_verified_iota():
    span = collapsed_span()
    assert not span.iota.is_mono(0)[0]
    assert span.iota.mono_bound == -1
    with pytest.raises(RuntimeError):
        is_exit_path(span, degenerate_edge("n"), 1)
    with pytest.raises(RuntimeError):
        build_exit(span, 1)


def test_front_lifts_refuses_a_degree_above_the_mono_bound():
    span = collapsed_span()
    with pytest.raises(RuntimeError) as e:
        span.front_lifts("n", 0)
    assert str(e.value) == ("iota: preimage queried at degree 0 but injectivity holds "
                            "only through degree -1")
    assert span._front_lifts == {}


def restriction_lookup(span, gamma, j):
    """Membership as first defined: act with the level-0 restriction
    of C_j, then look the result up in iota's image."""
    source = span.N.act(gamma, restriction_operator(gamma.dim, j))
    return span.iota.preimage(source) is not None


def prefix_span(name, elements, relations, prefix):
    """pt <- nerve(P') -> nerve(P) for a poset P and a down-closed
    subset P' of it."""
    N = nerve_of_poset(elements, relations, f"{name}-N")
    L = nerve_of_poset(prefix, [(a, b) for a, b in relations if b in prefix], f"{name}-L")
    M = point("base", "m")
    pi = SimplicialMap("pi", L, M, {g: FormalSimplex("m", Operator(d, 0, (0,) * (d + 1)))
                                    for g, d in L.gen_dims.items()})
    iota = SimplicialMap("iota", L, N, {g: nondeg(g, d) for g, d in L.gen_dims.items()})
    return LinkedSpan(name, M, L, N, pi, iota)


def diamond_prefix_span():
    """pt <- nerve(a < b) -> nerve(a < b < d, a < c < d): L is the
    nerve of a proper down-closed subset, so whether a front face lifts
    depends on how far along the chain it reaches."""
    rel = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return prefix_span("diamond-prefix", ["a", "b", "c", "d"], rel, ["a", "b"])


MEMBERSHIP_SPANS = {
    **{name: (lambda name=name: load_span(name)) for name in SPAN_NAMES},
    "cone-simplex2": lambda: cone_span(standard_simplex(2)),
    "cone-simplex3": lambda: cone_span(standard_simplex(3)),
    "diamond-prefix": diamond_prefix_span,
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SPANS))
def test_membership_agrees_with_restriction_lookup(name):
    span = MEMBERSHIP_SPANS[name]()
    assert exit_simplices(span, 0) == []
    outcomes = set()
    for k in range(1, 5):
        want = []
        for gamma in span.N.simplices_at(k):
            for j in range(1, k + 1):
                member = restriction_lookup(span, gamma, j)
                assert is_exit_path(span, gamma, j) == member, (gamma, j)
                outcomes.add(member)
                if member:
                    want.append(Exit(gamma, j))
        assert exit_simplices(span, k) == want, k
    if name == "diamond-prefix":
        assert outcomes == {False, True}


def test_exit_simplices_order_and_counts():
    span = boundary_collar_span()
    paths = exit_simplices(span, 1)
    assert [repr(p) for p in paths] == ["exit(0+s0@1)", "exit(0,1@1)"]
    # degree 2: both indices of the degenerate square at 0, plus the
    # degeneracies of the two 1-paths, plus the nondegenerate triangle
    assert len(exit_simplices(span, 2)) == 5


def test_cardinality_sum():
    # |Ex_k| = |M_k| + |paths_k| + |N_k| for every gallery span
    for name in SPAN_NAMES:
        span = load_span(name)
        ex = build_exit(span, 4)
        for k in range(5):
            expected = span.M.count_at(k) + span.N.count_at(k)
            if k >= 1:
                expected += len(exit_simplices(span, k))
            assert ex.count_at(k) == expected, (name, k)
            assert len(all_exit_simplices(span, k)) == expected, (name, k)


# -- faces and degeneracies -------------------------------------------------------


def test_edge_faces_low_and_upper():
    span = boundary_collar_span()
    e = Exit(nondeg("0,1", 1), 1)
    assert exit_face(span, e, 1) == Low(nondeg("m", 0))
    assert exit_face(span, e, 0) == Upper(nondeg("1", 0))


def test_triangle_face_dispatch():
    span = boundary_collar_span()
    b = nondeg("0,1", 1)
    t = Exit(span.N.degeneracy(b, 0), 1)
    assert exit_face(span, t, 0) == Upper(b)
    assert exit_face(span, t, 1) == Exit(b, 1)
    assert exit_face(span, t, 2) == Exit(degenerate_edge("0"), 1)


def test_low_face_lands_through_pi():
    span = broken_span()
    e = Exit(nondeg("0,1", 1), 1)
    # the link sits at vertex 0 of N and pi sends it to vertex 1 of M
    assert exit_face(span, e, 1) == Low(nondeg("1", 0))


def test_low_and_upper_parts_are_closed():
    span = boundary_collar_span()
    m = Low(span.M.degeneracy(nondeg("m", 0), 0))
    assert isinstance(exit_face(span, m, 0), Low)
    assert isinstance(exit_degeneracy(span, m, 0), Low)
    n = Upper(nondeg("0,1", 1))
    assert isinstance(exit_face(span, n, 1), Upper)
    assert isinstance(exit_degeneracy(span, n, 0), Upper)


def test_degeneracies_of_an_exit_edge():
    span = boundary_collar_span()
    p = Exit(nondeg("0,1", 1), 1)
    up0 = exit_degeneracy(span, p, 0)
    up1 = exit_degeneracy(span, p, 1)
    assert up0 == Exit(span.N.degeneracy(p.gamma, 0), 2)
    assert up1 == Exit(span.N.degeneracy(p.gamma, 1), 1)
    assert detect_degenerate_exit(span, up0) == (p, 0)
    assert detect_degenerate_exit(span, up1) == (p, 1)


def test_face_index_bounds():
    span = boundary_collar_span()
    e = Exit(nondeg("0,1", 1), 1)
    with pytest.raises(ValueError):
        exit_face(span, e, 2)
    with pytest.raises(ValueError):
        exit_face(span, Low(nondeg("m", 0)), 0)
    with pytest.raises(ValueError):
        exit_degeneracy(span, e, 2)
    # exit_face_values leaves its indices to the calls it makes, and
    # each bad index raises there
    for values, j, i, error in [((0, 1), 2, 0, ValueError), ((0, 1), 1, 2, KeyError),
                                ((0, 1, 1), 1, 3, IndexError), ((0, 1, 1), 1, -1, ValueError)]:
        with pytest.raises(error):
            exit_face_values(span, "0,1", values, j, i)


def test_membership_is_closed_under_faces_and_degeneracies():
    for name in SPAN_NAMES:
        span = load_span(name)
        for k in range(1, 4):
            for p in exit_simplices(span, k):
                for i in range(k + 1):
                    f = exit_face(span, p, i)
                    if isinstance(f, Exit):
                        assert is_exit_path(span, f.gamma, f.index)
                    s = exit_degeneracy(span, p, i)
                    assert is_exit_path(span, s.gamma, s.index)


# -- degeneracy detection and normal forms ------------------------------------------


def test_dimension_one_paths_never_degenerate():
    span = boundary_collar_span()
    assert detect_degenerate_exit(span, Exit(degenerate_edge("0"), 1)) is None


def test_detect_agrees_with_enumeration():
    # a path is degenerate iff it is s_i of some lower path; compare the
    # closed-form detector against brute-force enumeration
    for name in SPAN_NAMES:
        span = load_span(name)
        for k in range(2, 5):
            images = {}
            for q in exit_simplices(span, k - 1):
                for i in range(k):
                    img = exit_degeneracy(span, q, i)
                    images.setdefault(img, (q, i))
            for p in exit_simplices(span, k):
                hit = detect_degenerate_exit(span, p)
                assert (hit is not None) == (p in images), (name, p)
                if hit is not None:
                    q, i = hit
                    assert exit_degeneracy(span, q, i) == p


def test_normal_form_roundtrip():
    for name in SPAN_NAMES:
        span = load_span(name)
        ex = build_exit(span, 4)
        for k in range(5):
            tagged = set()
            for s in ex.simplices_at(k):
                t = ex.tagged(s)
                tagged.add(t)
                core, op = exit_normal_form(span, t)
                assert FormalSimplex(exit_label(core), op) == s, (name, s)
            assert tagged == set(all_exit_simplices(span, k)), (name, k)


def test_exit_labels():
    span = boundary_collar_span()
    assert exit_label(Low(nondeg("m", 0))) == "M.m"
    assert exit_label(Upper(nondeg("0,1", 1))) == "N.0,1"
    assert exit_label(Exit(nondeg("0,1", 1), 1)) == "P.0,1@1"
    assert exit_label(Exit(degenerate_edge("0"), 1)) == "P.0+s0@1"


# -- the prism decomposition against the peeling oracles -------------------------------


def peeling_detect(span, p):
    """detect_degenerate_exit as first written: try each repeat of sigma
    in turn, take the face there and ask whether it is an exit path."""
    gamma, j, k = p.gamma, p.index, p.dim
    if k < 2:
        return None
    sigma = gamma.degeneracy
    for i in range(k):
        if sigma.values[i] != sigma.values[i + 1]:
            continue
        if i >= j:
            e = j
        elif i < j - 1:
            e = j - 1
        else:
            continue
        if not 1 <= e <= k - 1:
            continue
        q_gamma = span.N.face(gamma, i)
        if is_exit_path(span, q_gamma, e):
            return Exit(q_gamma, e), i
    return None


def peeling_normal_form(span, p):
    """The normal form of an exit path, peeled one repeat at a time."""
    word = []
    while (hit := peeling_detect(span, p)) is not None:
        p, i = hit
        word.append(i)
    op = identity(p.dim + len(word))
    for i in word:
        op = compose(degeneracy_op(op.dst_dim - 1, i), op)
    return p, op


def assert_matches_peeling(span, depth=5):
    """build_exit's exit generators, detect_degenerate_exit and
    exit_normal_form agree with the oracles on every pair (gamma, j)."""
    ex = build_exit(span, depth)
    for k in range(1, depth + 1):
        want = [p for p in exit_simplices(span, k) if peeling_detect(span, p) is None]
        got = [g for g in ex.generators(k) if g.startswith("P.")]
        assert got == [exit_label(t) for t in want], (span.name, k)
        assert [ex.payload[g] for g in got] == want, (span.name, k)
        for gamma in span.N.simplices_at(k):
            for j in range(1, k + 1):
                p = Exit(gamma, j)
                hit = detect_degenerate_exit(span, p)
                assert hit == peeling_detect(span, p), (span.name, p)
                if is_exit_path(span, gamma, j):
                    assert exit_normal_form(span, p) == peeling_normal_form(span, p), \
                        (span.name, p)
                else:
                    assert hit is None, (span.name, p)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SPANS))
def test_prism_decomposition_matches_peeling(name):
    assert_matches_peeling(MEMBERSHIP_SPANS[name]())


def small_prefix_spans():
    """prefix_span for every poset P on at most three labelled elements
    and every down-closed P' of P."""
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
                    yield prefix_span(f"P{rel}>{prefix}", elements, rel, prefix)


def test_prism_decomposition_on_small_posets():
    spans = list(small_prefix_spans())
    # down-sets summed over the 1 + 1 + 3 + 19 labelled posets: 1 + 2 +
    # (4 + 3 + 3) + (8 + 6 * 6 + 6 * 4 + 3 * 5 + 3 * 5), where the 19 on
    # three elements are the antichain, one relation, chains, V and wedge
    assert len(spans) == 111
    for span in spans:
        assert_matches_peeling(span)


# -- the simplicial identities on tagged simplices -----------------------------------


def each_tagged(span, max_dim):
    for k in range(max_dim + 1):
        yield from all_exit_simplices(span, k)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_tagged_identity_dd(name):
    span = load_span(name)
    for s in each_tagged(span, 3):
        n = s.dim
        if n < 2:
            continue
        for j in range(1, n + 1):
            for i in range(j):
                assert exit_face(span, exit_face(span, s, j), i) == \
                    exit_face(span, exit_face(span, s, i), j - 1), (s, i, j)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_tagged_identity_ds(name):
    span = load_span(name)
    for s in each_tagged(span, 3):
        n = s.dim
        for j in range(n + 1):
            up = exit_degeneracy(span, s, j)
            for i in range(n + 2):
                got = exit_face(span, up, i)
                if i < j:
                    want = exit_degeneracy(span, exit_face(span, s, i), j - 1)
                elif i in (j, j + 1):
                    want = s
                else:
                    want = exit_degeneracy(span, exit_face(span, s, i - 1), j)
                assert got == want, (s, i, j)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_tagged_identity_ss(name):
    span = load_span(name)
    for s in each_tagged(span, 3):
        n = s.dim
        for j in range(n + 1):
            for i in range(j + 1):
                assert exit_degeneracy(span, exit_degeneracy(span, s, j), i) == \
                    exit_degeneracy(span, exit_degeneracy(span, s, i), j + 1), (s, i, j)


# -- integrity -----------------------------------------------------------------------


def test_low_lift_failure_is_span_integrity_error():
    # corrupt iota's generator table behind its back: the low face of
    # a legitimate exit path then has no lift
    span = boundary_collar_span()
    e = Exit(nondeg("0,1", 1), 1)
    span.iota._preimage_gens.clear()
    with pytest.raises(SpanIntegrityError):
        exit_face(span, e, 1)


def test_low_lift_failure_in_build_exit_names_the_face():
    # front_lifts answers from its cache once a first build has filled
    # it, so only the low face finds the generator table empty
    span = boundary_collar_span()
    build_exit(span, 1)
    span.iota._preimage_gens.clear()
    with pytest.raises(SpanIntegrityError) as e:
        build_exit(span, 1)
    assert str(e.value) == ("boundary-collar: low face 0 has no lift through iota, but "
                            "membership of the ambient exit path was already established")


# -- build_exit against the tagged path ------------------------------------------------


def tagged_build_exit(span, depth):
    """build_exit as first written: each face of each tagged generator
    by exit_face, re-expressed by exit_normal_form and exit_label."""
    span.require_iota(depth)
    ex = ExitComplex(span, depth)
    lifts = span.front_lifts

    def formal(s):
        core, op = exit_normal_form(span, s)
        return FormalSimplex(exit_label(core), op)

    for k in range(depth + 1):
        new = [(Low(nondeg(g, k)), "low") for g in span.M.generators(k)]
        new += [(Exit(FormalSimplex(g, degeneracy_op(k - 1, i)), i + 1), f"exit@{i + 1}")
                for g in span.N.generators(k - 1) for i in range(k) if lifts(g, i)]
        new += [(Exit(nondeg(g, k), j), f"exit@{j}")
                for g in span.N.generators(k) for j in range(1, k + 1) if lifts(g, j - 1)]
        new += [(Upper(nondeg(g, k)), "upper") for g in span.N.generators(k)]
        for tagged, note in new:
            label = exit_label(tagged)
            faces = [formal(exit_face(span, tagged, i)) for i in range(k + 1)] if k else None
            ex.add_generator(k, label, faces, note=note)
            ex.payload[label] = tagged
    return ex


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
    N = nerve_of_poset(labels, rel, f"seeded{i}-N")
    prefix = labels[:r]
    L = nerve_of_poset(prefix, [(a, b) for a, b in rel if b in prefix], f"seeded{i}-L")
    chain = [f"c{v}" for v in range(m)]
    M = nerve_of_poset(chain, [(chain[a], chain[b]) for a in range(m)
                               for b in range(a + 1, m)], f"seeded{i}-M")
    level = dict(zip(prefix, sorted(rng.randrange(m) for _ in prefix)))

    def image(label, d):
        xs = [level[x] for x in label.split(",")]
        hit = sorted(set(xs))
        return FormalSimplex(",".join(chain[v] for v in hit),
                             Operator(d, len(hit) - 1, tuple(hit.index(v) for v in xs)))

    pi = SimplicialMap("pi", L, M, {g: image(g, d) for g, d in L.gen_dims.items()})
    iota = SimplicialMap("iota", L, N, {g: nondeg(g, d) for g, d in L.gen_dims.items()})
    return LinkedSpan(f"seeded{i}", M, L, N, pi, iota)


def seeded_poset_spans(rng, count):
    spans = [seeded_poset_span(rng, i) for i in range(count)]
    # the family reaches every part of Ex: low generators above the
    # vertices, exit paths of both kinds and low faces of exit paths
    assert any(span.M.generators(1) for span in spans)
    assert any(g.startswith("P.") and "+s" in g and ex.face_table[(g, 2)].gen.startswith("M.")
               for ex in (build_exit(span, 3) for span in spans) for g in ex.generators(2))
    return spans


ORACLE_SPANS = {
    **{name: (lambda name=name: load_span(name)) for name in SPAN_NAMES},
    **{f"cone-simplex{n}": (lambda n=n: cone_span(standard_simplex(n))) for n in range(1, 5)},
    "seeded": lambda: seeded_poset_spans(random.Random(20240), 30),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPANS))
def test_build_exit_matches_the_tagged_path(name):
    spans = ORACLE_SPANS[name]()
    for span in spans if isinstance(spans, list) else [spans]:
        for depth in range(6):
            got, want = build_exit(span, depth), tagged_build_exit(span, depth)
            assert print_sset(got) == print_sset(want), (span.name, depth)
            assert got.notes == want.notes, (span.name, depth)
            assert [(g, repr(t)) for g, t in got.payload.items()] == \
                [(g, repr(t)) for g, t in want.payload.items()], (span.name, depth)


# -- front_lifts against the face walk -------------------------------------------------


def test_front_lifts_match_the_face_walk():
    spans = [load_span(name) for name in SPAN_NAMES]
    spans += [cone_span(standard_simplex(n)) for n in range(1, 5)]
    spans += seeded_poset_spans(random.Random(20240), 30) + list(small_prefix_spans())
    answers = []
    for span in spans:
        for g, d in span.N.gen_dims.items():
            for r in range(d + 1):
                got = span.front_lifts(g, r)
                assert got == front_face_lifts(span, g, r), (span.name, g, r)
                answers.append(got)
    assert len(spans) == 150 and len(answers) == 1384
    assert True in answers and False in answers
