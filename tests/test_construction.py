"""Exit paths: membership, the face/degeneracy dispatch, normal forms,
and the simplicial identities, on (generator, values, index) triples
and through the tagged view of tests/oracles.py."""

import random

import pytest

from exitpath.construction import (
    LinkedSpan,
    SpanIntegrityError,
    build_exit,
    detect_degenerate_exit,
    exit_degeneracy,
    exit_face,
    exit_label,
    exit_normal_form,
    exit_simplices,
    is_exit_path,
)
from exitpath.documents import print_sset
from exitpath.gallery import (
    GALLERY,
    cone_span,
    discrete,
    load_span,
    point,
)
from exitpath.operators import Operator, compose, degeneracy_op, degeneracy_word, identity
from exitpath.shuffles import (
    classify_face,
    collapse,
    exit_shuffle,
    flat,
    restriction_operator,
    sharp,
)
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    nerve_of_map,
    nondeg,
    standard_simplex,
)
from oracles import (
    Exit,
    Low,
    Upper,
    all_exit_simplices,
    front_face_lifts,
    pair,
    prefix_span,
    seeded_poset_spans,
    small_prefix_spans,
    tagged_degeneracy,
    tagged_detect,
    tagged_exit,
    tagged_face,
    tagged_label,
    tagged_normal_form,
)

SPAN_NAMES = sorted(GALLERY)


def degenerate_edge(vertex: str) -> FormalSimplex:
    return FormalSimplex(vertex, Operator(1, 0, (0, 0)))


# -- membership ----------------------------------------------------------------


def test_membership_on_the_collar():
    span = load_span("boundary-collar")
    assert is_exit_path(span, "0,1", (0, 1), 1)
    assert is_exit_path(span, *pair(degenerate_edge("0")), 1)
    assert not is_exit_path(span, *pair(degenerate_edge("1")), 1)


def test_membership_input_checks():
    """The five shuffle functions and is_exit_path, exit_normal_form and
    detect_degenerate_exit refuse k < 1 and an exit index outside 1..k
    with the same two messages; flat, which needs k >= 2, only the
    second."""
    span = load_span("boundary-collar")

    def path(k):
        # a k-simplex of the collar: a vertex below k = 1, s_0^{k-1} of the edge from it
        return ("0", (0,) * (k + 1)) if k < 1 else ("0,1", (0,) * k + (1,))

    checks = {"exit_shuffle": exit_shuffle, "collapse": collapse,
              "flat": lambda k, j: flat(k, j, 0), "sharp": lambda k, j: sharp(k, j, 0),
              "classify_face": lambda k, j: classify_face(k, j, 0),
              "is_exit_path": lambda k, j: is_exit_path(span, *path(k), j),
              "exit_normal_form": lambda k, j: exit_normal_form(path(k)[1], j),
              "detect_degenerate_exit": lambda k, j: detect_degenerate_exit(span, *path(k), j)}
    for name, check in checks.items():
        if name != "flat":
            for k in (0, -1):
                with pytest.raises(ValueError, match=r"^exit paths start in dimension 1$"):
                    check(k, 1)
                    pytest.fail(f"{name} took k = {k}")
        for k in (2, 3) if name == "flat" else (1, 2):
            for j in (0, -1, k + 1):
                with pytest.raises(ValueError, match=rf"^exit index {j} outside 1\.\.{k}$"):
                    check(k, j)
                    pytest.fail(f"{name} took the exit index {j} at k = {k}")


def test_linked_span_and_build_exit_refusals():
    span = load_span("boundary-collar")
    M, L, N, pi, iota = span.M, span.L, span.N, span.pi, span.iota
    with pytest.raises(ValueError, match=r"^s: pi must map L to M$"):
        LinkedSpan("s", N, L, N, pi, iota)
    with pytest.raises(ValueError, match=r"^s: iota must map L to N$"):
        LinkedSpan("s", M, L, M, pi, iota)
    with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
        build_exit(span, -1)


def test_exit_path_index_range():
    with pytest.raises(ValueError):
        Exit(nondeg("0,1", 1), 2)
    with pytest.raises(ValueError):
        Exit(nondeg("0,1", 1), 0)


def test_same_gamma_different_index_are_distinct():
    span = load_span("point-cone")
    gamma = span.N.degeneracy(degenerate_edge("x"), 0)
    assert Exit(gamma, 1) != Exit(gamma, 2)
    assert is_exit_path(span, *pair(gamma), 1) and is_exit_path(span, *pair(gamma), 2)


def collapsed_span():
    """Two link vertices onto one vertex of N: iota is mono through no
    degree."""
    L = discrete("twolink", ["l1", "l2"])
    N = point("onept", "n")
    M = point("onebase", "m")
    pi = nerve_of_map("pi", L, M, {"l1": "m", "l2": "m"})
    iota = nerve_of_map("iota", L, N, {"l1": "n", "l2": "n"})
    return LinkedSpan("collapsed", M, L, N, pi, iota)


def test_membership_requires_verified_iota():
    span = collapsed_span()
    assert not span.iota.is_mono(0)[0]
    assert span.iota.mono_bound == -1
    with pytest.raises(RuntimeError):
        is_exit_path(span, "n", (0, 0), 1)
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


def diamond_prefix_span():
    """pt <- nerve(a < b) -> nerve(a < b < d, a < c < d): L is the
    nerve of a proper down-closed subset, so whether a front face lifts
    depends on how far along the chain it reaches."""
    rel = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return prefix_span("diamond-prefix", ["a", "b", "c", "d"], rel, ["a", "b"],
                       point("base", "m"), {"a": "m", "b": "m"})


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
                assert is_exit_path(span, *pair(gamma), j) == member, (gamma, j)
                outcomes.add(member)
                if member:
                    want.append((*pair(gamma), j))
        assert exit_simplices(span, k) == want, k
    if name == "diamond-prefix":
        assert outcomes == {False, True}


def test_exit_simplices_order_and_counts():
    span = load_span("boundary-collar")
    paths = exit_simplices(span, 1)
    assert paths == [("0", (0, 0), 1), ("0,1", (0, 1), 1)]
    assert [repr(tagged_exit(*p)) for p in paths] == ["exit(0+s0@1)", "exit(0,1@1)"]
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
    span = load_span("boundary-collar")
    e = Exit(nondeg("0,1", 1), 1)
    assert tagged_face(span, e, 1) == Low(nondeg("m", 0))
    assert tagged_face(span, e, 0) == Upper(nondeg("1", 0))
    assert exit_face(span, "0,1", (0, 1), 1, 1) == ("M", "m", (0,), None)
    assert exit_face(span, "0,1", (0, 1), 1, 0) == ("N", "1", (0,), None)


def test_triangle_face_dispatch():
    span = load_span("boundary-collar")
    b = nondeg("0,1", 1)
    t = Exit(span.N.degeneracy(b, 0), 1)
    assert tagged_face(span, t, 0) == Upper(b)
    assert tagged_face(span, t, 1) == Exit(b, 1)
    assert tagged_face(span, t, 2) == Exit(degenerate_edge("0"), 1)


def test_low_face_lands_through_pi():
    span = load_span("broken")
    e = Exit(nondeg("0,1", 1), 1)
    # the link sits at vertex 0 of N and pi sends it to vertex 1 of M
    assert tagged_face(span, e, 1) == Low(nondeg("1", 0))


def test_low_and_upper_parts_are_closed():
    span = load_span("boundary-collar")
    m = Low(span.M.degeneracy(nondeg("m", 0), 0))
    assert isinstance(tagged_face(span, m, 0), Low)
    assert isinstance(tagged_degeneracy(span, m, 0), Low)
    n = Upper(nondeg("0,1", 1))
    assert isinstance(tagged_face(span, n, 1), Upper)
    assert isinstance(tagged_degeneracy(span, n, 0), Upper)


def test_degeneracies_of_an_exit_edge():
    span = load_span("boundary-collar")
    p = Exit(nondeg("0,1", 1), 1)
    up0 = tagged_degeneracy(span, p, 0)
    up1 = tagged_degeneracy(span, p, 1)
    assert up0 == Exit(span.N.degeneracy(p.gamma, 0), 2)
    assert up1 == Exit(span.N.degeneracy(p.gamma, 1), 1)
    assert tagged_detect(span, up0) == (p, 0)
    assert tagged_detect(span, up1) == (p, 1)
    assert exit_degeneracy("0,1", (0, 1), 1, 0) == ("0,1", (0, 0, 1), 2)
    assert detect_degenerate_exit(span, "0,1", (0, 0, 1), 2) == (("0,1", (0, 1), 1), 0)


def test_face_index_bounds():
    span = load_span("boundary-collar")
    e = Exit(nondeg("0,1", 1), 1)
    with pytest.raises(ValueError):
        tagged_face(span, e, 2)
    with pytest.raises(ValueError):
        tagged_face(span, Low(nondeg("m", 0)), 0)
    with pytest.raises(ValueError):
        tagged_degeneracy(span, e, 2)
    with pytest.raises(ValueError):
        exit_degeneracy("0,1", (0, 1), 1, 2)
    # exit_face leaves its indices to the calls it makes, and each bad
    # index raises there
    for values, j, i, error in [((0, 1), 2, 0, ValueError), ((0, 1), 1, 2, IndexError),
                                ((0, 1, 1), 1, 3, IndexError), ((0, 1, 1), 1, -1, ValueError)]:
        with pytest.raises(error):
            exit_face(span, "0,1", values, j, i)


def test_membership_is_closed_under_faces_and_degeneracies():
    for name in SPAN_NAMES:
        span = load_span(name)
        for k in range(1, 4):
            for gen, values, j in exit_simplices(span, k):
                for i in range(k + 1):
                    part, h, tau, e = exit_face(span, gen, values, j, i)
                    if part == "P":
                        assert is_exit_path(span, h, tau, e)
                    assert is_exit_path(span, *exit_degeneracy(gen, values, j, i))


# -- degeneracy detection and normal forms ------------------------------------------


def test_dimension_one_paths_never_degenerate():
    span = load_span("boundary-collar")
    assert detect_degenerate_exit(span, "0", (0, 0), 1) is None
    assert tagged_detect(span, Exit(degenerate_edge("0"), 1)) is None


def test_detect_agrees_with_enumeration():
    # a path is degenerate iff it is s_i of some lower path; compare the
    # closed-form detector against brute-force enumeration
    spans = [load_span(name) for name in SPAN_NAMES]
    spans += seeded_poset_spans(random.Random(20240), 30)
    for span in spans:
        for k in range(2, 5):
            images = {}
            for q in exit_simplices(span, k - 1):
                for i in range(k):
                    images.setdefault(exit_degeneracy(*q, i), (q, i))
            for p in exit_simplices(span, k):
                hit = detect_degenerate_exit(span, *p)
                assert (hit is not None) == (p in images), (span.name, p)
                if hit is not None:
                    q, i = hit
                    assert exit_degeneracy(*q, i) == p


def test_normal_form_roundtrip():
    spans = [load_span(name) for name in SPAN_NAMES]
    spans += [cone_span(standard_simplex(n)) for n in range(1, 4)]
    spans += seeded_poset_spans(random.Random(20240), 30)
    for span in spans:
        ex = build_exit(span, 4)
        for k in range(5):
            ts = all_exit_simplices(span, k)
            formal = set()
            for t in ts:
                core, op = tagged_normal_form(span, t)
                # sigma = sigma_{i_1} . ... . sigma_{i_r} with ascending word acts
                # contravariantly as s_{i_r} . ... . s_{i_1}, so s_{i_1} is applied first
                back = core
                for i in degeneracy_word(op):
                    back = tagged_degeneracy(span, back, i)
                assert back == t, (span.name, t)
                formal.add(FormalSimplex(tagged_label(core), op))
            assert formal == set(ex.simplices_at(k)), (span.name, k)
            assert len(ts) == len(ex.simplices_at(k)), (span.name, k)


def test_exit_labels():
    assert tagged_label(Low(nondeg("m", 0))) == "M.m"
    assert tagged_label(Upper(nondeg("0,1", 1))) == "N.0,1"
    assert tagged_label(Exit(nondeg("0,1", 1), 1)) == "P.0,1@1"
    assert tagged_label(Exit(degenerate_edge("0"), 1)) == "P.0+s0@1"
    assert exit_label("0,1", 0, 0) == "P.0,1@1"
    assert exit_label("0", 0, 1) == "P.0+s0@1"


def test_an_exit_label_clash_across_degrees_names_both_paths():
    # the edge e+s0 is an exit generator of degree 1, s_0 e one of degree
    # 2, and both are labelled P.e+s0@1 once the vertex a lifts
    N = SimplicialSet("N")
    for v in "ab":
        N.add_generator(0, v)
    for e in ("e", "e+s0"):
        N.add_generator(1, e, [nondeg("b", 0), nondeg("a", 0)])
    L = point("L", "a")
    span = LinkedSpan("clash", L, L, N, SimplicialMap("pi", L, L, {"a": nondeg("a", 0)}),
                      SimplicialMap("iota", L, N, {"a": nondeg("a", 0)}))
    assert "P.e+s0@1" in build_exit(span, 1).gen_dims
    with pytest.raises(ValueError) as e:
        build_exit(span, 2)
    assert str(e.value) == ("Ex(clash)<=2: exit paths (s_0 e, 1) and (e+s0, 1) are both "
                            "labelled 'P.e+s0@1'; rename N's generator 'e+s0'")


# -- the prism decomposition against the peeling oracles -------------------------------


def peeling_detect(span, p):
    """detect_degenerate_exit as first written: try each repeat of sigma
    in turn, take the face there and ask whether it is an exit path."""
    gamma, j, k = p.gamma, p.index, p.dim
    if k < 2:
        return None
    sigma = gamma.values
    for i in range(k):
        if sigma[i] != sigma[i + 1]:
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
        if is_exit_path(span, *pair(q_gamma), e):
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
        want = [p for p in (tagged_exit(*q) for q in exit_simplices(span, k))
                if peeling_detect(span, p) is None]
        got = [g for g in ex.generators(k) if g.startswith("P.")]
        assert got == [tagged_label(t) for t in want], (span.name, k)
        for gamma in span.N.simplices_at(k):
            for j in range(1, k + 1):
                p = Exit(gamma, j)
                hit = tagged_detect(span, p)
                assert hit == peeling_detect(span, p), (span.name, p)
                if is_exit_path(span, *pair(gamma), j):
                    assert tagged_normal_form(span, p) == peeling_normal_form(span, p), \
                        (span.name, p)
                else:
                    assert hit is None, (span.name, p)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SPANS))
def test_prism_decomposition_matches_peeling(name):
    assert_matches_peeling(MEMBERSHIP_SPANS[name]())


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
                assert tagged_face(span, tagged_face(span, s, j), i) == \
                    tagged_face(span, tagged_face(span, s, i), j - 1), (s, i, j)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_tagged_identity_ds(name):
    span = load_span(name)
    for s in each_tagged(span, 3):
        n = s.dim
        for j in range(n + 1):
            up = tagged_degeneracy(span, s, j)
            for i in range(n + 2):
                got = tagged_face(span, up, i)
                if i < j:
                    want = tagged_degeneracy(span, tagged_face(span, s, i), j - 1)
                elif i in (j, j + 1):
                    want = s
                else:
                    want = tagged_degeneracy(span, tagged_face(span, s, i - 1), j)
                assert got == want, (s, i, j)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_tagged_identity_ss(name):
    span = load_span(name)
    for s in each_tagged(span, 3):
        n = s.dim
        for j in range(n + 1):
            for i in range(j + 1):
                assert tagged_degeneracy(span, tagged_degeneracy(span, s, j), i) == \
                    tagged_degeneracy(span, tagged_degeneracy(span, s, i), j + 1), (s, i, j)


# -- integrity -----------------------------------------------------------------------


def test_low_lift_failure_is_span_integrity_error():
    # corrupt iota's generator table behind its back: the low face of
    # a legitimate exit path then has no lift
    span = load_span("boundary-collar")
    span.iota._preimage_gens.clear()
    with pytest.raises(SpanIntegrityError):
        exit_face(span, "0,1", (0, 1), 1, 1)


def test_low_lift_failure_in_build_exit_names_the_face():
    # front_lifts answers from its cache once a first build has filled
    # it, so only the low face finds the generator table empty
    span = load_span("boundary-collar")
    build_exit(span, 1)
    span.iota._preimage_gens.clear()
    with pytest.raises(SpanIntegrityError) as e:
        build_exit(span, 1)
    assert str(e.value) == ("boundary-collar: low face 0 has no lift through iota, but "
                            "membership of the ambient exit path was already established")


# -- build_exit against the tagged path ------------------------------------------------


def tagged_build_exit(span, depth):
    """build_exit as first written: each face of each tagged generator
    by tagged_face, re-expressed by tagged_normal_form and tagged_label."""
    span.require_iota(depth)
    ex = SimplicialSet(f"Ex({span.name})<={depth}")
    lifts = span.front_lifts

    def formal(s):
        core, op = tagged_normal_form(span, s)
        return FormalSimplex(tagged_label(core), op)

    for k in range(depth + 1):
        new = [(Low(nondeg(g, k)), "low") for g in span.M.generators(k)]
        new += [(Exit(FormalSimplex(g, degeneracy_op(k - 1, i)), i + 1), f"exit@{i + 1}")
                for g in span.N.generators(k - 1) for i in range(k) if lifts(g, i)]
        new += [(Exit(nondeg(g, k), j), f"exit@{j}")
                for g in span.N.generators(k) for j in range(1, k + 1) if lifts(g, j - 1)]
        new += [(Upper(nondeg(g, k)), "upper") for g in span.N.generators(k)]
        for tagged, note in new:
            label = tagged_label(tagged)
            faces = [formal(tagged_face(span, tagged, i)) for i in range(k + 1)] if k else None
            ex.add_generator(k, label, faces, note=note)
    return ex


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
