"""Generator normal form: the operator action, enumeration, audits, maps."""

from math import comb

import pytest

from exitpath.construction import build_exit
from exitpath.gallery import GALLERY, cone_span, load_span
from exitpath.operators import (
    Operator,
    compose,
    epi_mono_factor,
    face_op,
    identity,
    monotone_maps,
)
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    empty_sset,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)


def chain3():
    return nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], "chain3")


def test_formal_simplex_normal_form_only():
    with pytest.raises(ValueError):
        FormalSimplex("x", face_op(1, 0))  # injective part not allowed
    s = nondeg("x", 2)
    assert s.dim == 2 and s.gen_dim == 2 and s.is_nondegenerate()


def test_standard_simplex_counts():
    # simplices of Delta[n] at degree k are the monotone maps [k] -> [n]
    for n in range(4):
        X = standard_simplex(n)
        for k in range(6):
            assert X.count_at(k) == comb(n + k + 1, n)


def test_act_identity_and_functoriality():
    X = standard_simplex(2)
    for n in range(3):
        for s in X.simplices_at(n):
            assert X.act(s, identity(n)) == s
    # X(op2 . op1-after: act(act(s, f), g) == act(s, compose(f, g))
    for s in X.simplices_at(2):
        for f in monotone_maps(1, 2):
            mid = X.act(s, f)
            for g in monotone_maps(2, 1):
                assert X.act(mid, g) == X.act(s, compose(f, g))


def test_act_dimension_mismatch():
    X = standard_simplex(1)
    with pytest.raises(ValueError):
        X.act(nondeg("0,1", 1), face_op(3, 0))
    with pytest.raises(ValueError):
        X.act(X.degeneracy(nondeg("0,1", 1), 0), face_op(1, 0))


def operator_act(X, s, op):
    """s . op by Operator algebra: refactor the composite with the
    degeneracy part, then peel the top missing coface off the injective
    part against the face table, one Operator at a time."""
    if op.dst_dim != s.dim:
        raise ValueError(f"operator {op!r} does not match simplex of dimension {s.dim}")
    epi, mono = epi_mono_factor(compose(s.degeneracy, op))
    gen = s.gen
    while not mono.is_identity():
        j = max(set(range(mono.dst_dim + 1)) - set(mono.values))
        entry = X.face_table[(gen, j)]
        lowered = Operator(mono.src_dim, mono.dst_dim - 1,
                           tuple(v if v < j else v - 1 for v in mono.values))
        epi2, mono = epi_mono_factor(compose(entry.degeneracy, lowered))
        epi = compose(epi2, epi)
        gen = entry.gen
    return FormalSimplex(gen, epi)


def exit_complex(name, depth):
    span = (cone_span(standard_simplex(2)) if name == "cone-simplex2"
            else load_span(name, verify_depth=depth))
    return build_exit(span, depth)


@pytest.mark.parametrize("name", sorted(GALLERY) + ["cone-simplex2"])
def test_act_agrees_with_operator_algebra(name):
    ex = exit_complex(name, 3)
    ops = {n: [op for m in range(4) for op in monotone_maps(m, n)] for n in range(4)}
    for n in range(4):
        for s in ex.simplices_at(n):
            for op in ops[n]:
                assert ex.act(s, op) == operator_act(ex, s, op), (s, op)


def test_face_degeneracy_section():
    X = chain3()
    for n in range(3):
        for s in X.simplices_at(n):
            for i in range(n + 1):
                assert X.face(X.degeneracy(s, i), i) == s
                assert X.face(X.degeneracy(s, i), i + 1) == s


def test_nerve_faces_delete_members():
    X = chain3()
    top = nondeg("a,b,c", 2)
    assert X.face(top, 0) == nondeg("b,c", 1)
    assert X.face(top, 1) == nondeg("a,c", 1)
    assert X.face(top, 2) == nondeg("a,b", 1)
    assert X.face(nondeg("a,c", 1), 0) == nondeg("c", 0)
    assert X.face(nondeg("a,c", 1), 1) == nondeg("a", 0)


def test_nerve_rejects_cycles():
    with pytest.raises(ValueError):
        nerve_of_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        nerve_of_poset(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        nerve_of_poset(["a", "a"], [])
    with pytest.raises(ValueError):
        nerve_of_poset(["a"], [("a", "b")])


def test_nerve_truncation():
    X = nerve_of_poset(["a", "b", "c"],
                       [("a", "b"), ("b", "c"), ("a", "c")], max_dim=1)
    assert X.max_gen_dim == 1
    assert X.generators(1) == ["a,b", "a,c", "b,c"]


def test_simplices_at_order_is_canonical():
    X = standard_simplex(1)
    assert [repr(s) for s in X.simplices_at(1)] == ["0+s0", "1+s0", "0,1"]
    assert [repr(s) for s in X.simplices_at(2)] == \
        ["0+s0s1", "1+s0s1", "0,1+s0", "0,1+s1"]


def test_generator_validation():
    X = SimplicialSet("bad")
    X.add_generator(0, "a")
    with pytest.raises(ValueError):
        X.add_generator(0, "a")  # duplicate
    with pytest.raises(ValueError):
        X.add_generator(1, "e")  # missing faces
    with pytest.raises(ValueError):
        X.add_generator(1, "e", [nondeg("a", 0)])  # wrong count
    with pytest.raises(ValueError):
        X.add_generator(1, "e", [nondeg("a", 0), nondeg("zz", 0)])  # unknown face
    with pytest.raises(ValueError):
        X.add_generator(0, "v", [nondeg("a", 0)])  # vertex with faces


def corrupted_triangle():
    # T's face table breaks d_0 d_2 = d_1 d_0 on purpose
    X = SimplicialSet("corrupt")
    X.add_generator(0, "a")
    X.add_generator(0, "b")
    X.add_generator(1, "e", [nondeg("b", 0), nondeg("a", 0)])
    X.add_generator(2, "T", [nondeg("e", 1), nondeg("e", 1), nondeg("e", 1)])
    return X


def test_audit_reports_broken_face_table():
    X = corrupted_triangle()
    problems = X.audit()
    assert problems and "T" in problems[0]
    with pytest.raises(ValueError):
        X.assert_coherent()
    assert chain3().audit() == []


def four_face_audit(X):
    """The audit as first written: four face calls per pair (i, j)."""
    problems = []
    for d in sorted(X.gens):
        if d < 2:
            continue
        for label in X.gens[d]:
            g = nondeg(label, d)
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = X.face(X.face(g, j), i)
                    rhs = X.face(X.face(g, i), j - 1)
                    if lhs != rhs:
                        problems.append(
                            f"{X.name}: d_{i} d_{j} {label} = {lhs!r} "
                            f"but d_{j-1} d_{i} {label} = {rhs!r}"
                        )
    return problems


def act_face(X, s, i):
    return X.act(s, face_op(s.dim, i))


def corrupted_tetrahedron():
    # Q's last face is a degenerate triangle, so one of Q's two broken
    # identities reads a face of a degenerate entry
    X = standard_simplex(2, "corrupt3")
    e01 = nondeg("0,1", 1)
    X.add_generator(3, "Q", [nondeg("0,1,2", 2)] * 3 + [X.degeneracy(e01, 0)])
    return X


def gallery_complexes():
    for name in sorted(GALLERY):
        span = load_span(name, verify_depth=4)
        yield from (span.M, span.L, span.N, build_exit(span, 4))


def test_audit_agrees_with_four_face_audit():
    for X in [corrupted_triangle(), corrupted_tetrahedron(), *gallery_complexes()]:
        assert X.audit() == four_face_audit(X), X.name
    assert corrupted_tetrahedron().audit()[1] == "corrupt3: d_2 d_3 Q = 0+s0 but d_2 d_2 Q = 0,1"


def test_face_agrees_with_act():
    for X in [corrupted_triangle(), corrupted_tetrahedron(), *gallery_complexes()]:
        for n in range(1, 4):
            for s in X.simplices_at(n):
                for i in range(n + 1):
                    assert X.face(s, i) == act_face(X, s, i), (X.name, s, i)


def test_face_input_checks():
    X = chain3()
    top = nondeg("a,b,c", 2)
    for s, i in ((top, 3), (top, -1), (X.degeneracy(top, 0), 4), (nondeg("a", 0), 0)):
        with pytest.raises(ValueError):
            X.face(s, i)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_count_at_closed_form(name):
    span = load_span(name, verify_depth=5)
    for X in (span.M, span.L, span.N, build_exit(span, 5)):
        for n in range(6):
            assert X.count_at(n) == len(X.simplices_at(n)), (X.name, n)


def test_empty_and_point():
    assert empty_sset().count_at(0) == 0
    assert empty_sset().simplices_at(3) == []
    P = standard_simplex(0)
    for k in range(5):
        assert P.count_at(k) == 1


# -- maps ---------------------------------------------------------------------


def test_map_naturality_enforced():
    X = standard_simplex(1)
    degenerate_edge = FormalSimplex("0", Operator(1, 0, (0, 0)))
    with pytest.raises(ValueError):
        SimplicialMap("crush", X, X, {"0": nondeg("0", 0), "1": nondeg("1", 0),
                                      "0,1": degenerate_edge})
    with pytest.raises(ValueError):
        SimplicialMap("partial", X, X, {"0": nondeg("0", 0)})
    with pytest.raises(ValueError):
        SimplicialMap("wrongdim", X, X, {"0": nondeg("0,1", 1), "1": nondeg("1", 0),
                                         "0,1": nondeg("0,1", 1)})


def test_map_action_by_naturality():
    X = standard_simplex(1)
    Y = chain3()
    f = SimplicialMap("f", X, Y, {"0": nondeg("a", 0), "1": nondeg("c", 0),
                                  "0,1": nondeg("a,c", 1)})
    assert f.audit() == []
    s = X.degeneracy(nondeg("0,1", 1), 0)
    assert f(s) == Y.degeneracy(nondeg("a,c", 1), 0)


def test_is_mono_and_preimage():
    X = standard_simplex(1)
    P = standard_simplex(0, "pt")
    inc = SimplicialMap("inc", P, X, {"0": nondeg("1", 0)})
    ok, witness = inc.is_mono(3)
    assert ok and witness is None
    assert inc.mono_bound >= 3
    assert inc.preimage(FormalSimplex("1", Operator(1, 0, (0, 0)))) is not None
    assert inc.preimage(nondeg("0,1", 1)) is None

    crush = SimplicialMap("crush", X, P,
                          {"0": nondeg("0", 0), "1": nondeg("0", 0),
                           "0,1": FormalSimplex("0", Operator(1, 0, (0, 0)))})
    ok, witness = crush.is_mono(2)
    assert not ok and "degree 0" in witness


def test_is_mono_witness_is_first_clash_in_canonical_order():
    # three edges a -> b; e and f land on the same edge, g on a degenerate one
    X = SimplicialSet("parallel")
    X.add_generator(0, "a")
    X.add_generator(0, "b")
    for label in "efg":
        X.add_generator(1, label, [nondeg("b", 0), nondeg("a", 0)])
    Y = standard_simplex(1)
    m = SimplicialMap("m", X, Y, {"a": nondeg("0", 0), "b": nondeg("1", 0),
                                  "e": nondeg("0,1", 1), "f": nondeg("0,1", 1),
                                  "g": nondeg("0,1", 1)})
    assert m.is_mono(3) == (False, "degree 1: e and f both map to 0,1")
    assert m.mono_bound == -1
    firsts = [X.degeneracy(nondeg("a", 0), 0), X.degeneracy(nondeg("b", 0), 0), nondeg("e", 1)]
    assert m.image_table(1) == {m(x): x for x in firsts}


def test_preimage_requires_verification():
    X = standard_simplex(1)
    P = standard_simplex(0, "pt")
    inc = SimplicialMap("inc", P, X, {"0": nondeg("0", 0)})
    with pytest.raises(RuntimeError):
        inc.preimage(nondeg("0", 0))
