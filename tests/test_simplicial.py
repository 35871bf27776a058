"""Generator normal form: the operator action, enumeration, audits, maps."""

import random
from itertools import product
from math import comb

import pytest

from exitpath.construction import build_exit
from exitpath.gallery import GALLERY, cone_span, load_span, point
from exitpath.operators import (
    Operator,
    compose,
    compose_values,
    degeneracy_op,
    epi_mono_factor,
    face_op,
    identity,
)
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    nerve_of_map,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)
from exitpath.verify import Tables
from oracles import (
    chain3,
    corrupted_triangle,
    is_identity,
    monotone_maps,
    seeded_poset_spans,
    small_prefix_spans,
)


def test_formal_simplex_normal_form_only():
    with pytest.raises(ValueError):
        FormalSimplex("x", face_op(1, 0))  # injective part not allowed
    s = nondeg("x", 2)
    assert s.dim == 2 and s.gen_dim == 2 and s.is_nondegenerate()


@pytest.mark.parametrize("values", [(), (1,), (0, 2), (1, 0), [0, 0],
                                    Operator(1, 1, (0, 0))], ids=repr)
def test_formal_simplex_refuses_what_is_not_a_surjection(values):
    with pytest.raises(ValueError):
        FormalSimplex("x", values)


def test_formal_simplex_refuses_a_non_surjective_operator_by_its_message():
    with pytest.raises(ValueError) as e:
        FormalSimplex("x", Operator(1, 1, (0, 0)))
    assert str(e.value) == "degeneracy part must be surjective: [1]->[1]:(0,0)"


@pytest.mark.parametrize("n, d, values", [(0, 0, (0,)), (2, 2, (0, 1, 2)),
                                          (3, 1, (0, 0, 1, 1)), (2, 0, (0, 0, 0))])
def test_formal_simplex_holds_the_values_of_its_operator(n, d, values):
    by_operator, by_values = FormalSimplex("g", Operator(n, d, values)), FormalSimplex("g", values)
    assert by_operator == by_values and by_operator.values == values
    assert type(by_operator.values) is tuple
    assert hash(by_operator) == hash(by_values) and repr(by_operator) == repr(by_values)
    assert (by_values.dim, by_values.gen_dim) == (n, d)
    assert by_values.is_nondegenerate() == (n == d)
    assert not hasattr(by_values, "degeneracy")


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
    # functoriality: acting by f and then by g is acting by f . g
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
    epi, mono = epi_mono_factor(compose(Operator(s.dim, s.gen_dim, s.values), op))
    gen = s.gen
    while not is_identity(mono):
        j = max(set(range(mono.dst_dim + 1)) - set(mono.values))
        entry = X.faces[gen][j]
        lowered = Operator(mono.src_dim, mono.dst_dim - 1,
                           tuple(v if v < j else v - 1 for v in mono.values))
        epi2, mono = epi_mono_factor(
            compose(Operator(entry.dim, entry.gen_dim, entry.values), lowered))
        epi = compose(epi2, epi)
        gen = entry.gen
    return FormalSimplex(gen, epi)


def exit_complex(name, depth):
    span = (cone_span(standard_simplex(int(name.removeprefix("cone-simplex"))))
            if name.startswith("cone-simplex") else load_span(name))
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
    # a chain is labelled by its members joined with commas, so the edge
    # a,b < c would read as the chain a < b < c; the second poset used to
    # fail only at its build, as a duplicate generator 'a,b'
    for elements, relations in ((["a,b", "c"], [("a,b", "c")]), (["a", "b", "a,b"], [("a", "b")])):
        with pytest.raises(ValueError, match=r"^poset element 'a,b' contains ','$"):
            nerve_of_poset(elements, relations, "x")


def test_nerves_hold_the_identities_unaudited():
    # nerve_of_poset does not audit what it builds: each face deletes one
    # member of a chain, so the identities hold by construction
    nerves = [nerve_of_poset(e, r) for e, r in SMALL_POSETS]
    nerves += [standard_simplex(n) for n in range(6)]
    spans = [load_span(name) for name in sorted(GALLERY)]
    spans += seeded_poset_spans(random.Random(20240), 30) + list(small_prefix_spans())
    for X in nerves + [X for span in spans for X in (span.M, span.L, span.N)]:
        assert X.audit() == [], X.name
    for name in GALLERY:
        assert load_span(name).name == name


def test_simplices_at_order_is_canonical():
    X = standard_simplex(1)
    assert [repr(s) for s in X.simplices_at(1)] == ["0+s0", "1+s0", "0,1"]
    assert [repr(s) for s in X.simplices_at(2)] == \
        ["0+s0s1", "1+s0s1", "0,1+s0", "0,1+s1"]


def test_blocks_number_simplices_at():
    # blocks(n) holds the order simplices_at(n) lists: a simplex sits at
    # its generator's offset plus its surjection's rank
    spans = [load_span(name) for name in sorted(GALLERY)]
    spans += [cone_span(standard_simplex(k)) for k in range(4)]
    sets = [build_exit(span, 6) for span in spans] + [chain3(), SimplicialSet("empty")]
    for X in sets:
        for n in range(7):
            blocks = X.blocks(n)
            simplices = X.simplices_at(n)
            positions = [blocks[x.gen][0] + blocks[x.gen][2][x.values]
                         for x in simplices]
            assert positions == list(range(len(simplices))), (X.name, n)
            for offset, sigmas, ranks in blocks.values():
                assert list(ranks) == list(sigmas)
            end = max((offset + len(sigmas) for offset, sigmas, _ in blocks.values()),
                      default=0)
            assert end == X.count_at(n), (X.name, n)


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


def generator_state(X):
    return ({d: list(gs) for d, gs in X.gens.items()}, dict(X.gen_dims),
            dict(X.faces), dict(X.notes))


@pytest.mark.parametrize("dim, label, faces, message", [
    (0, "a", None, "bad: duplicate generator 'a'"),
    (1, "a", [nondeg("a", 0)] * 2, "bad: duplicate generator 'a'"),
    (-1, "v", None, "negative dimension for 'v'"),
    (0, "v", [nondeg("a", 0)], "vertex 'v' cannot have faces"),
    (1, "f", None, "'f' needs 2 faces"),
    (1, "f", [nondeg("a", 0)], "'f' needs 2 faces"),
    (2, "t", [nondeg("e", 1)] * 4, "'t' needs 3 faces"),
    (1, "f", [nondeg("a", 0), nondeg("e", 1)], "face 1 of 'f' has dimension 1, want 0"),
    (2, "t", [nondeg("e", 1), nondeg("e", 1), FormalSimplex("a", degeneracy_op(1, 1))],
     "face 2 of 't' has dimension 2, want 1"),
    (1, "f", [nondeg("a", 0), nondeg("zz", 0)], "face 1 of 'f' uses unknown generator 'zz'"),
    # the first face that fails answers, with its first failing check
    (1, "f", [nondeg("zz", 0), nondeg("e", 1)], "face 0 of 'f' uses unknown generator 'zz'"),
    (2, "t", [nondeg("e", 1), nondeg("a", 1), nondeg("zz", 0)],
     "face 1 of 't': 'a' has wrong dimension"),
    (2, "t", [FormalSimplex("e", degeneracy_op(0, 0)), nondeg("e", 1), nondeg("e", 1)],
     "face 0 of 't': 'e' has wrong dimension"),
], ids=["duplicate-vertex", "duplicate-edge", "negative-dimension", "vertex-with-faces",
        "no-faces", "too-few-faces", "too-many-faces", "face-too-high", "face-too-low",
        "unknown-face-generator", "first-face-answers", "vertex-read-as-edge",
        "edge-read-as-vertex"])
def test_add_generator_refusals(dim, label, faces, message):
    X = SimplicialSet("bad")
    X.add_generator(0, "a", note="a vertex")
    X.add_generator(1, "e", [nondeg("a", 0), nondeg("a", 0)])
    before = generator_state(X)
    with pytest.raises(ValueError) as e:
        X.add_generator(dim, label, faces, note="refused")
    assert str(e.value) == message
    assert generator_state(X) == before

def test_add_generator_stores_one_face_tuple():
    X = SimplicialSet("stored")
    X.add_generator(0, "a")
    edge = [nondeg("a", 0), nondeg("a", 0)]
    X.add_generator(1, "e", edge)
    faces = [nondeg("e", 1), FormalSimplex("a", degeneracy_op(0, 0)), nondeg("e", 1)]
    X.add_generator(2, "t", faces)
    assert X.faces == {"a": (), "e": tuple(edge), "t": tuple(faces)}
    for label, entries in (("e", edge), ("t", faces)):
        stored = X.faces[label]
        assert type(stored) is tuple
        # the very objects passed in, which face answers for the generator
        assert all(f is g for f, g in zip(stored, entries, strict=True))
        d = X.gen_dims[label]
        assert all(X.face(nondeg(label, d), i) is f for i, f in enumerate(entries))
    # the list passed in is copied: changing it later changes nothing
    faces[0] = nondeg("zz", 1)
    assert X.faces["t"][0] == nondeg("e", 1)


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


def corrupted_tetrahedron():
    # Q's last face is a degenerate triangle, so one of Q's two broken
    # identities reads a face of a degenerate entry
    X = standard_simplex(2, "corrupt3")
    e01 = nondeg("0,1", 1)
    X.add_generator(3, "Q", [nondeg("0,1,2", 2)] * 3 + [X.degeneracy(e01, 0)])
    return X


def gallery_complexes():
    for name in sorted(GALLERY):
        span = load_span(name)
        yield from (span.M, span.L, span.N, build_exit(span, 4))


def test_audit_agrees_with_four_face_audit():
    for X in [corrupted_triangle(), corrupted_tetrahedron(), *gallery_complexes()]:
        assert X.audit() == four_face_audit(X), X.name
    assert corrupted_tetrahedron().audit()[1] == "corrupt3: d_2 d_3 Q = 0+s0 but d_2 d_2 Q = 0,1"


def test_face_agrees_with_operator_algebra():
    # face against the Operator-algebra oracle, on face tables that break
    # the simplicial identities too
    for X in [corrupted_triangle(), corrupted_tetrahedron(), *gallery_complexes()]:
        for n in range(1, 4):
            for s in X.simplices_at(n):
                for i in range(n + 1):
                    assert X.face(s, i) == operator_act(X, s, face_op(n, i)), (X.name, s, i)


def test_face_input_checks():
    # the same ValueError as face_op / degeneracy_op, never a wrapped-around row
    X = chain3()
    top = nondeg("a,b,c", 2)
    for s in (top, X.degeneracy(top, 1), X.degeneracy(nondeg("a,c", 1), 0)):
        n = s.dim
        for i in (-1, n + 1):
            with pytest.raises(ValueError, match=rf"^coface index {i} outside \[{n}\]$"):
                X.face(s, i)
            with pytest.raises(ValueError, match=rf"^codegeneracy index {i} outside \[{n}\]$"):
                X.degeneracy(s, i)
    vertex = nondeg("a", 0)
    for i in (-1, 0, 1):
        with pytest.raises(ValueError, match=r"^no cofaces into \[0\]$"):
            X.face(vertex, i)
    for i in (-1, 1):
        with pytest.raises(ValueError, match=rf"^codegeneracy index {i} outside \[0\]$"):
            X.degeneracy(vertex, i)


@pytest.mark.parametrize("name", sorted(GALLERY) + ["cone-simplex2", "cone-simplex3"])
def test_face_and_degeneracy_are_the_action(name):
    # face and degeneracy, whose closed form act also runs, and the
    # (generator, values) form they wrap, against the Operator-algebra
    # oracle on every simplex and index through degree 6
    X = exit_complex(name, 5)
    # the padded gather's edges: (j == 0, j == d, stored d_j degenerate)
    # for each face d_i s whose surjection hits j = sigma(i) once
    padded = set()
    for n in range(7):
        for s in X.simplices_at(n):
            values = s.values
            for i in range(n + 1):
                if n:
                    face = operator_act(X, s, face_op(n, i))
                    assert X.face(s, i) == face, (s, i)
                    assert X.face_values(s.gen, values, i) == \
                        (face.gen, face.values), (s, i)
                    j = values[i]
                    if not s.is_nondegenerate() and values.count(j) == 1:
                        padded.add((j == 0, j == s.gen_dim,
                                    not X.faces[s.gen][j].is_nondegenerate()))
                degeneracy = operator_act(X, s, degeneracy_op(n, i))
                assert X.degeneracy(s, i) == degeneracy, (s, i)
                assert X.degeneracy_values(s.gen, values, i) == \
                    (degeneracy.gen, degeneracy.values), (s, i)
    if name.startswith("cone-simplex"):
        # only the cones store degenerate faces, each at j == d
        assert (True, False, False) in padded
        assert (False, True, True) in padded


def test_face_values_gathers_a_degenerate_stored_face_by_hand():
    # d_i of sigma^*g for sigma hitting j = sigma(i) once, at j = 0 and
    # j = d, where the stored d_j g is degenerate; pairs worked by hand
    # from the vertices of sigma^*g with the i-th dropped.  X's triangle
    # T stores degenerate d_0 and d_2; Y's tetrahedron G, on the vertices
    # x, x, y, y, stores the degenerate triangles d_0 = e+s1, d_3 = e+s0
    X = SimplicialSet("thin-triangle")
    X.add_generator(0, "a")
    X.add_generator(1, "l", [nondeg("a", 0), nondeg("a", 0)])
    X.add_generator(2, "T", [FormalSimplex("a", (0, 0)), nondeg("l", 1),
                             FormalSimplex("a", (0, 0))])
    Y = SimplicialSet("thin-tetrahedron")
    Y.add_generator(0, "x")
    Y.add_generator(0, "y")
    Y.add_generator(1, "e", [nondeg("y", 0), nondeg("x", 0)])
    e = nondeg("e", 1)
    Y.add_generator(2, "A", [FormalSimplex("y", (0, 0)), e, e])
    Y.add_generator(2, "B", [e, e, FormalSimplex("x", (0, 0))])
    Y.add_generator(3, "G", [FormalSimplex("e", (0, 1, 1)), nondeg("A", 2), nondeg("B", 2),
                             FormalSimplex("e", (0, 0, 1))])
    for Z in (X, Y):
        Z.assert_coherent()
    for sigma, i in [((0, 1, 1, 2), 0), ((0, 1, 2, 2), 0), ((0, 0, 1, 2), 3),
                     ((0, 1, 1, 2), 3)]:
        assert X.face_values("T", sigma, i) == ("a", (0, 0, 0)), (sigma, i)
    assert Y.face_values("G", (0, 1, 1, 2, 3), 0) == ("e", (0, 0, 1, 1))
    assert Y.face_values("G", (0, 1, 2, 3, 3), 0) == ("e", (0, 1, 1, 1))
    assert Y.face_values("G", (0, 0, 1, 2, 3), 4) == ("e", (0, 0, 0, 1))
    assert Y.face_values("G", (0, 1, 2, 2, 3), 4) == ("e", (0, 0, 1, 1))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_count_at_closed_form(name):
    span = load_span(name)
    for X in (span.M, span.L, span.N, build_exit(span, 5)):
        for n in range(6):
            assert X.count_at(n) == len(X.simplices_at(n)), (X.name, n)


def test_empty_and_point():
    assert SimplicialSet("empty").count_at(0) == 0
    assert SimplicialSet("empty").simplices_at(3) == []
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
    with pytest.raises(ValueError, match=r"^extra: image given for generators \['bogus'\] "
                                         r"not in simplex1$"):
        SimplicialMap("extra", X, X, {"0": nondeg("0", 0), "1": nondeg("1", 0),
                                      "0,1": nondeg("0,1", 1), "bogus": nondeg("0", 0)})
    # parse_smap refuses such a map line itself, so only the API reaches this
    Y = SimplicialSet("Y")
    Y.add_generator(0, "y")
    with pytest.raises(ValueError, match=r"^f: image of '0' not in Y$"):
        SimplicialMap("f", X, Y, {"0": nondeg("x", 0), "1": nondeg("y", 0),
                                  "0,1": FormalSimplex("y", Operator(1, 0, (0, 0)))})
    # nerve_of_map refuses a flip, which is not monotone, an element it
    # has no image for and an image for what is not an element
    with pytest.raises(ValueError, match=r"^flip: image of '0,1' not in simplex1$"):
        nerve_of_map("flip", X, X, {"0": "1", "1": "0"})
    with pytest.raises(ValueError, match=r"^f: no image for elements \['1'\]$"):
        nerve_of_map("f", X, X, {"0": "0"})
    with pytest.raises(ValueError, match=r"^f: image given for elements \['zzz'\] not in X$"):
        nerve_of_map("f", point("X", "x"), point("Y", "y"), {"x": "y", "zzz": "y"})
    with pytest.raises(ValueError, match=r"^f: image given for elements \['0,1'\] not in "
                                         r"simplex1$"):
        nerve_of_map("f", X, X, {"0": "0", "1": "1", "0,1": "1"})


def test_nerve_of_the_identity_is_the_identity():
    for X in [chain3(), standard_simplex(3)] + [nerve_of_poset(e, r) for e, r in SMALL_POSETS]:
        f = nerve_of_map("id", X, X, {x: x for x in X.generators(0)})
        assert f.assignment == {g: nondeg(g, d) for g, d in X.gen_dims.items()}


def test_nerve_of_map_on_operators():
    # for every operator f: [m] -> [n], m, n <= 3, Delta^m's top generator
    # goes to the chain of f's image under the epi part of f, and the map
    # of g . f is the composite of the maps of f and g
    simplices, nerves = [standard_simplex(n) for n in range(4)], {}
    for m, n in product(range(4), repeat=2):
        for f in monotone_maps(m, n):
            X, Y = simplices[m], simplices[n]
            nf = nerves[m, n, f.values] = nerve_of_map(
                repr(f), X, Y, {str(i): str(v) for i, v in enumerate(f.values)})
            epi, mono = epi_mono_factor(f)
            top = ",".join(X.generators(0))
            assert nf.assignment[top] == FormalSimplex(",".join(map(str, mono.values)), epi), f
    for (m, n, f), nf in nerves.items():
        for k in range(4):
            for g in monotone_maps(n, k):
                ng, ngf = nerves[n, k, g.values], nerves[m, k, compose_values(g.values, f)]
                for label, d in nf.domain.gen_dims.items():
                    s = nondeg(label, d)
                    assert ngf(s) == ng(nf(s)), (nf.name, ng.name, label)


def test_map_action_by_naturality():
    X = standard_simplex(1)
    Y = chain3()
    f = nerve_of_map("f", X, Y, {"0": "a", "1": "c"})
    assert f.audit() == []
    s = X.degeneracy(nondeg("0,1", 1), 0)
    assert f(s) == Y.degeneracy(nondeg("a,c", 1), 0)
    with pytest.raises(KeyError):
        f(nondeg("a", 0))
    with pytest.raises(ValueError, match=r"^operator \[1\]->\[1\]:\(0,1\) does not match "
                                         r"simplex of dimension 0$"):
        load_span("boundary-collar").iota(nondeg("l", 1))


def test_map_audit_names_each_unnatural_face():
    # the triangle sent to s_0 of the edge 1,2: d_0 agrees, d_1 and d_2
    # do not, and d_2 of the image is degenerate
    X, Y = standard_simplex(2), standard_simplex(2)
    f = SimplicialMap("f", X, Y, {g: nondeg(g, d) for g, d in X.gen_dims.items()})
    f.assignment["0,1,2"] = FormalSimplex("1,2", Operator(2, 1, (0, 0, 1)))
    assert f.audit() == ["f: image of d_1 0,1,2 is 0,2 but d_1 of the image is 1,2",
                         "f: image of d_2 0,1,2 is 0,1 but d_2 of the image is 1+s0"]
    # the same comparison on FormalSimplex values
    g = nondeg("0,1,2", 2)
    assert [i for i in range(3) if f(X.face(g, i)) != Y.face(f(g), i)] == [1, 2]


def test_is_mono_and_preimage():
    X = standard_simplex(1)
    P = standard_simplex(0, "pt")
    inc = SimplicialMap("inc", P, X, {"0": nondeg("1", 0)})
    ok, witness = inc.is_mono(3)
    assert ok and witness is None
    assert inc.mono_bound >= 3
    assert inc.preimage(FormalSimplex("1", Operator(1, 0, (0, 0)))) is not None
    assert inc.preimage(nondeg("0,1", 1)) is None

    crush = nerve_of_map("crush", X, P, {"0": "0", "1": "0"})
    ok, witness = crush.is_mono(2)
    assert not ok and "degree 0" in witness


def parallel_map():
    # three edges a -> b, all landing on the edge 0,1
    X = SimplicialSet("parallel")
    X.add_generator(0, "a")
    X.add_generator(0, "b")
    for label in "efg":
        X.add_generator(1, label, [nondeg("b", 0), nondeg("a", 0)])
    Y = standard_simplex(1)
    return SimplicialMap("m", X, Y, {"a": nondeg("0", 0), "b": nondeg("1", 0),
                                     "e": nondeg("0,1", 1), "f": nondeg("0,1", 1),
                                     "g": nondeg("0,1", 1)})


def test_is_mono_witness_is_first_clash_in_canonical_order():
    m = parallel_map()
    X = m.domain
    assert m.is_mono(3) == (False, "degree 1: e and f both map to 0,1")
    assert m.mono_bound == 0
    firsts = [X.degeneracy(nondeg("a", 0), 0), X.degeneracy(nondeg("b", 0), 0), nondeg("e", 1)]
    assert m.image_table(1) == {m(x): x for x in firsts}


def test_preimage_needs_no_is_mono_call():
    X = standard_simplex(1)
    P = standard_simplex(0, "pt")
    inc = SimplicialMap("inc", P, X, {"0": nondeg("0", 0)})
    assert inc.preimage(nondeg("0", 0)) == nondeg("0", 0)
    assert inc.preimage(nondeg("1", 0)) is None

    m = parallel_map()
    assert m.preimage(nondeg("1", 0)) == nondeg("b", 0)
    with pytest.raises(RuntimeError):
        m.preimage(nondeg("0,1", 1))
    with pytest.raises(RuntimeError):
        m.preimage(m.codomain.degeneracy(nondeg("0", 0), 0))


def test_map_action_agrees_with_operator_algebra():
    # f(sigma^*g) and the image column of Tables, both read from
    # image_values, against sigma acting on f(g) by Operator algebra;
    # cone pi has degenerate images and parallel_map is not injective
    spans = [load_span(name) for name in sorted(GALLERY)]
    maps = [f for span in spans for f in (span.pi, span.iota)]
    maps += [cone_span(standard_simplex(3)).pi, parallel_map()]
    for f in maps:
        source, target = Tables(f.domain), Tables(f.codomain)
        image = source.image(f, target)
        for n in range(5):
            simplices = f.domain.simplices_at(n)
            want = [operator_act(f.codomain, f.assignment[x.gen],
                                 Operator(x.dim, x.gen_dim, x.values))
                    for x in simplices]
            assert [f(x) for x in simplices] == want, (f.name, n)
            assert [target.simplex(n, q) for q in image[n]] == want, (f.name, n)


# -- injectivity against the per-degree scan ------------------------------------


def scanned_is_mono(f, depth):
    """Injectivity as decided by listing L_n degree by degree: the
    witness names the first simplex whose image an earlier one took."""
    for n in range(depth + 1):
        table = scanned_image_table(f, n)
        if len(table) < f.domain.count_at(n):
            s = next(s for s in f.domain.simplices_at(n) if table[f(s)] != s)
            return False, f"degree {n}: {table[f(s)]!r} and {s!r} both map to {f(s)!r}"
    return True, None


def scanned_image_table(f, n):
    table = {}
    for s in f.domain.simplices_at(n):
        table.setdefault(f(s), s)
    return table


# every poset on at most three elements, up to isomorphism
SMALL_POSETS = [
    ([], []), (["a"], []), (["a", "b"], []), (["a", "b"], [("a", "b")]),
    (["a", "b", "c"], []), (["a", "b", "c"], [("a", "b")]),
    (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    (["a", "b", "c"], [("a", "b"), ("a", "c")]), (["a", "b", "c"], [("a", "c"), ("b", "c")]),
]


def nerve_maps():
    """The map of nerves of every monotone map between SMALL_POSETS."""
    nerves = [nerve_of_poset(e, r, f"P{i}") for i, (e, r) in enumerate(SMALL_POSETS)]
    for P in nerves:
        for Q in nerves:
            for values in product(Q.generators(0), repeat=len(P.generators(0))):
                v = dict(zip(P.generators(0), values))
                if any(v[x] != v[y] and f"{v[x]},{v[y]}" not in Q.gen_dims
                       for x, y in (e.split(",") for e in P.generators(1))):
                    continue
                yield nerve_of_map(f"{P.name}->{Q.name}", P, Q, v)


def circle_to_point():
    X = SimplicialSet("circle")
    X.add_generator(0, "v")
    X.add_generator(1, "e", [nondeg("v", 0), nondeg("v", 0)])
    return SimplicialMap("crush", X, standard_simplex(0),
                         {"v": nondeg("0", 0), "e": FormalSimplex("0", Operator(1, 0, (0, 0)))})


def pillow_to_triangle():
    # two triangles on one boundary
    X = standard_simplex(2, "pillow")
    X.add_generator(2, "t2", list(X.faces["0,1,2"]))
    assignment = {g: nondeg(g, X.gen_dims[g]) for g in X.generators() if g != "t2"}
    return SimplicialMap("fold", X, standard_simplex(2), {**assignment, "t2": nondeg("0,1,2", 2)})


def thin_triangle():
    # t has d_0 t = s_0 b and d_1 t = d_2 t = e, so it may go to s_1 e
    X, Y = SimplicialSet("thin"), SimplicialSet("edge")
    for Z in (X, Y):
        Z.add_generator(0, "a")
        Z.add_generator(0, "b")
        Z.add_generator(1, "e", [nondeg("b", 0), nondeg("a", 0)])
    X.add_generator(2, "t", [X.degeneracy(nondeg("b", 0), 0), nondeg("e", 1), nondeg("e", 1)])
    X.assert_coherent()
    assignment = {g: nondeg(g, X.gen_dims[g]) for g in "abe"}
    return SimplicialMap("squash", X, Y, {**assignment, "t": Y.degeneracy(nondeg("e", 1), 1)})


def test_hand_built_maps_fail_above_degree_zero():
    assert circle_to_point().is_mono(4) == (False, "degree 1: v+s0 and e both map to 0+s0")
    assert pillow_to_triangle().is_mono(4) == (False, "degree 2: 0,1,2 and t2 both map to 0,1,2")
    assert thin_triangle().is_mono(4) == (False, "degree 2: e+s1 and t both map to e+s1")


def test_is_mono_lists_the_witness_degree_once(monkeypatch):
    f = pillow_to_triangle()
    listing = SimplicialSet.simplices_at
    listed = []

    def spy(self, n):
        listed.append(n)
        return listing(self, n)

    monkeypatch.setattr(SimplicialSet, "simplices_at", spy)
    assert f.is_mono(4) == (False, "degree 2: 0,1,2 and t2 both map to 0,1,2")
    assert listed == [2]


def oracle_maps():
    for name in sorted(GALLERY):
        span = load_span(name)
        yield from (span.pi, span.iota)
    for n in range(4):
        span = cone_span(standard_simplex(n))
        yield from (span.pi, span.iota)
    yield from nerve_maps()
    yield from (circle_to_point(), pillow_to_triangle(), thin_triangle())


def test_mono_bound_agrees_with_the_per_degree_scan():
    maps = list(oracle_maps())
    for f in maps:
        for depth in range(5):
            assert f.is_mono(depth) == scanned_is_mono(f, depth), (f.name, depth)
        for n in range(4):
            if not scanned_is_mono(f, n)[0]:
                for s in f.codomain.simplices_at(n):
                    with pytest.raises(RuntimeError):
                        f.preimage(s)
                continue
            table = scanned_image_table(f, n)
            for s in f.codomain.simplices_at(n):
                assert f.preimage(s) == table.get(s), (f.name, s)
    # 485 nerve maps, 366 of them and four pi maps not injective on vertices
    assert len(maps) == 506
    assert sum(f.mono_bound == -1 for f in maps) == 370
