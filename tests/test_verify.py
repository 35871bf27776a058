"""The verification engines: identity checking, horn filling, lifting,
comparison maps, budgets."""

import gc
import json
import random
import weakref

import pytest

from exitpath.construction import build_exit
from exitpath.gallery import GALLERY, cone_span, discrete, load_span, point
from exitpath.operators import Operator
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)
from exitpath.verify import (
    Budget,
    BudgetExhausted,
    HornProblem,
    NotASimplex,
    Tables,
    VerificationReport,
    check_fibration,
    comparison_report,
    enumerate_horns,
    find_filler,
    first_hit,
    machine_json,
    verify_quasicategory,
    verify_simplicial_identities,
)
from oracles import corrupted_triangle, horn_is_compatible


def one_entry_json(subject, bound, name, status, detail):
    """The machine JSON of a report with one entry and no witness."""
    entry = {"name": name, "status": status, "detail": detail, "witness": None}
    return json.dumps({"subject": subject, "bound": bound, "ok": status == "pass",
                       "entries": [entry]}, sort_keys=True, indent=2)


def bouquet(name, vertex, loops):
    """One vertex and a loop at it for each label."""
    X = SimplicialSet(name)
    X.add_generator(0, vertex)
    for label in loops:
        X.add_generator(1, label, [nondeg(vertex, 0), nondeg(vertex, 0)])
    return X


# -- reports --------------------------------------------------------------------


def test_report_structure():
    r = VerificationReport("subject", 3)
    r.add("first", "pass", detail="ok")
    r.add("second", "fail", witness="because")
    r.add("third", "inconclusive")
    assert not r.ok
    assert [e.name for e in r.failed] == ["second"]
    assert [e.name for e in r.inconclusive] == ["third"]
    text = r.to_text()
    assert "result: FAIL (3 checks)" in text and "[because]" in text
    payload = json.loads(machine_json(r.payload()))
    assert payload["ok"] is False and len(payload["entries"]) == 3


def test_budget_spend():
    b = Budget(2)
    b.spend()
    b.spend()
    with pytest.raises(BudgetExhausted):
        b.spend()
    unlimited = Budget(None)
    unlimited.spend(10 ** 9)


@pytest.mark.parametrize("hits, p", [((0,), 0), ((3, 5), 3), ((6,), 6)])
def test_first_hit_charges_a_hit_at_p_exactly_p_plus_one(hits, p):
    # a scan that stops at position p has inspected p + 1 simplices
    assert first_hit(hits, 7, Budget(p + 1)) == p
    with pytest.raises(BudgetExhausted):
        first_hit(hits, 7, Budget(p))


@pytest.mark.parametrize("hits", [None, ()])
def test_first_hit_charges_a_miss_the_whole_degree(hits):
    assert first_hit(hits, 7, Budget(7)) is None
    with pytest.raises(BudgetExhausted):
        first_hit(hits, 7, Budget(6))


# -- simplicial identities ---------------------------------------------------------


def test_identities_pass_on_nerves():
    X = nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    report = verify_simplicial_identities(X, 3)
    assert report.ok
    assert len(report.entries) == 5  # one per identity family


def test_identities_fail_on_corrupted_table():
    report = verify_simplicial_identities(corrupted_triangle(), 2)
    dd = report.entries[0]
    assert dd.status == "fail"
    assert dd.witness is not None and "T" in dd.witness
    assert report.failed


IDENTITY_FAMILIES = [
    "d_i d_j = d_{j-1} d_i (i<j)",
    "d_i s_j = s_{j-1} d_i (i<j)",
    "d_i s_j = id (i=j, j+1)",
    "d_i s_j = s_j d_{i-1} (i>j+1)",
    "s_i s_j = s_{j+1} s_i (i<=j)",
]


def identity_report_json(subject, bound, outcomes):
    """The machine JSON of an identity report; outcomes[k] is an instance
    count (pass) or a witness (fail) for family k."""
    entries = [{"name": name, "status": "pass", "detail": f"{o} instances", "witness": None}
               if isinstance(o, int) else
               {"name": name, "status": "fail", "detail": "", "witness": o}
               for name, o in zip(IDENTITY_FAMILIES, outcomes)]
    ok = all(isinstance(o, int) for o in outcomes)
    return json.dumps({"subject": subject, "bound": bound, "ok": ok, "entries": entries},
                      sort_keys=True, indent=2)


def test_identity_report_pinned_on_corrupted_table():
    report = verify_simplicial_identities(corrupted_triangle(), 2)
    assert machine_json(report.payload()) == identity_report_json(
        "corrupt", 2, ["T: d_0 d_2 = b != a = d_1 d_0", 18, 46, 18, 41])


def test_identity_report_pinned_on_gallery_exit_complex():
    ex = build_exit(load_span("broken"), 4)
    report = verify_simplicial_identities(ex, 4)
    assert machine_json(report.payload()) == identity_report_json(
        "Ex(broken)<=4", 4, [413, 421, 530, 421, 686])


def test_identity_report_pinned_on_a_wrong_degeneracy():
    # s_0 of the vertex 0 answers the edge 0,1 instead of 0+s0: every
    # family with a degeneracy in it fails, each with its own witness
    X = standard_simplex(1)
    degeneracy_values = X.degeneracy_values
    X.degeneracy_values = lambda g, v, i: (
        ("0,1", (0, 1)) if (g, v, i) == ("0", (0,), 0) else degeneracy_values(g, v, i))
    report = verify_simplicial_identities(X, 2)
    assert machine_json(report.payload()) == identity_report_json("simplex1", 2, [
        12,
        "0+s0: d_0 s_1 = 0+s0 != 0,1 = s_0 d_0",
        "0: d_0 s_0 = 1 != the simplex itself",
        "0+s0: d_2 s_0 = 0+s0 != 0,1 = s_0 d_1",
        "0: s_0 s_0 = 0,1+s0 != 0,1+s1 = s_1 s_0"])



def test_identity_check_fails_loudly_off_its_degree():
    # s_0 of the vertex 0 answers the vertex itself, a simplex of the
    # wrong degree: the check names it instead of numbering it elsewhere
    X = standard_simplex(1)
    degeneracy_values = X.degeneracy_values
    X.degeneracy_values = lambda g, v, i: (
        ("0", (0,)) if (g, v, i) == ("0", (0,), 0) else degeneracy_values(g, v, i))
    with pytest.raises(NotASimplex) as caught:
        verify_simplicial_identities(X, 1)
    assert not isinstance(caught.value, ValueError)  # not an input error
    assert str(caught.value) == "simplex1: s_0 0 = 0 is not a simplex of degree 1"
    # a face with an unknown generator
    Y = standard_simplex(2)
    face_values = Y.face_values
    Y.face_values = lambda g, v, i: (
        ("nope", (0,)) if (g, v, i) == ("0,1", (0, 1), 1) else face_values(g, v, i))
    with pytest.raises(NotASimplex, match=r"simplex2: d_1 0,1 = nope is not a simplex "
                                          r"of degree 0"):
        verify_simplicial_identities(Y, 2)


def test_a_result_outside_its_generator_is_numbered_in_its_own_block():
    # s_2 of P.0,1@1+s0 answers its own values (0, 0, 1, 1) under another
    # edge: the column numbers it in that edge's block, not in its own
    X = build_exit(cone_span(standard_simplex(2)), 3)
    x, wrong = FormalSimplex("P.0,1@1", (0, 0, 1)), FormalSimplex("P.0,2@1", (0, 0, 1, 1))
    degeneracy_values = X.degeneracy_values
    X.degeneracy_values = lambda g, v, i: (
        (wrong.gen, wrong.values) if (g, v, i) == (x.gen, x.values, 2)
        else degeneracy_values(g, v, i))
    tables = Tables(X)
    assert tables.degens[2][2][tables.number(2, x)] == tables.number(3, wrong)
    assert machine_json(verify_simplicial_identities(X, 3).payload()) == \
        machine_json(oracle_identity_report(X, 3).payload())


def test_a_result_in_its_own_generator_off_its_degree_fails_loudly():
    # d_1 of a degenerate 3-simplex answers its own generator with the
    # values of a 3-simplex: its own block of degree 2 has no such rank
    X = build_exit(cone_span(standard_simplex(2)), 3)
    face_values = X.face_values
    X.face_values = lambda g, v, i: (
        (g, v) if (g, v, i) == ("P.0,1+s1@2", (0, 0, 1, 2), 1) else face_values(g, v, i))
    with pytest.raises(NotASimplex) as caught:
        verify_simplicial_identities(X, 3)
    assert str(caught.value) == ("Ex(cone-simplex2)<=3: d_1 P.0,1+s1@2+s0 = P.0,1+s1@2+s0 "
                                 "is not a simplex of degree 2")


@pytest.mark.parametrize("depth", range(5))
def test_identity_check_lists_no_degree_above_depth_plus_one(depth):
    # blocks, which lists no simplex, is read one degree higher: s_i s_j
    # of an n-simplex is numbered in the block of degree n + 2
    X = build_exit(cone_span(standard_simplex(2)), depth)
    for name, top in (("simplices_at", depth + 1), ("blocks", depth + 2)):
        def bounded(n, read=getattr(X, name), name=name, top=top):
            if n > top:
                raise AssertionError(f"{name} read degree {n} for depth {depth}")
            return read(n)

        setattr(X, name, bounded)
    assert verify_simplicial_identities(X, depth).ok


def test_identity_check_reads_only_the_values_action():
    # the columns come from face_values and degeneracy_values: the check
    # calls neither FormalSimplex wrapper and lists no degree
    X = build_exit(cone_span(standard_simplex(2)), 4)

    def refuse(*args):
        raise AssertionError("the identity check called a FormalSimplex method")

    X.face = X.degeneracy = X.simplices_at = refuse
    report = verify_simplicial_identities(X, 4)
    assert report.ok and len(report.entries) == 5


# -- the identity check against a per-simplex oracle --------------------------------


ORACLE_FAMILIES = [
    (IDENTITY_FAMILIES[0], lambda n: [(f"d_{i} d_{j}", f"d_{j - 1} d_{i}")
                                      for j in range(1, n + 1) for i in range(j)] if n >= 2 else []),
    (IDENTITY_FAMILIES[1], lambda n: [(f"d_{i} s_{j}", f"s_{j - 1} d_{i}")
                                      for j in range(n + 1) for i in range(j)]),
    (IDENTITY_FAMILIES[2], lambda n: [(f"d_{i} s_{j}", "")
                                      for j in range(n + 1) for i in (j, j + 1)]),
    (IDENTITY_FAMILIES[3], lambda n: [(f"d_{i} s_{j}", f"s_{j} d_{i - 1}")
                                      for j in range(n + 1) for i in range(j + 2, n + 2)]),
    (IDENTITY_FAMILIES[4], lambda n: [(f"s_{i} s_{j}", f"s_{j + 1} s_{i}")
                                      for j in range(n + 1) for i in range(j + 1)]),
]


def walk(X, x, word):
    """x under a word like "d_0 s_1", one letter at a time, right to left."""
    for letter in reversed(word.split()):
        op, i = letter.split("_")
        x = X.face(x, int(i)) if op == "d" else X.degeneracy(x, int(i))
    return x


def oracle_failures(X, n, instances):
    """Every (simplex number, instance number) of degree n whose two
    sides differ, in (simplex, instance) order."""
    return [(p, k) for p, x in enumerate(X.simplices_at(n))
            for k, (lhs, rhs) in enumerate(instances(n))
            if walk(X, x, lhs) != walk(X, x, rhs)]


def oracle_identity_report(X, depth):
    """The identity check as a walk over FormalSimplex values in
    (degree, simplex, instance) order."""
    report = VerificationReport(X.name, depth)
    for name, instances in ORACLE_FAMILIES:
        checked, witness = 0, None
        for n in range(depth + 1):
            simplices = X.simplices_at(n)
            failures = oracle_failures(X, n, instances)
            if failures:
                p, k = failures[0]
                lhs, rhs = instances(n)[k]
                x = simplices[p]
                witness = f"{x!r}: {lhs} = {walk(X, x, lhs)!r} != " + (
                    f"{walk(X, x, rhs)!r} = {rhs}" if rhs else "the simplex itself")
                break
            checked += len(simplices) * len(instances(n))
        if witness:
            report.add(name, "fail", witness=witness)
        else:
            report.add(name, "pass", detail=f"{checked} instances")
    return report


def assert_matches_oracle(X, depth):
    assert machine_json(verify_simplicial_identities(X, depth).payload()) == \
        machine_json(oracle_identity_report(X, depth).payload())


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_identity_check_matches_the_oracle_on_the_gallery(name):
    span = load_span(name)
    for depth in range(6):
        assert_matches_oracle(build_exit(span, depth), depth)


@pytest.mark.parametrize("n", [2, 3])
def test_identity_check_matches_the_oracle_on_cones(n):
    assert_matches_oracle(build_exit(cone_span(standard_simplex(n)), 4), 4)


def swapped_face(X, rng):
    """X with two stored faces of one generator swapped."""
    label = rng.choice([g for d in X.gens if d >= 1 for g in X.gens[d]])
    a, b = rng.sample(range(X.gen_dims[label] + 1), 2)
    faces = list(X.faces[label])
    faces[a], faces[b] = faces[b], faces[a]
    X.faces[label] = tuple(faces)
    return X


def patched_degeneracy(X, rng):
    """X whose s_i of one simplex answers another simplex of its degree."""
    n = rng.randrange(3)
    x, i = rng.choice(X.simplices_at(n)), rng.randrange(n + 1)
    wrong = rng.choice(X.simplices_at(n + 1))
    key, wrong = (x.gen, x.values, i), (wrong.gen, wrong.values)
    degeneracy_values = X.degeneracy_values
    X.degeneracy_values = lambda g, v, j: (
        wrong if (g, v, j) == key else degeneracy_values(g, v, j))
    return X


def swapped_degeneracies(X, rng):
    """X whose s_a and s_b trade places on every simplex of one degree."""
    n = rng.randrange(1, 3)
    a, b = rng.sample(range(n + 1), 2)
    swap = {a: b, b: a}
    degeneracy_values = X.degeneracy_values
    X.degeneracy_values = lambda g, v, j: degeneracy_values(
        g, v, swap.get(j, j) if len(v) == n + 1 else j)
    return X


def test_identity_check_matches_the_oracle_on_seeded_corruptions():
    # many simplices fail under swapped degeneracies, so some degree's
    # least failing (simplex, instance) is not on its first failing
    # instance: that is where the tie-break shows
    rng = random.Random(20231018)
    failed, tie_breaks = set(), 0
    for corrupt in [swapped_face, patched_degeneracy] * 10 + [swapped_degeneracies] * 40:
        X = corrupt(build_exit(load_span(rng.choice(sorted(GALLERY))), 3), rng)
        assert_matches_oracle(X, 3)
        for _, instances in ORACLE_FAMILIES:
            failures = next((f for n in range(4) if (f := oracle_failures(X, n, instances))),
                            [])
            if failures:
                failed.add(corrupt)
                tie_breaks += min(failures) != min(failures, key=lambda f: (f[1], f[0]))
    assert len(failed) == 3
    assert tie_breaks >= 3


# -- horns ---------------------------------------------------------------------------


def test_horn_enumeration_count():
    # inner 2-horns of the 1-simplex are its composable pairs of edges
    X = standard_simplex(1)
    horns = enumerate_horns(X, 2, 1)
    assert len(horns) == 4
    tables = Tables(X)
    for h in horns:
        assert horn_is_compatible(X, h)
        assert find_filler(X, h, tables=tables) is not None


def test_horns_compare_like_the_list_they_replaced():
    X = build_exit(load_span("s0-defect"), 3)
    horns = enumerate_horns(X, 2, 1)
    problems = list(horns)
    assert len(problems) >= 3 and all(isinstance(h, HornProblem) for h in problems)
    assert horns == problems and problems == horns and not horns != problems
    assert horns == enumerate_horns(X, 2, 1)
    assert horns != problems[1:] and horns != problems[::-1]
    assert horns != enumerate_horns(X, 2, 0) and horns != enumerate_horns(X, 3, 1)
    # a list equals no tuple, and a list is unhashable
    assert horns != tuple(problems)
    with pytest.raises(TypeError):
        hash(horns)


def test_a_slice_of_horns_is_a_list_of_horn_problems():
    X = build_exit(load_span("s0-defect"), 3)
    horns = enumerate_horns(X, 2, 1)
    problems = list(horns)
    for cut in (slice(0, 2), slice(None, None, -1), slice(1, None, 2), slice(5, 2)):
        assert type(horns[cut]) is list
        assert horns[cut] == problems[cut]
    assert horns[-1] == problems[-1]


def test_horn_compatibility_negative():
    X = standard_simplex(1)
    e = nondeg("0,1", 1)
    loop1 = FormalSimplex("1", Operator(1, 0, (0, 0)))
    bad = HornProblem(2, 1, (e, None, loop1))
    # d_0 of slot 2 is vertex 1 but d_1 of slot 0 is vertex 0
    assert not horn_is_compatible(X, bad)


def test_horn_describe():
    X = standard_simplex(1)
    h = enumerate_horns(X, 2, 1)[0]
    assert h.describe().startswith("Lambda^2_1(d_0=")


def test_horn_input_checks():
    X = standard_simplex(1)
    with pytest.raises(ValueError):
        enumerate_horns(X, 0, 0)
    with pytest.raises(ValueError):
        enumerate_horns(X, 2, 3)
    # a faces tuple that is not a horn of its shape: too short, a face
    # at the missing slot, a missing index past n, a hole at a present slot
    X = standard_simplex(2)
    e12, e01 = nondeg("1,2", 1), nondeg("0,1", 1)
    for n, missing, faces in [(2, 1, (e12, None)), (2, 1, (e12, e12, e01)),
                              (2, 5, (e12, None, e01)), (2, 1, (None, None, e01))]:
        with pytest.raises(ValueError, match=rf"^not a horn of shape \({n}, {missing}\)"):
            find_filler(X, HornProblem(n, missing, faces))
    assert find_filler(X, HornProblem(2, 1, (e12, None, e01))) == nondeg("0,1,2", 2)


def test_filler_is_first_in_canonical_order():
    X = standard_simplex(2)
    h = enumerate_horns(X, 2, 1)[0]
    assert find_filler(X, h) == find_filler(X, h)
    assert find_filler(X, h) in X.simplices_at(2)


def test_filler_of_a_foreign_horn_is_a_miss():
    # a face with an unknown generator, or of the wrong degree, matches
    # no simplex: the search misses and spends |X_n|.  The vertex 0 in
    # slot 0 would be filled by s_0 s_0 0 if it were read as 0+s0.
    X = standard_simplex(1)
    degenerate = FormalSimplex("0", Operator(1, 0, (0, 0)))
    unknown = HornProblem(2, 1, (nondeg("nope", 1), None, degenerate))
    wrong_degree = HornProblem(2, 1, (nondeg("0", 0), None, degenerate))
    assert find_filler(X, HornProblem(2, 1, (degenerate, None, degenerate))) is not None
    for h in (unknown, wrong_degree):
        budget = Budget(None)
        assert find_filler(X, h, budget) is None
        assert budget.spent == X.count_at(2)


def test_quasicategory_of_a_nerve():
    X = nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    report = verify_quasicategory(X, 3)
    assert report.ok
    assert [e.name for e in report.entries] == \
        ["inner horns Lambda^2_1", "inner horns Lambda^3_1", "inner horns Lambda^3_2"]


def test_quasicategory_budget_exhaustion_is_inconclusive():
    X = standard_simplex(1)
    report = verify_quasicategory(X, 2, budget=1)
    assert not report.ok
    assert report.inconclusive and not report.failed


def late_fillers(labels="UVW"):
    """A bouquet whose 29 triangles (a, a, a) come first, so the fillers
    of the horns (x, -, y) with x or y = b sit late in canonical order;
    without the triangle W the horn (b, -, a) has none."""
    Z = bouquet("Z", "v", ["a", "b"])
    a, b = nondeg("a", 1), nondeg("b", 1)
    for k in range(29):
        Z.add_generator(2, f"T{k}", [a, a, a])
    for label, (x, y) in zip("UVW", [(b, b), (a, b), (b, a)]):
        if label in labels:
            Z.add_generator(2, label, [x, a, y])
    return Z


def test_filler_searches_hitting_the_budget_are_counted():
    Z = late_fillers()
    name = "inner horns Lambda^2_1"
    assert machine_json(verify_quasicategory(Z, 2, 12).payload()) == one_entry_json(
        "Z", 2, name, "inconclusive", "3/9 searches hit the budget")
    assert machine_json(verify_quasicategory(Z, 2).payload()) == one_entry_json(
        "Z", 2, name, "pass", "9 horns filled")


def test_unfillable_horn_is_witnessed():
    span = load_span("broken")
    ex = build_exit(span, 2)
    report = verify_quasicategory(ex, 2)
    assert report.failed
    assert "no filler for Lambda^2_1" in report.failed[0].witness


# -- indexed search against the linear scans ---------------------------------------------


def linear_filler(X, h, budget):
    """The filler scan the face index replaced, kept as the oracle."""
    for x in X.simplices_at(h.n):
        budget.spend()
        if all(X.face(x, a) == f for a, f in h.present()):
            return x
    return None


def linear_enumerate(X, n, missing, budget):
    """The candidate scan the face-key lookup replaced in
    enumerate_horns, kept as the oracle: every simplex of X_{n-1} is
    tried, at one node each, for every slot of every partial horn."""
    slots = [a for a in range(n + 1) if a != missing]
    candidates = [(x, tuple(X.face(x, a) for a in range(n)) if n > 1 else ())
                  for x in X.simplices_at(n - 1)]
    out = []

    def extend(chosen, depth):
        if depth == len(slots):
            faces = tuple(chosen[a][0] if a in chosen else None for a in range(n + 1))
            out.append(HornProblem(n, missing, faces))
            return
        b = slots[depth]
        wanted = [(a, g_faces[b - 1]) for a, (_, g_faces) in chosen.items()]
        for row in candidates:
            budget.spend()
            if all(row[1][a] == g for a, g in wanted):
                chosen[b] = row
                extend(chosen, depth + 1)
                del chosen[b]

    extend({}, 0)
    return out


def linear_lift(f, h, base, budget):
    """The lift scan the face index replaced, kept as the oracle."""
    X = f.domain
    for x in X.simplices_at(h.n):
        budget.spend()
        if f(x) != base:
            continue
        if all(X.face(x, a) == g for a, g in h.present()):
            return x
    return None


def search_spans():
    spans = [load_span(name) for name in sorted(GALLERY)]
    return spans + [cone_span(standard_simplex(2))]


def shapes(depth):
    return [(n, i) for n in range(1, depth + 1) for i in range(n + 1)]


def all_horns(X, depth):
    for n, i in shapes(depth):
        yield n, i, enumerate_horns(X, n, i)


def assert_same_search(indexed, oracle):
    """indexed(budget) and oracle(budget) find the same simplex at the
    same node cost, and that cost is exactly the budget they need."""
    want = Budget(None)
    expected = oracle(want)
    got = Budget(None)
    assert indexed(got) == expected
    assert got.spent == want.spent
    assert indexed(Budget(want.spent)) == expected
    with pytest.raises(BudgetExhausted):
        indexed(Budget(want.spent - 1))
    return expected


def test_tables_read_back_as_the_face_action():
    spans = search_spans() + [cone_span(standard_simplex(3))]
    for X in [build_exit(span, 4) for span in spans[:-1]] + [spans[-1].L]:
        tables = Tables(X)
        for n in range(5):
            simplices = X.simplices_at(n)
            assert [tables.simplex(n, p) for p in range(tables.sizes[n])] == simplices
            assert len(tables.faces[n]) == (n + 1 if n else 0)
            assert len(tables.degens[n]) == n + 1
            for a, column in enumerate(tables.faces[n]):
                assert [tables.simplex(n - 1, q) for q in column] == \
                    [X.face(x, a) for x in simplices]
            for i, column in enumerate(tables.degens[n]):
                assert [tables.simplex(n + 1, q) for q in column] == \
                    [X.degeneracy(x, i) for x in simplices]
        for n in range(6):
            # a simplex's rank is its position in canonical order
            simplices = X.simplices_at(n)
            assert [tables.number(n, x) for x in simplices] == list(range(len(simplices)))
            assert [tables.simplex(n, p) for p in range(len(simplices))] == simplices


def test_image_column_names_a_non_simplex(monkeypatch):
    f = load_span("boundary-collar").pi
    monkeypatch.setattr(f, "image_values", lambda gen, values: ("nope", values + values))
    image = Tables(f.domain).image(f, Tables(f.codomain))
    with pytest.raises(NotASimplex) as err:
        image[0]
    assert str(err.value) == "pi l = nope+s0 is not a simplex of degree 0"


def test_tables_simplex_numbers_only_the_degree():
    X = standard_simplex(2)
    tables = Tables(X)
    count = X.count_at(2)
    assert [tables.simplex(2, p) for p in range(count)] == X.simplices_at(2)
    for p in (-1, -3, -count, count, count + 1):
        with pytest.raises(IndexError, match=f"^no simplex numbered {p} in degree 2$"):
            tables.simplex(2, p)


def test_tables_hold_no_reference_cycle():
    # a check's tables go when the check returns, without waiting for
    # the cycle collector
    tables = Tables(standard_simplex(2))
    tables.column(1, (("d", 0), ("s", 1)))
    tables.number(2, tables.simplex(2, 0))
    first_hit(tables.face_keys(2, (0,)).get((0,)), tables.sizes[2], Budget(None))
    ref = weakref.ref(tables)
    gc.disable()
    try:
        del tables
        assert ref() is None
    finally:
        gc.enable()


def test_indexed_enumeration_matches_linear_scan():
    spans = search_spans()
    cone3 = cone_span(standard_simplex(3))
    complexes = [build_exit(span, 4) for span in spans] + [cone3.L]
    accepted = tried = 0
    for X in complexes:
        tables = Tables(X)  # shared across shapes, as a check shares it
        for n, i in shapes(4):
            horns = assert_same_search(
                lambda b: list(enumerate_horns(X, n, i, b, tables=tables)),
                lambda b: linear_enumerate(X, n, i, b))
            spent = Budget(None)  # standalone, with rows of its own
            assert list(enumerate_horns(X, n, i, spent)) == horns
            accepted += len(horns)
            tried += spent.spent
    assert 0 < accepted < tried


def test_indexed_filler_matches_linear_scan():
    hits = misses = 0
    for span in search_spans():
        X = build_exit(span, 3)
        tables = Tables(X)  # shared across shapes, as a check shares it
        for n, i, horns in all_horns(X, 3):
            for k, h in enumerate(horns):
                filler = assert_same_search(lambda b: find_filler(X, h, b, tables=tables),
                                            lambda b: linear_filler(X, h, b))
                if k % 16 == 0:  # a standalone call builds its own rows
                    assert find_filler(X, h) == filler
                hits += filler is not None
                misses += filler is None
    assert hits and misses


def test_indexed_lift_matches_linear_scan():
    hits = misses = 0
    for span in search_spans():
        for f in (span.pi, span.iota):
            tables, y_tables = Tables(f.domain), Tables(f.codomain)
            image = tables.image(f, y_tables)
            for n, i, horns in all_horns(f.domain, 3):
                lifts = tables.face_keys(n, horns.slots, image[n])
                for h in horns:
                    wanted = tuple(tables.number(n - 1, g) for _, g in h.present())
                    for base in f.codomain.simplices_at(n):
                        key = wanted + (y_tables.number(n, base),)

                        def indexed(b):
                            p = first_hit(lifts.get(key), tables.sizes[n], b)
                            return None if p is None else tables.simplex(n, p)
                        lift = assert_same_search(indexed, lambda b: linear_lift(f, h, base, b))
                        hits += lift is not None
                        misses += lift is None
    assert hits and misses


def horn_searches(X, n, i):
    """(enumeration nodes, [(nodes, found)] of each filler scan) of the
    shape (n, i), by the linear scans."""
    spent = Budget(None)
    horns = linear_enumerate(X, n, i, spent)
    searches = []
    for h in horns:
        cost = Budget(None)
        found = linear_filler(X, h, cost) is not None
        searches.append((cost.spent, found))
    return spent.spent, searches


def lift_searches(f, n, i):
    """(enumeration nodes, [(nodes, found)] of each lift scan, one per
    square in order) of the shape (n, i), by the linear scans."""
    X, Y = f.domain, f.codomain
    spent = Budget(None)
    horns = linear_enumerate(X, n, i, spent)
    searches = []
    for h in horns:
        images = [(a, f(g)) for a, g in h.present()]
        for base in Y.simplices_at(n):
            if all(Y.face(base, a) == g for a, g in images):
                cost = Budget(None)
                found = linear_lift(f, h, base, cost) is not None
                searches.append((cost.spent, found))
    return spent.spent, searches


def oracle_entry(enumeration, searches, budget, fail_detail, pass_detail):
    """(status, detail) of a check entry under a per-subproblem budget,
    from the scans' charges."""
    if enumeration > budget:
        return "inconclusive", "enumeration budget exhausted"
    exhausted = 0
    for k, (nodes, found) in enumerate(searches, 1):
        if nodes > budget:
            exhausted += 1
        elif not found:
            return "fail", fail_detail(k)
    if exhausted:
        return "inconclusive", f"{exhausted}/{len(searches)} searches hit the budget"
    return "pass", pass_detail


def test_search_budgets_match_the_linear_scans():
    # the checks charge each filler and lift search what its linear scan
    # spends, so under a budget at the dearest scan's charge, one below
    # it and half of it, each entry is the scans' entry; the bouquets
    # have searches dearer than their enumeration, so some hit the
    # budget, and a miss, charged |X_n|, decides fail or inconclusive
    spans = search_spans()  # at depth 3; the bouquets at their own depth
    bouquets = [(late_fillers(), 2), (late_fillers("UV"), 2)]
    hit = set()
    for X, depth in [(build_exit(span, 3), 3) for span in spans] + bouquets:
        inner = [(n, i) for n in range(2, depth + 1) for i in range(1, n)]
        runs = [horn_searches(X, n, i) for n, i in inner]
        top = max((nodes for _, searches in runs for nodes, _ in searches), default=1)
        for b in (top, top - 1, top // 2):
            # one search per horn
            want = [oracle_entry(e, searches, b, lambda k, m=len(searches): f"{m} horns",
                                 f"{len(searches)} horns filled")
                    for e, searches in runs]
            got = verify_quasicategory(X, depth, b).entries
            assert [(e.name, e.status, e.detail) for e in got] == \
                [(f"inner horns Lambda^{n}_{i}", *w) for (n, i), w in zip(inner, want)]
            hit.update(("horns", e.status, e.detail.endswith("searches hit the budget"))
                       for e in got)
    bouquets = [(late_lifts(), 1), (late_lifts(unlifted=1), 1)]
    for f, depth in [(g, 3) for span in spans for g in (span.pi, span.iota)] + bouquets:
        runs = [lift_searches(f, n, i) for n, i in shapes(depth)]
        top = max((nodes for _, searches in runs for nodes, _ in searches), default=1)
        for b in (top, top - 1, top // 2):
            want = [oracle_entry(e, searches, b, lambda k: f"{k} squares",
                                 f"{len(searches)} squares lifted")
                    for e, searches in runs]
            got = check_fibration(f, depth, "kan", b).entries
            assert [(e.name, e.status, e.detail) for e in got] == \
                [(f"lifts Lambda^{n}_{i}", *w) for (n, i), w in zip(shapes(depth), want)]
            hit.update(("lifts", e.status, e.detail.endswith("searches hit the budget"))
                       for e in got)
    assert {(check, status, False) for check in ("horns", "lifts")
            for status in ("pass", "fail", "inconclusive")} <= hit
    assert ("horns", "inconclusive", True) in hit and ("lifts", "inconclusive", True) in hit


def test_enumeration_charges_each_level_in_one_spend(monkeypatch):
    # a shape (n, i) has n face slots, so its partial horns grow in n
    # levels, each charged in one spend, at the node-by-node scan's total
    X = build_exit(cone_span(standard_simplex(2)), 4)
    inner = [(n, i) for n in range(2, 5) for i in range(1, n)]
    totals = []
    for n, i in inner:
        spent = Budget(None)
        linear_enumerate(X, n, i, spent)
        totals.append(spent.spent)
    charges = []
    spend = Budget.spend

    def spy(self, k=1):
        charges.append(k)
        return spend(self, k)

    monkeypatch.setattr(Budget, "spend", spy)
    tables = Tables(X)
    for (n, i), total in zip(inner, totals):
        charges.clear()
        enumerate_horns(X, n, i, Budget(None), tables=tables)
        assert (len(charges), sum(charges)) == (n, total)


def test_a_shape_builds_at_most_two_budgets(monkeypatch):
    # one allowance for a shape's enumeration and one that its searches
    # share, however many horns or squares it searches
    ex = build_exit(cone_span(standard_simplex(2)), 4)
    f = cone_span(standard_simplex(3)).pi
    built, searches = [], []
    init = Budget.__init__

    def spy_init(self, limit):
        built.append(limit)
        init(self, limit)

    def spy_hit(*args):
        searches.append(args)
        return first_hit(*args)

    monkeypatch.setattr(Budget, "__init__", spy_init)
    monkeypatch.setattr("exitpath.verify.first_hit", spy_hit)
    for check in (lambda: verify_quasicategory(ex, 4), lambda: check_fibration(f, 4, "kan")):
        built.clear()
        searches.clear()
        shapes = len(check().entries)
        assert len(built) <= 2 * shapes < len(searches)


def test_cone_search_verdicts():
    span = cone_span(standard_simplex(2))
    report = verify_quasicategory(build_exit(span, 4), 4)
    assert [(e.name, e.status) for e in report.entries] == [
        ("inner horns Lambda^2_1", "pass"), ("inner horns Lambda^3_1", "fail"),
        ("inner horns Lambda^3_2", "fail"), ("inner horns Lambda^4_1", "pass"),
        ("inner horns Lambda^4_2", "pass"), ("inner horns Lambda^4_3", "pass")]

    # pi: simplex^3 -> point has no lift of the degenerate triangle along
    # the outer 2-horns, and every other square lifts
    report = check_fibration(cone_span(standard_simplex(3)).pi, 4, kind="kan")
    failing = {(2, 0), (2, 2)}
    assert [(e.name, e.status) for e in report.entries] == [
        (f"lifts Lambda^{n}_{i}", "fail" if (n, i) in failing else "pass")
        for n in range(1, 5) for i in range(n + 1)]


def test_lift_check_reads_both_sides_as_numbers(monkeypatch):
    # once the maps are built, the lift check numbers pi's image by
    # image_values and names a base by its number: no map call, no act,
    # and no listing of the codomain
    f = cone_span(standard_simplex(3)).pi
    seen = []
    for cls, name in ((SimplicialMap, "__call__"), (SimplicialSet, "act"),
                      (SimplicialSet, "simplices_at")):
        def spy(self, *args, name=name, method=getattr(cls, name)):
            seen.append((name, self))
            return method(self, *args)

        monkeypatch.setattr(cls, name, spy)
    report = check_fibration(f, 4, "kan")
    assert [e.name for e in report.failed] == ["lifts Lambda^2_0", "lifts Lambda^2_2"]
    assert [name for name, _ in seen if name != "simplices_at"] == []
    assert not any(X is f.codomain for _, X in seen)


def test_no_check_lists_a_degree_even_for_its_witness(monkeypatch):
    # a witness unranks the simplices it names one by one, so a failing
    # check reads the same with simplices_at unavailable
    ex = build_exit(load_span("broken"), 3)
    f = cone_span(standard_simplex(3)).pi

    def witnesses():
        reports = [verify_quasicategory(ex, 3), check_fibration(f, 4, kind="kan")]
        return [(e.name, e.witness) for report in reports for e in report.failed]

    want = witnesses()
    assert len(want) == 3 and all(witness for _, witness in want)

    def listed(self, n):
        raise AssertionError(f"listed degree {n} of {self.name}")

    monkeypatch.setattr(SimplicialSet, "simplices_at", listed)
    assert witnesses() == want


# -- fibration checks ------------------------------------------------------------------


def vertex_inclusion(target: str) -> SimplicialMap:
    P = standard_simplex(0, "pt")
    X = standard_simplex(1)
    return SimplicialMap(f"v{target}", P, X, {"0": nondeg(target, 0)})


def test_right_fibration_calibration():
    X = standard_simplex(1)
    ident = SimplicialMap("id", X, X, {g: nondeg(g, d) for g, d in X.gen_dims.items()})
    assert check_fibration(ident, 2, kind="right").ok

    v1 = vertex_inclusion("1")
    right = check_fibration(v1, 2, kind="right")
    assert not right.ok
    assert "no lift" in right.failed[0].witness
    assert check_fibration(v1, 2, kind="inner").ok

    # the closed-end inclusion fails only once the 0-th horn is required
    v0 = vertex_inclusion("0")
    assert check_fibration(v0, 2, kind="right").ok
    assert not check_fibration(v0, 2, kind="kan").ok


def test_sphere_to_point_is_right_fibration():
    S = discrete("sphere0", ["s-", "s+"])
    P = point("pt", "p")
    f = SimplicialMap("collapse", S, P,
                      {"s-": nondeg("p", 0), "s+": nondeg("p", 0)})
    assert check_fibration(f, 3, kind="right").ok


def test_broken_pi_fails_at_the_first_right_horn():
    span = load_span("broken")
    report = check_fibration(span.pi, 2, kind="right")
    assert report.failed
    first = report.failed[0]
    assert first.name == "lifts Lambda^1_1"
    assert "no lift" in first.witness and "Lambda^1_1" in first.witness


def test_fibration_kind_validation():
    span = load_span("trivial")
    with pytest.raises(ValueError):
        check_fibration(span.pi, 2, kind="left")


def late_lifts(unlifted=0):
    """A map of bouquets where the lift of the base g_k sits at position
    k of X_1, after s_0 x; the last unlifted loops of Y have no lift."""
    X = bouquet("X", "x", [f"e{k}" for k in range(1, 6)])
    Y = bouquet("Y", "y", [f"g{k}" for k in range(1, 6 + unlifted)])
    return SimplicialMap("f", X, Y, {"x": nondeg("y", 0),
                                     **{f"e{k}": nondeg(f"g{k}", 1) for k in range(1, 6)}})


def test_lift_searches_hitting_the_budget_are_counted():
    f = late_lifts()
    name = "lifts Lambda^1_1"
    assert machine_json(check_fibration(f, 1, "right", 3).payload()) == one_entry_json(
        "f: X -> Y", 1, name, "inconclusive", "3/6 searches hit the budget")
    assert machine_json(check_fibration(f, 1, "right").payload()) == one_entry_json(
        "f: X -> Y", 1, name, "pass", "6 squares lifted")


# -- comparison maps ---------------------------------------------------------------------


def relabelling(X, Y, labels):
    """The map X -> Y sending each generator g of X to Y's generator labels[g]."""
    return SimplicialMap("f", X, Y, {g: nondeg(labels[g], d) for g, d in X.gen_dims.items()})


def test_isomorphism_found_across_labellings():
    X = standard_simplex(2)
    Y = nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], "abc")
    abc = str.maketrans("012", "abc")
    report = comparison_report(relabelling(X, Y, {g: g.translate(abc) for g in X.gen_dims}), 3)
    assert report.subject == "f: simplex2 -> abc"
    assert [e.name for e in report.entries] == \
        [f"simplex count at degree {n}" for n in range(4)] + ["levelwise injective"]
    assert report.ok, report.to_text()


def test_isomorphism_counts_mismatch():
    X, Y = standard_simplex(1), standard_simplex(2)
    report = comparison_report(relabelling(X, Y, {g: g for g in X.gen_dims}), 2)
    assert [(e.name, e.witness) for e in report.failed] == \
        [("simplex count at degree 0", "2 vs 3"), ("simplex count at degree 1", "3 vs 6"),
         ("simplex count at degree 2", "4 vs 10")]
    assert report.entries[-1].status == "pass"


def test_comparison_fold_fails_counts_and_injectivity():
    X, Y = discrete("two", ["p", "q"]), point()
    report = comparison_report(relabelling(X, Y, {"p": "pt", "q": "pt"}), 1)
    assert [(e.name, e.witness) for e in report.failed] == [
        ("simplex count at degree 0", "2 vs 1"), ("simplex count at degree 1", "2 vs 1"),
        ("levelwise injective", "degree 0: p and q both map to pt")]


def test_isomorphism_rejects_orientation_flip():
    # one source with two sinks vs two sources with one sink: same counts
    # in every degree, but relabelling each edge by its ends reverses its
    # faces, so the map is not natural and cannot be built
    X = nerve_of_poset(["m", "a", "b"], [("m", "a"), ("m", "b")], "out")
    Y = nerve_of_poset(["m", "a", "b"], [("a", "m"), ("b", "m")], "in")
    flip = {"m": "m", "a": "a", "b": "b", "m,a": "a,m", "m,b": "b,m"}
    with pytest.raises(ValueError, match="image of d_0 m,a"):
        relabelling(X, Y, flip)
