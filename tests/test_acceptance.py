"""Acceptance suite: ten criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v`; every criterion is one
test function that prints a single [NN] PASS/FAIL line (visible with -s,
and in the captured output on failure) and then asserts.  Criteria with
a wall-clock tolerance state it in the line.

The oracles are definitional: flat/sharp/class are recomputed from
shuffle composites (flat and sharp by tests/oracles.py, which
test_shuffles.py shares), the interval comparison for the point cone
uses the 0/1 step-map encoding, and nothing below imports from the
other test modules.
"""

import time

import pytest

from exitpath.construction import build_exit
from exitpath.gallery import GALLERY, discrete, load_span, point
from exitpath.operators import degeneracy_op, face_op
from exitpath.shuffles import (
    FaceClass,
    UndefinedFlat,
    classify_face,
    collapse,
    exit_shuffle,
    flat,
    sharp,
)
from exitpath.simplicial import SimplicialMap, nondeg, standard_simplex
from exitpath.verify import (
    HornProblem,
    check_fibration,
    comparison_report,
    find_filler,
    verify_quasicategory,
    verify_simplicial_identities,
)
from oracles import (
    Low,
    Upper,
    all_exit_simplices,
    flat_oracle,
    horn_is_compatible,
    sharp_oracle,
    shuffle_level,
    tagged_degeneracy,
    tagged_face,
)

HYPOTHESIS_SPANS = [n for n in sorted(GALLERY) if GALLERY[n].hypotheses_hold]
BUDGET = 100000


def conclude(num, label, ok):
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num:02d}: {label}"


def test_c01_collapse_retracts_shuffle():
    t0 = time.perf_counter()
    for k in range(1, 11):
        for j in range(1, k + 1):
            S = exit_shuffle(k, j)
            C = collapse(k, j)
            for i in range(k + 1):
                level, pos = S(i)
                assert C(level, pos) == i, (k, j, i)
    dt = time.perf_counter() - t0
    conclude(1, f"C_j . S_j = id for 1 <= j <= k <= 10 in {dt:.3f}s (< 1s)", dt < 1.0)


def test_c02_flat_sharp_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 11):
        for j in range(1, k + 1):
            for i in range(k + 1):
                want = flat_oracle(k, j, i)
                if want is None:
                    ok = ok and (j, i) == (k, k)
                    with pytest.raises(UndefinedFlat):
                        flat(k, j, i)
                else:
                    ok = ok and flat(k, j, i) == want
    for k in range(1, 11):
        for j in range(1, k + 1):
            for i in range(k + 1):
                ok = ok and sharp(k, j, i) == sharp_oracle(k, j, i)
    dt = time.perf_counter() - t0
    conclude(2, f"flat/sharp match the level-search oracle for k <= 10, "
                f"(k,k) rejected, in {dt:.3f}s (< 1s)", ok and dt < 1.0)


def test_c03_level_preservation():
    ok = True
    for k in range(2, 9):
        for j in range(1, k + 1):
            for i in range(k + 1):
                if (j, i) == (k, k):
                    continue
                b = flat(k, j, i)
                if b == 0:  # upper corner: no collapse of index 0
                    ok = ok and (j, i) == (1, 0)
                    continue
                C = collapse(k - 1, b)
                S = exit_shuffle(k, j)
                coface = face_op(k, i)
                for level in (0, 1):
                    for pos in range(max(k - 2, 0) + 1):
                        ok = ok and S(coface(C(level, pos)))[0] == level
    for k in range(1, 9):
        for j in range(1, k + 1):
            for i in range(k + 1):
                C = collapse(k + 1, sharp(k, j, i))
                S = exit_shuffle(k, j)
                sigma = degeneracy_op(k, i)
                for level in (0, 1):
                    for pos in range(k + 1):
                        ok = ok and S(sigma(C(level, pos)))[0] == level
    conclude(3, "S_j . coface_i . C_flat and S_j . codegeneracy_i . C_sharp "
                "preserve prism level for k <= 8", ok)


def test_c04_index_identities():
    def chain(k, e, face_indices):
        for fi in face_indices:
            cls = classify_face(k, e, fi)
            if cls is not FaceClass.VERTICAL:
                return cls, None
            e, k = flat(k, e, fi), k - 1
        return FaceClass.VERTICAL, e

    ok = True
    for k in range(2, 9):
        for e in range(1, k + 1):
            for j in range(1, k + 1):
                for i in range(j):
                    ok = ok and chain(k, e, [j, i]) == chain(k, e, [i, j - 1])
    for k in range(1, 9):
        for e in range(1, k + 1):
            for j in range(k + 1):
                for i in range(j):  # d_i s_j = s_{j-1} d_i
                    lhs = classify_face(k + 1, sharp(k, e, j), i)
                    ok = ok and lhs == classify_face(k, e, i)
                    if lhs is FaceClass.VERTICAL:
                        ok = ok and flat(k + 1, sharp(k, e, j), i) == \
                            sharp(k - 1, flat(k, e, i), j - 1)
                for i in (j, j + 1):  # d_i s_j = id
                    ok = ok and classify_face(k + 1, sharp(k, e, j), i) is \
                        FaceClass.VERTICAL
                    ok = ok and flat(k + 1, sharp(k, e, j), i) == e
                for i in range(j + 2, k + 2):  # d_i s_j = s_j d_{i-1}
                    lhs = classify_face(k + 1, sharp(k, e, j), i)
                    ok = ok and lhs == classify_face(k, e, i - 1)
                    if lhs is FaceClass.VERTICAL:
                        ok = ok and flat(k + 1, sharp(k, e, j), i) == \
                            sharp(k - 1, flat(k, e, i - 1), j)
                for i in range(j + 1):  # s_i s_j = s_{j+1} s_i
                    ok = ok and sharp(k + 1, sharp(k, e, j), i) == \
                        sharp(k + 1, sharp(k, e, i), j + 1)
    conclude(4, "the five simplicial identities hold in the flat/sharp index "
                "calculus for k <= 8", ok)


def test_c05_exit_complex_identities():
    t0 = time.perf_counter()
    ok = True
    for name in HYPOTHESIS_SPANS:
        span = load_span(name)
        report = verify_simplicial_identities(build_exit(span, 4), 4)
        ok = ok and report.ok
    dt = time.perf_counter() - t0
    conclude(5, f"simplicial identities verified on Ex(span) through degree 4 "
                f"for {', '.join(HYPOTHESIS_SPANS)} in {dt:.2f}s (< 10s)",
             ok and dt < 10.0)


def test_c06_trivial_span_recovers_input():
    span = load_span("trivial")
    ex = build_exit(span, 5)
    report = comparison_report(GALLERY["trivial"].oracle(ex), 5)
    conclude(6, "Ex(empty <- empty -> X) is isomorphic to X through degree 5",
             report.ok)


def test_c07_point_cone_is_interval():
    span = load_span("point-cone")
    ex = build_exit(span, 6)
    ok = all(ex.count_at(k) == k + 2 for k in range(7))
    ok = ok and comparison_report(GALLERY["point-cone"].oracle(ex), 6).ok

    # the step-map encoding: a k-simplex of Delta[1] is a 0/1 tuple; low
    # parts are constant 0, upper parts constant 1, and the exit path of
    # index j steps after j zeros.  Faces delete a coordinate,
    # degeneracies double one; both must commute with the encoding.
    def phi(s):
        if isinstance(s, Low):
            return (0,) * (s.dim + 1)
        if isinstance(s, Upper):
            return (1,) * (s.dim + 1)
        return shuffle_level(exit_shuffle(s.dim, s.index)).values

    for k in range(6):
        seen = set()
        for s in all_exit_simplices(span, k):
            code = phi(s)
            assert code not in seen
            seen.add(code)
            for i in range(k + 1):
                up = phi(tagged_degeneracy(span, s, i))
                ok = ok and up == code[: i + 1] + code[i:]
                if k >= 1:
                    down = phi(tagged_face(span, s, i))
                    ok = ok and down == code[:i] + code[i + 1:]
        ok = ok and len(seen) == k + 2
    conclude(7, "Ex(point <- point = point) is the 1-simplex through degree 6, "
                "matching the step-map encoding keyed by exit index", ok)


def test_c08_inner_horns_fill():
    t0 = time.perf_counter()
    ok = True
    for name in HYPOTHESIS_SPANS:
        span = load_span(name)
        report = verify_quasicategory(build_exit(span, 3), 3, budget=BUDGET)
        ok = ok and report.ok and not report.inconclusive
    dt = time.perf_counter() - t0
    conclude(8, f"all inner horns through degree 3 fill in Ex(span) for "
                f"{', '.join(HYPOTHESIS_SPANS)} in {dt:.2f}s (< 300s)",
             ok and dt < 300.0)


def test_c09_broken_span_detected():
    span = load_span("broken")
    fib = check_fibration(span.pi, 1, kind="right", budget=BUDGET)
    ok = bool(fib.failed)
    ok = ok and fib.failed[0].name == "lifts Lambda^1_1"
    ok = ok and fib.failed[0].witness and "no lift" in fib.failed[0].witness

    ex = build_exit(span, 2)
    qcat = verify_quasicategory(ex, 2, budget=BUDGET)
    ok = ok and bool(qcat.failed)
    ok = ok and "no filler for Lambda^2_1" in (qcat.failed[0].witness or "")

    # the concrete unfillable horn: the strata edge followed by the exit
    # edge has no composite in Ex
    h = HornProblem(2, 1, (nondeg("P.0,1@1", 1), None, nondeg("M.0,1", 1)))
    ok = ok and horn_is_compatible(ex, h) and find_filler(ex, h) is None
    conclude(9, "the broken span fails right-fibration lifting at Lambda^1_1 "
                "and Ex has a witnessed unfillable inner 2-horn", ok)


def test_c10_fibration_calibration():
    X = standard_simplex(1)
    ident = SimplicialMap("id", X, X, {g: nondeg(g, d) for g, d in X.gen_dims.items()})
    ok = check_fibration(ident, 2, kind="right", budget=BUDGET).ok

    P = standard_simplex(0, "pt")
    v1 = SimplicialMap("v1", P, X, {"0": nondeg("1", 0)})
    ok = ok and not check_fibration(v1, 2, kind="right", budget=BUDGET).ok
    ok = ok and check_fibration(v1, 2, kind="inner", budget=BUDGET).ok

    S = discrete("sphere0", ["s-", "s+"])
    to_point = SimplicialMap("collapse", S, point("pt", "p"),
                             {"s-": nondeg("p", 0), "s+": nondeg("p", 0)})
    ok = ok and check_fibration(to_point, 3, kind="right", budget=BUDGET).ok
    conclude(10, "fibration checker calibration: identity passes right, the "
                 "vertex-1 inclusion fails right but passes inner, S^0 -> * "
                 "passes right through degree 3", ok)
