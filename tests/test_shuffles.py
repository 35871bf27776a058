"""Shuffle/collapse calculus: definitional oracles against the closed forms.

The oracles (flat and sharp from tests/oracles.py, classify below)
recompute every index from the composite points of shuffles with
cofaces/codegeneracies; the library ships only the closed forms, so
each closed form is checked against its defining search over the full
range used anywhere in the package (k <= 10).
"""

import pytest

from exitpath.operators import face_op, degeneracy_op
from exitpath.shuffles import (
    FaceClass,
    UndefinedFlat,
    classify_face,
    collapse,
    exit_shuffle,
    flat,
    restriction_operator,
    sharp,
)
from oracles import (
    flat_oracle,
    sharp_oracle,
    shuffle_after_coface,
    shuffle_level,
    shuffle_position,
)

K_MAX = 10


# -- oracles ------------------------------------------------------------------


def classify_oracle(k, j, i):
    levels = [level for level, _ in shuffle_after_coface(k, j, i)]
    if all(level == 0 for level in levels):
        return FaceClass.LOW
    if all(level == 1 for level in levels):
        return FaceClass.UPPER
    return FaceClass.VERTICAL


# -- shuffles and collapses ----------------------------------------------------


def test_shuffle_points_pinned():
    assert exit_shuffle(3, 1).points == ((0, 0), (1, 0), (1, 1), (1, 2))
    assert exit_shuffle(3, 3).points == ((0, 0), (0, 1), (0, 2), (1, 2))
    C = collapse(3, 2)
    assert C.low.values == (0, 1, 1)
    assert C.high.values == (2, 2, 3)


def test_shuffle_k1_identification():
    # the Delta[0] factor is collapsed: positions are all 0
    S = exit_shuffle(1, 1)
    assert S.points == ((0, 0), (1, 0))
    C = collapse(1, 1)
    assert C(0, 0) == 0 and C(1, 0) == 1


def test_shuffle_coordinates_are_operators():
    # the level and position coordinates are operators: both validate
    # monotonicity on construction
    for k in range(1, K_MAX + 1):
        for j in range(1, k + 1):
            S = exit_shuffle(k, j)
            assert shuffle_level(S).values == tuple(0 if i < j else 1 for i in range(k + 1))
            assert shuffle_position(S).dst_dim == max(k - 1, 0)


def test_collapse_retracts_shuffle():
    # C_j . S_j = id on [k], every k <= K_MAX
    for k in range(1, K_MAX + 1):
        for j in range(1, k + 1):
            S = exit_shuffle(k, j)
            C = collapse(k, j)
            for i in range(k + 1):
                level, pos = S(i)
                assert C(level, pos) == i, (k, j, i)


def test_index_bounds_rejected():
    with pytest.raises(ValueError):
        exit_shuffle(0, 1)
    with pytest.raises(ValueError):
        exit_shuffle(3, 0)
    with pytest.raises(ValueError):
        exit_shuffle(3, 4)
    with pytest.raises(ValueError):
        collapse(2, 3)
    with pytest.raises(ValueError):
        collapse(2, 1)(2, 0)


# -- flat and sharp --------------------------------------------------------------


def test_flat_matches_oracle():
    for k in range(2, K_MAX + 1):
        for j in range(1, k + 1):
            for i in range(k + 1):
                want = flat_oracle(k, j, i)
                if want is None:
                    assert (j, i) == (k, k)
                    with pytest.raises(UndefinedFlat):
                        flat(k, j, i)
                else:
                    assert flat(k, j, i) == want, (k, j, i)


def test_flat_rejects_low_corner():
    for k in range(2, K_MAX + 1):
        with pytest.raises(UndefinedFlat):
            flat(k, k, k)


def test_flat_zero_only_at_upper_corner():
    for k in range(2, K_MAX + 1):
        for j in range(1, k + 1):
            for i in range(k + 1):
                if (j, i) == (k, k):
                    continue
                assert (flat(k, j, i) == 0) == ((j, i) == (1, 0))


def test_flat_row_pinned():
    assert [flat(5, 2, i) for i in range(6)] == [1, 1, 2, 2, 2, 2]


def test_sharp_matches_oracle():
    for k in range(1, K_MAX + 1):
        for j in range(1, k + 1):
            for i in range(k + 1):
                want = sharp_oracle(k, j, i)
                assert want is not None
                assert sharp(k, j, i) == want, (k, j, i)
                assert 1 <= sharp(k, j, i) <= k + 1


def test_sharp_values_pinned():
    assert sharp(1, 1, 0) == 2
    assert sharp(1, 1, 1) == 1
    assert [sharp(5, 2, i) for i in range(6)] == [3, 3, 2, 2, 2, 2]


def test_flat_sharp_domain_errors():
    with pytest.raises(ValueError):
        flat(1, 1, 0)  # k must be >= 2
    with pytest.raises(ValueError):
        flat(3, 1, 4)
    with pytest.raises(ValueError):
        sharp(3, 4, 0)
    with pytest.raises(ValueError):
        sharp(3, 1, -1)


# -- classification ----------------------------------------------------------------


def test_classification_matches_pointwise_search():
    # the corner characterization: LOW exactly at (i, j) = (k, k),
    # UPPER exactly at (i, j) = (0, 1)
    for k in range(1, K_MAX + 1):
        for j in range(1, k + 1):
            for i in range(k + 1):
                assert classify_face(k, j, i) == classify_oracle(k, j, i), (k, j, i)


def test_classification_pinned():
    assert classify_face(2, 1, 0) is FaceClass.UPPER
    assert classify_face(2, 2, 2) is FaceClass.LOW
    assert classify_face(2, 2, 0) is FaceClass.VERTICAL
    # k = 1: d_1 low, d_0 upper, nothing vertical
    assert classify_face(1, 1, 1) is FaceClass.LOW
    assert classify_face(1, 1, 0) is FaceClass.UPPER


# -- restriction --------------------------------------------------------------------


def test_restriction_is_level0_collapse():
    # C_j at level 0 keeps m < j and sends m >= j to j - 1
    for k in range(1, K_MAX + 1):
        for j in range(1, k + 1):
            pointwise = tuple(m if m < j else j - 1 for m in range(k))
            assert collapse(k, j).low.values == pointwise, (k, j)
            assert restriction_operator(k, j).values == pointwise, (k, j)


def test_restriction_at_top_is_last_coface():
    for k in range(1, K_MAX + 1):
        assert restriction_operator(k, k) == face_op(k, k)


# -- level preservation ----------------------------------------------------------


def test_face_composite_preserves_level():
    # S_j . coface_i . C_flat stays at the level it starts on; the low
    # corner has no flat and the upper corner's flat is 0, where no
    # collapse exists, so both are skipped
    for k in range(2, 9):
        for j in range(1, k + 1):
            for i in range(k + 1):
                if (j, i) == (k, k):
                    continue
                b = flat(k, j, i)
                if b == 0:
                    assert (j, i) == (1, 0)
                    continue
                C = collapse(k - 1, b)
                S = exit_shuffle(k, j)
                coface = face_op(k, i)
                for level in (0, 1):
                    for pos in range(max(k - 2, 0) + 1):
                        m = C(level, pos)
                        assert S(coface(m))[0] == level, (k, j, i, level, pos)


def test_degeneracy_composite_preserves_level():
    # S_j . codegeneracy_i . C_sharp preserves level with no exceptions
    for k in range(1, 9):
        for j in range(1, k + 1):
            for i in range(k + 1):
                sh = sharp(k, j, i)
                C = collapse(k + 1, sh)
                S = exit_shuffle(k, j)
                sigma = degeneracy_op(k, i)
                for level in (0, 1):
                    for pos in range(k + 1):
                        m = C(level, pos)
                        assert S(sigma(m))[0] == level, (k, j, i, level, pos)


# -- the index identities -----------------------------------------------------------
#
# Each simplicial identity on exit paths reduces to an identity of
# flat/sharp indices together with agreement of the face classes along
# both composites.  chain_class follows a sequence of face indices and
# reports the first non-vertical class (faces taken afterwards stay in
# the low or upper part), or the final exit index when all steps are
# vertical.


def chain_class(k, e, face_indices):
    for fi in face_indices:
        cls = classify_face(k, e, fi)
        if cls is not FaceClass.VERTICAL:
            return cls, None
        e = flat(k, e, fi)
        k -= 1
    return FaceClass.VERTICAL, e


def test_identity_dd():
    # d_i d_j = d_{j-1} d_i for i < j
    for k in range(2, 9):
        for e in range(1, k + 1):
            for j in range(1, k + 1):
                for i in range(j):
                    assert chain_class(k, e, [j, i]) == chain_class(k, e, [i, j - 1]), \
                        (k, e, j, i)


def test_identity_ds_low():
    # d_i s_j = s_{j-1} d_i for i < j
    for k in range(1, 9):
        for e in range(1, k + 1):
            for j in range(k + 1):
                for i in range(j):
                    lhs = classify_face(k + 1, sharp(k, e, j), i)
                    rhs = classify_face(k, e, i)
                    assert lhs == rhs, (k, e, j, i)
                    if lhs is FaceClass.VERTICAL:
                        assert flat(k + 1, sharp(k, e, j), i) == \
                            sharp(k - 1, flat(k, e, i), j - 1), (k, e, j, i)


def test_identity_ds_id():
    # d_j s_j = d_{j+1} s_j = id: both faces are vertical and flat
    # returns the original exit index
    for k in range(1, 9):
        for e in range(1, k + 1):
            for j in range(k + 1):
                for i in (j, j + 1):
                    assert classify_face(k + 1, sharp(k, e, j), i) is FaceClass.VERTICAL
                    assert flat(k + 1, sharp(k, e, j), i) == e, (k, e, j, i)


def test_identity_ds_high():
    # d_i s_j = s_j d_{i-1} for i > j + 1
    for k in range(1, 9):
        for e in range(1, k + 1):
            for j in range(k + 1):
                for i in range(j + 2, k + 2):
                    lhs = classify_face(k + 1, sharp(k, e, j), i)
                    rhs = classify_face(k, e, i - 1)
                    assert lhs == rhs, (k, e, j, i)
                    if lhs is FaceClass.VERTICAL:
                        assert flat(k + 1, sharp(k, e, j), i) == \
                            sharp(k - 1, flat(k, e, i - 1), j), (k, e, j, i)


def test_identity_ss():
    # s_i s_j = s_{j+1} s_i for i <= j
    for k in range(1, 9):
        for e in range(1, k + 1):
            for j in range(k + 1):
                for i in range(j + 1):
                    assert sharp(k + 1, sharp(k, e, j), i) == \
                        sharp(k + 1, sharp(k, e, i), j + 1), (k, e, j, i)
