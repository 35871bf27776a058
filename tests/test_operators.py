"""Operator algebra: composition, factorization, elementary relations."""

import random
from itertools import product

import pytest

from exitpath.operators import (
    Operator,
    compose,
    compose_values,
    degeneracy_op,
    degeneracy_word,
    epi_mono_factor,
    face_op,
    identity,
    is_surjection_values,
    surjection_from_word,
    surjection_values,
)
from oracles import injections, is_identity, is_injective, monotone_maps


def test_validation():
    with pytest.raises(ValueError):
        Operator(1, 1, (1, 0))  # not monotone
    with pytest.raises(ValueError):
        Operator(1, 1, (0, 2))  # out of range
    with pytest.raises(ValueError):
        Operator(1, 1, (0,))  # wrong length
    with pytest.raises(ValueError):
        face_op(0, 0)
    with pytest.raises(ValueError):
        face_op(2, 3)
    with pytest.raises(ValueError):
        degeneracy_op(2, 3)
    with pytest.raises(ValueError, match=r"^negative ordinal: \[-1\] -> \[0\]$"):
        Operator(-1, 0, ())


def test_elementary_shapes():
    assert face_op(3, 1).values == (0, 2, 3)
    assert degeneracy_op(2, 1).values == (0, 1, 1, 2)
    assert is_identity(identity(2))
    assert is_injective(face_op(3, 1))
    assert degeneracy_op(3, 1).onto


@pytest.mark.parametrize("length", [0, 1, 2, 300])
def test_compose_values_gathers_a_tuple(length):
    # one index is the length where a bare itemgetter returns the item
    rng = random.Random(length)
    outer = tuple(rng.randrange(1000) for _ in range(50))
    inner = tuple(rng.randrange(len(outer)) for _ in range(length))
    got = compose_values(outer, inner)
    assert type(got) is tuple
    assert got == tuple(outer[v] for v in inner)
    # a list inner, as the simplicial action passes its epi
    assert compose_values(outer, list(inner)) == got


@pytest.mark.parametrize("inner", [(3,), (0, 3), (1, 0, 7)])
def test_compose_values_refuses_an_entry_outside_outer(inner):
    with pytest.raises(IndexError):
        compose_values((5, 6, 7), inner)


def test_compose_is_compose_values_on_operators():
    for m, k, n in product(range(4), repeat=3):
        for outer in monotone_maps(k, n):
            for inner in monotone_maps(m, k):
                assert compose(outer, inner).values == compose_values(outer.values, inner.values)


def test_compose_mismatch():
    with pytest.raises(ValueError):
        compose(face_op(2, 0), face_op(3, 0))


def test_cosimplicial_identities():
    # coface/coface: delta_j . delta_i = delta_i . delta_{j-1} for i < j
    for n in range(1, 6):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose(face_op(n + 1, j), face_op(n, i))
                rhs = compose(face_op(n + 1, i), face_op(n, j - 1))
                assert lhs == rhs
    # codegeneracy/codegeneracy: sigma_j . sigma_i = sigma_i . sigma_{j+1}, i <= j
    for n in range(5):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = compose(degeneracy_op(n, j), degeneracy_op(n + 1, i))
                rhs = compose(degeneracy_op(n, i), degeneracy_op(n + 1, j + 1))
                assert lhs == rhs
    # mixed: sigma_j . delta_i
    for n in range(1, 5):
        for j in range(n):
            for i in range(n + 1):
                got = compose(degeneracy_op(n - 1, j), face_op(n, i))
                if i < j:
                    assert got == compose(face_op(n - 1, i), degeneracy_op(n - 2, j - 1))
                elif i in (j, j + 1):
                    assert is_identity(got)
                else:
                    assert got == compose(face_op(n - 1, i - 1), degeneracy_op(n - 2, j))


def test_epi_mono_exhaustive():
    # unique factorization, all operators with dims <= 7
    for m in range(8):
        for n in range(8):
            for op in monotone_maps(m, n):
                epi, mono = epi_mono_factor(op)
                assert epi.onto
                assert is_injective(mono)
                assert compose(mono, epi) == op


def test_onto_is_read_off_the_values():
    # the flag against its definition, on every monotone map [m] -> [n]
    for m in range(5):
        for n in range(5):
            for op in monotone_maps(m, n):
                assert op.onto == (len(set(op.values)) == n + 1), op
                assert is_identity(op) == (op.values == tuple(range(n + 1))), op
                # values onto [d] for the last value d, which may fall short of n
                assert op.onto == (is_surjection_values(op.values) and op.values[-1] == n), op


def test_is_surjection_values_refusals_and_negative_ordinals():
    assert not any(map(is_surjection_values, [(), (1,), (0, 1, 0), (0, 2), [0, 1], ("a",)]))
    assert list(surjection_values(-1, -1)) == list(surjection_values(2, -1)) == []


def test_onto_takes_no_part_in_equality_hash_or_repr():
    op, twin = Operator(2, 1, (0, 0, 1)), Operator(2, 1, (0, 0, 1))
    object.__setattr__(twin, "onto", False)
    assert op.onto and not twin.onto
    assert op == twin and hash(op) == hash(twin) and repr(op) == repr(twin)
    assert {op: 1}[twin] == 1


def test_enumerations_are_complete_and_ordered():
    ops = list(monotone_maps(2, 2))
    assert len(ops) == 10
    assert ops == sorted(ops, key=lambda o: o.values)
    assert list(surjection_values(3, 1)) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    injs = list(injections(1, 2))
    assert [o.values for o in injs] == [(0, 1), (0, 2), (1, 2)]
    assert list(surjection_values(1, 3)) == []


def test_degeneracy_words_roundtrip():
    for n in range(7):
        for d in range(n + 1):
            for values in surjection_values(n, d):
                op = Operator(n, d, values)
                word = degeneracy_word(op)
                assert surjection_from_word(n, word) == op
                # ascending word, so the largest index is innermost
                acc = identity(n)
                for i in reversed(word):
                    acc = compose(degeneracy_op(acc.dst_dim - 1, i), acc)
                assert acc == op


def test_degeneracy_word_rejects_nonsurjection():
    with pytest.raises(ValueError):
        degeneracy_word(face_op(2, 1))
    with pytest.raises(ValueError):
        surjection_from_word(2, (0, 0))
    with pytest.raises(ValueError):
        surjection_from_word(2, (5,))


def test_degeneracy_word_must_ascend():
    # a word is a set of repeat positions written in one order; another
    # order would parse to the same surjection and print back differently
    with pytest.raises(ValueError, match="bad degeneracy word"):
        surjection_from_word(3, (1, 0))
