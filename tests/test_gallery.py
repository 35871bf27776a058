"""The worked spans: expected complexes, hypothesis flags, oracles."""

import pytest

from exitpath.construction import build_exit, exit_simplices
from exitpath.gallery import GALLERY, cone_span, load_span
from exitpath.simplicial import standard_simplex
from exitpath.verify import (
    check_fibration,
    comparison_report,
    verify_quasicategory,
    verify_simplicial_identities,
)


def test_gallery_names():
    assert sorted(GALLERY) == \
        ["boundary-collar", "broken", "point-cone", "s0-defect", "trivial"]


def test_load_span_unknown():
    with pytest.raises(KeyError):
        load_span("no-such-span")


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_iota_is_mono_everywhere(name):
    span = load_span(name)
    assert span.iota.is_mono(4) == (True, None)
    assert span.iota.mono_bound >= 4


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_hypothesis_flag_matches_fibration_check(name):
    # the abstract's hypotheses at depth 4: M and N are quasicategories,
    # pi is a right fibration and iota is mono; they imply that Ex is
    # a quasicategory
    span = load_span(name)
    hypotheses = {
        "M inner horns": verify_quasicategory(span.M, 4).ok,
        "N inner horns": verify_quasicategory(span.N, 4).ok,
        "pi right fibration": check_fibration(span.pi, 4, kind="right").ok,
        "iota mono": span.iota.is_mono(4)[0],
    }
    assert all(hypotheses.values()) == GALLERY[name].hypotheses_hold, hypotheses
    if GALLERY[name].hypotheses_hold:
        assert verify_quasicategory(build_exit(span, 4), 4).ok


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_exit_complex_is_coherent(name):
    span = load_span(name)
    ex = build_exit(span, 3)
    assert ex.audit() == []
    assert verify_simplicial_identities(ex, 3).ok


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("name", [n for n in sorted(GALLERY) if GALLERY[n].oracle])
def test_oracles_match(name, depth):
    ex = build_exit(load_span(name), depth)
    report = comparison_report(GALLERY[name].oracle(ex), depth)
    assert report.ok, report.to_text()


def test_point_cone_counts():
    span = load_span("point-cone")
    ex = build_exit(span, 6)
    for k in range(7):
        assert ex.count_at(k) == k + 2
    # exactly one nondegenerate simplex above degree 0: the exit edge
    assert ex.generators(0) == ["M.c", "N.x"]
    assert ex.generators(1) == ["P.x+s0@1"]
    for k in range(2, 7):
        assert ex.generators(k) == []


def test_cone_names_follow_the_base():
    assert cone_span(standard_simplex(2)).name == "cone-simplex2"
    assert cone_span(standard_simplex(3, "tetra")).name == "cone-tetra"
    assert load_span("point-cone").name == "point-cone"
    assert build_exit(load_span("point-cone"), 1).name == "Ex(point-cone)<=1"


def test_s0_defect_counts():
    span = load_span("s0-defect")
    ex = build_exit(span, 5)
    for k in range(6):
        assert ex.count_at(k) == 2 * k + 3


def test_boundary_collar_inventory():
    span = load_span("boundary-collar")
    ex = build_exit(span, 3)
    assert ex.generators(0) == ["M.m", "N.0", "N.1"]
    assert ex.generators(1) == ["P.0+s0@1", "P.0,1@1", "N.0,1"]
    assert ex.generators(2) == ["P.0,1+s0@1"]
    assert ex.generators(3) == []
    tri = "P.0,1+s0@1"
    assert [repr(f) for f in ex.faces[tri]] == ["N.0,1", "P.0,1@1", "P.0+s0@1"]
    assert ex.notes[tri] == "exit@1"


def test_broken_exit_paths_exist_but_horns_fail():
    # building Ex never needs the fibration hypothesis; only filling does
    span = load_span("broken")
    assert len(exit_simplices(span, 1)) == 2
    ex = build_exit(span, 2)
    assert ex.audit() == []
