"""Worked spans with known exit complexes.

Each entry builds a small linked span, named by its key.  Every entry
but point-cone is a span of posets: M, L and N are nerves of posets
(nerve_of_poset, which point and discrete call with no relation, or
the empty SimplicialSet), and pi and iota are the maps of nerves of
monotone maps, each built by nerve_of_map from its values on elements.
Where its exit complex is known by hand or as a nerve, the entry's
oracle maps the built complex onto it, and the test suite checks that
map with verify.comparison_report; `exitpath examples` only lists the
entries and writes their documents.  The broken entry violates the
right-fibration hypothesis on purpose and is the negative control for
the horn-filling checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .construction import LinkedSpan
from .simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    nerve_of_map,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)


def point(name: str = "point", vertex: str = "pt") -> SimplicialSet:
    return discrete(name, [vertex])


def discrete(name: str, vertices: list[str]) -> SimplicialSet:
    return nerve_of_poset(vertices, [], name)


def cone_span(X: SimplicialSet, name: str | None = None) -> LinkedSpan:
    """point <- X = X: every simplex exits at every index.

    At X = point the exit complex is the 1-simplex: one low vertex, one
    upper vertex, and in degree k the k exit paths keyed by their index.
    The span is named cone-<name of X> unless name is given.
    """
    M = point("conetip", "c")
    pi = SimplicialMap("pi", X, M, {g: FormalSimplex("c", (0,) * (d + 1))
                                    for g, d in X.gen_dims.items()})
    iota = SimplicialMap("iota", X, X, {g: nondeg(g, d) for g, d in X.gen_dims.items()})
    return LinkedSpan(name or f"cone-{X.name}", M, L=X, N=X, pi=pi, iota=iota)


@dataclass(frozen=True)
class GalleryEntry:
    build: Callable[[str], LinkedSpan]  # the span's name -> the span
    summary: str
    hypotheses_hold: bool  # M, N quasicategories; iota mono; pi a right fibration
    # the built Ex -> the comparison map from it onto its known complex
    oracle: Callable[[SimplicialSet], SimplicialMap] | None = None


def _chain3():
    return nerve_of_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], "chain3")


def _relabelling(ex: SimplicialSet, oracle: SimplicialSet,
                 labels: dict[str, str]) -> SimplicialMap:
    """The comparison map ex -> oracle sending each generator g of ex to
    the oracle's generator labels[g]; building it audits naturality."""
    return SimplicialMap("comparison", ex, oracle,
                         {g: nondeg(labels[g], d) for g, d in ex.gen_dims.items()})


GALLERY: dict[str, GalleryEntry] = {
    # no exit paths at all, so Ex is N again
    "trivial": GalleryEntry(
        lambda name: LinkedSpan(name, M := SimplicialSet("emptyM"), L := SimplicialSet("emptyL"),
                                N := _chain3(), nerve_of_map("pi", L, M, {}),
                                nerve_of_map("iota", L, N, {})),
        "empty <- empty -> nerve(a<b<c); Ex is N again", True,
        lambda ex: _relabelling(ex, _chain3(),
                                {g: g.removeprefix("N.") for g in ex.gen_dims})),
    "point-cone": GalleryEntry(
        lambda name: cone_span(point("apexlink", "x"), name),
        "point <- point = point; Ex is the 1-simplex", True,
        lambda ex: _relabelling(ex, standard_simplex(1, "interval"),
                                {"M.c": "0", "N.x": "1", "P.x+s0@1": "0,1"})),
    # a codimension-everything defect with two exit directions
    "s0-defect": GalleryEntry(
        lambda name: LinkedSpan(name, M := point("stratum", "m"),
                                L := discrete("link", ["l-", "l+"]),
                                N := discrete("sphere0", ["n-", "n+"]),
                                nerve_of_map("pi", L, M, {"l-": "m", "l+": "m"}),
                                nerve_of_map("iota", L, N, {"l-": "n-", "l+": "n+"})),
        "point <- S^0 = S^0; Ex is the nerve of m<n-, m<n+", True,
        lambda ex: _relabelling(
            ex, nerve_of_poset(["m", "n-", "n+"], [("m", "n-"), ("m", "n+")],
                               "defect-nerve"),
            {"M.m": "m", "N.n-": "n-", "N.n+": "n+",
             "P.n-+s0@1": "m,n-", "P.n++s0@1": "m,n+"})),
    # a manifold boundary with its collar: exit paths may stop at the
    # collar vertex or run along the edge, so Ex has two nondegenerate
    # exit edges and the triangle composing them
    "boundary-collar": GalleryEntry(
        lambda name: LinkedSpan(name, M := point("boundary", "m"),
                                L := point("collarlink", "l"), N := standard_simplex(1, "collar"),
                                nerve_of_map("pi", L, M, {"l": "m"}),
                                nerve_of_map("iota", L, N, {"l": "0"})),
        "point <- point -> edge at vertex 0; boundary with collar", True,
        None),
    # pi is not a right fibration: the edge of M ending at pi(l) has no
    # lift through the one-point link, and Ex has an inner 2-horn with
    # no filler; the negative control
    "broken": GalleryEntry(
        lambda name: LinkedSpan(name, M := standard_simplex(1, "strata"),
                                L := point("link1", "l"), N := standard_simplex(1, "normal"),
                                nerve_of_map("pi", L, M, {"l": "1"}),
                                nerve_of_map("iota", L, N, {"l": "0"})),
        "edge <- point -> edge, pi at the closed end; not a right fibration", False,
        None),
}


def load_span(name: str) -> LinkedSpan:
    if name not in GALLERY:
        raise KeyError(f"unknown gallery span {name!r}; have {sorted(GALLERY)}")
    return GALLERY[name].build(name)
