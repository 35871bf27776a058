"""Exit-path simplicial sets of linked spans.

A linked span is M <-pi- L -iota-> N with iota a monomorphism (levelwise
injective).  Its exit complex Ex has

    Ex_0 = M_0 + N_0
    Ex_k = M_k + P_{k-1} + N_k        (k >= 1)

where P_{k-1} consists of the exit paths, the Exit values: pairs
(gamma, j) of a k-simplex gamma of N and an exit index 1 <= j <= k such
that the restriction of gamma . C_j to level 0 of the prism factors
through iota.  Since iota is mono the factorization is unique.

Membership is decided once per generator of N and front face.  Write
gamma = sigma^* g with sigma: [k] ->> [d] and g nondegenerate.  The
level-0 restriction sends m to min(m, j - 1), so gamma . C_j restricted
is a degeneracy of the front face F_r(g) = g . (0 < ... < r) at
r = sigma(j - 1).  The image of iota is a simplicial subset, and by
Eilenberg-Zilber a degeneracy of x lies in it exactly when x does
(faces of the degeneracy give x back).  Hence (gamma, j) is an exit
path iff F_r(g) has a preimage under iota, a lookup at degree
r <= k - 1, which LinkedSpan.front_lifts answers and caches.

Faces of exit paths are driven by the face classification: vertical
faces stay exit paths with the flat index, the single low face
(i = j = k) lands in M through pi after the unique lift, and the single
upper face (i = 0, j = 1) forgets down to N.  For k = 1 the same
dispatch degenerates to d_1 low, d_0 upper.  Every degeneracy stays an
exit path with the sharp index.  Faces are computed on plain
(generator, values) pairs, like SimplicialSet.face_values: the face by
exit_face_values and the normal form of an exit path by
exit_core_values.  build_exit calls these two directly; the tagged
exit_face and exit_normal_form wrap them and build Low, Exit and Upper
values.

Nondegenerate exit paths are the nondegenerate simplices of the prisms
Delta^1 x Delta^d over the generators of N.  (sigma^* g, j) is s_i of an
exit path exactly when sigma repeats at some i other than the crossing
j - 1; dropping that repeat keeps sigma(j - 1), hence membership.  So
the nondegenerate exit paths of degree k are (g, j) for g in gens_k(N)
and (s_{j-1}^* g, j) for g in gens_{k-1}(N), each where
front_lifts(g, j - 1) holds; build_exit lists exactly these, and
exit_core_values drops every repeat but the crossing in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .operators import Operator, degeneracy_op, degeneracy_word, identity
from .shuffles import FaceClass, classify_face, flat, sharp
from .simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    _simplex,
    nondeg,
    simplex_repr,
)


class SpanIntegrityError(RuntimeError):
    """A low face failed to lift through the link; the span data is
    inconsistent with exit-path membership already established."""


class IotaNotMono(RuntimeError):
    """iota is not levelwise injective through a degree an operation
    needs; the message carries two simplices with one image."""


@dataclass(frozen=True)
class Low:
    simplex: FormalSimplex

    @property
    def dim(self) -> int:
        return self.simplex.dim

    def __repr__(self):
        return f"low[{self.simplex!r}]"


@dataclass(frozen=True)
class Exit:
    """An exit path: a k-simplex gamma of N together with its exit index j.

    Equality is equality of both coordinates; the same gamma with two
    different indices gives two different simplices of Ex.
    """

    gamma: FormalSimplex
    index: int

    def __post_init__(self):
        if not 1 <= self.index <= self.gamma.dim:
            raise ValueError(f"exit index {self.index} outside 1..{self.gamma.dim}")

    @property
    def dim(self) -> int:
        return self.gamma.dim

    def __repr__(self):
        return f"exit({self.gamma!r}@{self.index})"


@dataclass(frozen=True)
class Upper:
    simplex: FormalSimplex

    @property
    def dim(self) -> int:
        return self.simplex.dim

    def __repr__(self):
        return f"upper[{self.simplex!r}]"


ExitSimplex = Low | Exit | Upper


@cache
def _front(r: int, d: int) -> Operator:
    """The front coface (0 < ... < r): [r] -> [d].  Shared process-wide,
    like simplicial._surjections: nothing writes to it."""
    return Operator(r, d, tuple(range(r + 1)))


class LinkedSpan:
    """M <-pi- L -iota-> N with pi, iota natural on generators.

    Naturality of both maps is audited at construction, and iota fixes
    from its generators the degree it is injective through
    (SimplicialMap.mono_bound); exit-path membership queries need that
    bound to reach the relevant degree.  Whether pi is a right
    fibration is a separate check, verify.check_fibration.
    """

    def __init__(self, name: str, M: SimplicialSet, L: SimplicialSet, N: SimplicialSet,
                 pi: SimplicialMap, iota: SimplicialMap):
        if pi.domain is not L or pi.codomain is not M:
            raise ValueError(f"{name}: pi must map L to M")
        if iota.domain is not L or iota.codomain is not N:
            raise ValueError(f"{name}: iota must map L to N")
        self.name = name
        self.M, self.L, self.N = M, L, N
        self.pi, self.iota = pi, iota
        # (generator of N, r) -> whether its front r-face lifts through
        # iota; at most sum over generators of (dim + 1) entries
        self._front_lifts: dict[tuple[str, int], bool] = {}

    def require_iota(self, depth: int):
        ok, witness = self.iota.is_mono(depth)
        if not ok:
            raise IotaNotMono(f"{self.name}: iota is not mono: {witness}")

    def front_lifts(self, gen: str, r: int) -> bool:
        """Whether the front face g . (0 < ... < r) of the generator gen
        of N lies in the image of iota.  Requires iota mono through
        degree r, else SimplicialMap.preimage raises RuntimeError; the
        answer is cached per (gen, r).  The face is N.act of a shared
        front operator on the shared identity simplex, so a query builds
        no Operator; it is not walked down N's face table because
        bench/test_bench.py counts act calls (ROADMAP item 6)."""
        key = (gen, r)
        hit = self._front_lifts.get(key)
        if hit is None:
            d = self.N.gen_dims[gen]
            front = self.N.act(_simplex(gen, tuple(range(d + 1))), _front(r, d))
            hit = self._front_lifts[key] = self.iota.preimage(front) is not None
        return hit

    def __repr__(self):
        return (f"LinkedSpan({self.name!r}: {self.M.name} <- {self.L.name} "
                f"-> {self.N.name})")


# -- membership --------------------------------------------------------------


def is_exit_path(span: LinkedSpan, gamma: FormalSimplex, j: int) -> bool:
    """Whether (gamma, j) is an exit path: the level-0 restriction of
    gamma . C_j lifts (necessarily uniquely) through iota.

    That restriction is gamma . restriction_operator(k, j), a degeneracy
    of the front face F_r(g) of gamma's generator at r = sigma(j - 1),
    and a degeneracy lies in the simplicial subset im(iota) exactly
    when its nondegenerate core does; so the answer is
    span.front_lifts(g, r), with r <= k - 1 inside iota's mono bound.
    """
    k = gamma.dim
    if k < 1:
        raise ValueError("exit paths start in dimension 1")
    if not 1 <= j <= k:
        raise ValueError(f"exit index {j} outside 1..{k}")
    span.require_iota(k - 1)
    return span.front_lifts(gamma.gen, gamma.degeneracy.values[j - 1])


def exit_simplices(span: LinkedSpan, k: int) -> list[Exit]:
    """All exit paths of dimension k, in (N-simplex order, index) order."""
    if k < 1:
        return []
    span.require_iota(k - 1)
    lifts = span.front_lifts
    return [Exit(gamma, j)
            for gamma in span.N.simplices_at(k)
            for j in range(1, k + 1)
            if lifts(gamma.gen, gamma.degeneracy.values[j - 1])]


# -- faces and degeneracies ---------------------------------------------------


def exit_face_values(span: LinkedSpan, gen: str, values: tuple[int, ...], j: int,
                     i: int) -> tuple[str, str, tuple[int, ...], int | None]:
    """d_i of the exit path (sigma^*gen, j), sigma given by its values,
    as (part, generator, values, index), from (h, tau) = d_i of
    sigma^*gen in N: part "M" for the low face (i = j = k), whose
    generator is lifted through iota and sent to M by pi; "N" for the
    upper face (i = 0, j = 1); "P" with the flat index for a vertical
    face.  The indices are not checked here: a bad j raises ValueError
    from classify_face, and a bad i KeyError or IndexError from
    N.face_values or ValueError from classify_face."""
    k = len(values) - 1
    h, tau = span.N.face_values(gen, values, i)
    cls = classify_face(k, j, i)
    if cls is FaceClass.VERTICAL:
        return "P", h, tau, flat(k, j, i)
    if cls is FaceClass.UPPER:
        return "N", h, tau, None
    span.require_iota(k - 1)
    lifted = span.iota.preimage_values(h, tau)
    if lifted is None:
        raise SpanIntegrityError(
            f"{span.name}: low face {simplex_repr(h, tau)} has no lift through iota, "
            f"but membership of the ambient exit path was already established"
        )
    return ("M", *span.pi.image_values(*lifted), None)


def exit_core_values(values: tuple[int, ...], j: int) -> tuple[int, int, tuple[int, ...]]:
    """The normal form of the exit path (sigma^*gen, j), sigma given by
    its values, as (r, c, values): with r = sigma(j - 1) and c =
    [sigma(j) = r], the core is (s_r^* gen, r + 1) if c and (gen, r + 1)
    otherwise, and the surjection is m -> sigma(m) + (c if m >= j)."""
    r = values[j - 1]
    if values[j] != r:
        return r, 0, values
    return r, 1, values[:j] + tuple([v + 1 for v in values[j:]])


def exit_face(span: LinkedSpan, s: ExitSimplex, i: int) -> ExitSimplex:
    """d_i of a tagged simplex of Ex: face on Low and Upper, and
    exit_face_values on an exit path."""
    if s.dim < 1:
        raise ValueError("vertices have no faces")
    if not 0 <= i <= s.dim:
        raise ValueError(f"face index {i} outside 0..{s.dim}")
    if isinstance(s, Low):
        return Low(span.M.face(s.simplex, i))
    if isinstance(s, Upper):
        return Upper(span.N.face(s.simplex, i))
    part, gen, values, j = exit_face_values(span, s.gamma.gen, s.gamma.degeneracy.values,
                                            s.index, i)
    face = FormalSimplex(gen, Operator(len(values) - 1, values[-1], values))
    if part == "P":
        return Exit(face, j)
    return Low(face) if part == "M" else Upper(face)


def exit_degeneracy(span: LinkedSpan, s: ExitSimplex, i: int) -> ExitSimplex:
    """s_i of a tagged simplex of Ex; exit paths stay exit paths."""
    if not 0 <= i <= s.dim:
        raise ValueError(f"degeneracy index {i} outside 0..{s.dim}")
    if isinstance(s, Low):
        return Low(span.M.degeneracy(s.simplex, i))
    if isinstance(s, Upper):
        return Upper(span.N.degeneracy(s.simplex, i))
    gamma, j, k = s.gamma, s.index, s.dim
    return Exit(span.N.degeneracy(gamma, i), sharp(k, j, i))


def detect_degenerate_exit(span: LinkedSpan, p: Exit) -> tuple[Exit, int] | None:
    """Invert exit_degeneracy: find (q, i) with s_i q = p, smallest i.

    p = (sigma^* g, j) is s_i of an exit path exactly when sigma repeats
    at some i other than the crossing j - 1.  Take the smallest such i:
    q is gamma with position i of sigma deleted, with index j if i >= j
    and j - 1 otherwise, and is an exit path iff p is.  Returns None for
    nondegenerate exit paths (every path of dimension 1) and for pairs
    that are not exit paths.
    """
    gamma, j, k = p.gamma, p.index, p.dim
    sigma = gamma.degeneracy.values
    i = next((i for i in range(k) if i != j - 1 and sigma[i] == sigma[i + 1]), None)
    if i is None or not is_exit_path(span, gamma, j):
        return None
    face = FormalSimplex(gamma.gen, Operator(k - 1, gamma.gen_dim, sigma[:i] + sigma[i + 1:]))
    return Exit(face, j if i >= j else j - 1), i


def exit_normal_form(span: LinkedSpan, s: ExitSimplex) -> tuple[ExitSimplex, Operator]:
    """Write s as (nondegenerate core, surjection).

    Low and Upper parts inherit normal forms from M and N; an exit path
    takes its core and surjection from exit_core_values.
    """
    if isinstance(s, Low):
        return Low(nondeg(s.simplex.gen, s.simplex.gen_dim)), s.simplex.degeneracy
    if isinstance(s, Upper):
        return Upper(nondeg(s.simplex.gen, s.simplex.gen_dim)), s.simplex.degeneracy
    gamma, d = s.gamma, s.gamma.gen_dim
    r, c, values = exit_core_values(gamma.degeneracy.values, s.index)
    core = FormalSimplex(gamma.gen, degeneracy_op(d, r) if c else identity(d))
    return Exit(core, r + 1), Operator(gamma.dim, d + c, values)


# -- materialization ----------------------------------------------------------


def exit_label(s: ExitSimplex) -> str:
    """Deterministic generator label for a nondegenerate tagged simplex."""
    if isinstance(s, Low):
        return f"M.{s.simplex.gen}"
    if isinstance(s, Upper):
        return f"N.{s.simplex.gen}"
    return f"P.{s.gamma!r}@{s.index}"


class ExitComplex(SimplicialSet):
    """The exit complex of a span, materialized through a degree bound.

    A SimplicialSet whose generators carry tag notes; payload maps each
    generator label back to its tagged simplex, so simplices of the
    complex can be re-read as Low/Exit/Upper values.
    """

    def __init__(self, span: LinkedSpan, depth: int):
        super().__init__(f"Ex({span.name})<={depth}")
        self.span = span
        self.payload: dict[str, ExitSimplex] = {}

    def tagged(self, s: FormalSimplex) -> ExitSimplex:
        """The tagged simplex a formal simplex of the complex denotes."""
        t = self.payload[s.gen]
        # sigma = sigma_{i_1} . ... . sigma_{i_r} with ascending word acts
        # contravariantly as s_{i_r} . ... . s_{i_1}, so s_{i_1} is applied first
        for i in degeneracy_word(s.degeneracy):
            t = exit_degeneracy(self.span, t, i)
        return t


def build_exit(span: LinkedSpan, depth: int) -> ExitComplex:
    """Materialize Ex(span) up to dimension depth.

    Requires iota mono through depth.  Generators per dimension k are
    the generators of M, the nondegenerate exit paths read off the
    prisms over N's generators (first (s_i^* g, i + 1) for g in
    gens_{k-1}(N), then (g, j) for g in gens_k(N), where
    front_lifts(g, j - 1) holds), then the generators of N.  Faces are
    computed on (generator, values) pairs: a low or upper generator
    takes its face-table entries in M or N, relabelled; an exit path
    takes exit_face_values, and a vertical face is written in normal
    form by exit_core_values.  Every distinct face entry, keyed by
    (label, values), is built once per call over the shared surjection
    with those values: a relabelled low or upper face too, so a face
    that a low generator and an exit path share is one FormalSimplex.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    span.require_iota(depth)
    ex = ExitComplex(span, depth)
    M, N, lifts = span.M, span.N, span.front_lifts
    entries: dict[tuple[str, tuple[int, ...]], FormalSimplex] = {}

    def entry(label: str, values: tuple[int, ...]) -> FormalSimplex:
        s = entries.get((label, values))
        if s is None:
            s = entries[(label, values)] = _simplex(label, values)
        return s

    def exit_faces(gen: str, sigma: tuple[int, ...], j: int) -> list[FormalSimplex]:
        faces = []
        for i in range(len(sigma)):
            part, h, tau, e = exit_face_values(span, gen, sigma, j, i)
            if part == "P":
                # exit_label of the core, (s_r^* h, r + 1) or (h, r + 1)
                r, c, tau = exit_core_values(tau, e)
                faces.append(entry(f"P.{h}+s{r}@{r + 1}" if c else f"P.{h}@{r + 1}", tau))
            else:
                faces.append(entry(f"{part}.{h}", tau))
        return faces

    def relabelled(X: SimplicialSet, prefix: str, g: str, k: int) -> list[FormalSimplex] | None:
        faces = (X.face_table[(g, i)] for i in range(k + 1))
        return [entry(prefix + f.gen, f.degeneracy.values) for f in faces] if k else None

    for k in range(depth + 1):
        top = tuple(range(k + 1))
        paths = [(g, top[:i + 1] + top[i:k], i + 1)
                 for g in N.generators(k - 1) for i in range(k) if lifts(g, i)]
        paths += [(g, top, j) for g in N.generators(k) for j in range(1, k + 1) if lifts(g, j - 1)]
        new = [(Low(_simplex(g, top)), "low", relabelled(M, "M.", g, k))
               for g in M.generators(k)]
        new += [(Exit(_simplex(g, sigma), j), f"exit@{j}", exit_faces(g, sigma, j))
                for g, sigma, j in paths]
        new += [(Upper(_simplex(g, top)), "upper", relabelled(N, "N.", g, k))
                for g in N.generators(k)]
        for tagged, note, faces in new:
            label = exit_label(tagged)
            ex.add_generator(k, label, faces, note=note)
            ex.payload[label] = tagged
    return ex
