"""Exit-path simplicial sets of linked spans.

A linked span is M <-pi- L -iota-> N with iota a monomorphism (levelwise
injective).  Its exit complex Ex has

    Ex_0 = M_0 + N_0
    Ex_k = M_k + P_{k-1} + N_k        (k >= 1)

where P_{k-1} consists of the exit paths: pairs (gamma, j) of a
k-simplex gamma of N and an exit index 1 <= j <= k such that the
restriction of gamma . C_j to level 0 of the prism factors through
iota.  Since iota is mono the factorization is unique.

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
exit path with the sharp index.  An exit path is one representation
throughout: (gen, values, j), with gamma = sigma^* gen and sigma given
by its values, like SimplicialSet.face_values.  is_exit_path,
exit_simplices, exit_face, exit_degeneracy, detect_degenerate_exit and
exit_normal_form all work on it, and build_exit takes its faces from
exit_face, exit_normal_form and exit_label.

Nondegenerate exit paths are the nondegenerate simplices of the prisms
Delta^1 x Delta^d over the generators of N.  (sigma^* g, j) is s_i of an
exit path exactly when sigma repeats at some i other than the crossing
j - 1; dropping that repeat keeps sigma(j - 1), hence membership.  So
the nondegenerate exit paths of degree k are the cores (g, r, c): (s_r^*
g, r + 1) for g in gens_{k-1}(N) if c, and (g, r + 1) for g in
gens_k(N) otherwise, each where front_lifts(g, r) holds;
exit_normal_form drops every repeat but the crossing in one step, and
exit_label names a core.  build_exit lists exactly these cores and
returns a plain SimplicialSet: its generator labels, M.<g>,
P.<core>@<index> and N.<g>, are the only tags it keeps.
"""

from __future__ import annotations

from .operators import Operator
from .shuffles import FaceClass, check_exit_index, classify_face, flat, sharp
from .simplicial import FormalSimplex, SimplicialMap, SimplicialSet, nondeg, simplex_repr


class SpanIntegrityError(ValueError):
    """A low face failed to lift through the link; the span data is
    inconsistent with exit-path membership already established."""


class IotaNotMono(ValueError):
    """iota is not levelwise injective through a degree an operation
    needs; the message carries two simplices with one image."""


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
        answer is cached per (gen, r).  The face is N.act of the front
        coface (0 < ... < r): [r] -> [d] on gen, built on each miss of
        that cache; it is not walked down N's stored faces because
        bench/test_bench.py counts act calls (ROADMAP item 1)."""
        key = (gen, r)
        hit = self._front_lifts.get(key)
        if hit is None:
            d = self.N.gen_dims[gen]
            front = self.N.act(nondeg(gen, d), Operator(r, d, tuple(range(r + 1))))
            hit = self._front_lifts[key] = self.iota.preimage(front) is not None
        return hit

    def __repr__(self):
        return (f"LinkedSpan({self.name!r}: {self.M.name} <- {self.L.name} "
                f"-> {self.N.name})")


# -- membership --------------------------------------------------------------


def is_exit_path(span: LinkedSpan, gen: str, values: tuple[int, ...], j: int) -> bool:
    """Whether (sigma^*gen, j), sigma given by its values, is an exit
    path: the level-0 restriction of (sigma^*gen) . C_j lifts
    (necessarily uniquely) through iota.

    That restriction is a degeneracy of the front face F_r(gen) at r =
    sigma(j - 1), and a degeneracy lies in the simplicial subset
    im(iota) exactly when its nondegenerate core does; so the answer is
    span.front_lifts(gen, r), with r <= k - 1 inside iota's mono bound.
    """
    k = len(values) - 1
    check_exit_index(k, j)
    span.require_iota(k - 1)
    return span.front_lifts(gen, values[j - 1])


def exit_simplices(span: LinkedSpan, k: int) -> list[tuple[str, tuple[int, ...], int]]:
    """All exit paths of dimension k as (generator, values, index), in
    (N-simplex order, index) order: the order of N.blocks(k)."""
    if k < 1:
        return []
    span.require_iota(k - 1)
    lifts = span.front_lifts
    return [(gen, sigma, j)
            for gen, (_, sigmas, _) in span.N.blocks(k).items()
            for sigma in sigmas
            for j in range(1, k + 1)
            if lifts(gen, sigma[j - 1])]


# -- faces, degeneracies and normal forms --------------------------------------


def exit_face(span: LinkedSpan, gen: str, values: tuple[int, ...], j: int,
              i: int) -> tuple[str, str, tuple[int, ...], int | None]:
    """d_i of the exit path (sigma^*gen, j), sigma given by its values,
    as (part, generator, values, index), from (h, tau) = d_i of
    sigma^*gen in N: part "M" for the low face (i = j = k), whose
    generator is lifted through iota and sent to M by pi; "N" for the
    upper face (i = 0, j = 1); "P" with the flat index for a vertical
    face.  The indices are not checked here: a bad j raises ValueError
    from classify_face, and a bad i IndexError from N.face_values or
    ValueError from classify_face."""
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


def exit_degeneracy(gen: str, values: tuple[int, ...], j: int,
                    i: int) -> tuple[str, tuple[int, ...], int]:
    """s_i of the exit path (sigma^*gen, j) as (generator, values,
    index): sigma with position i repeated, and the sharp index; a bad
    j or i raises ValueError from sharp."""
    return gen, values[:i + 1] + values[i:], sharp(len(values) - 1, j, i)


def detect_degenerate_exit(span: LinkedSpan, gen: str, values: tuple[int, ...],
                           j: int) -> tuple[tuple[str, tuple[int, ...], int], int] | None:
    """Invert exit_degeneracy: find ((gen, values', j'), i) with s_i of
    the exit path (gen, values', j') equal to (sigma^*gen, j), smallest i.

    It is s_i of an exit path exactly when sigma repeats at some i other
    than the crossing j - 1.  Take the smallest such i: values' is sigma
    with position i deleted, j' is j if i >= j and j - 1 otherwise, and
    (gen, values', j') is an exit path iff (sigma^*gen, j) is.  Returns
    None for nondegenerate exit paths (every path of dimension 1) and
    for pairs that are not exit paths; a bad j raises as in is_exit_path.
    """
    k = len(values) - 1
    check_exit_index(k, j)
    i = next((i for i in range(k)
              if i != j - 1 and values[i] == values[i + 1]), None)
    if i is None or not is_exit_path(span, gen, values, j):
        return None
    return (gen, values[:i] + values[i + 1:], j if i >= j else j - 1), i


def exit_normal_form(values: tuple[int, ...], j: int) -> tuple[int, int, tuple[int, ...]]:
    """The normal form of the exit path (sigma^*gen, j), sigma given by
    its values, as (r, c, values): with r = sigma(j - 1) and c =
    [sigma(j) = r], the core is (s_r^* gen, r + 1) if c and (gen, r + 1)
    otherwise, and the surjection is m -> sigma(m) + (c if m >= j).  A
    bad j raises ValueError as in is_exit_path."""
    check_exit_index(len(values) - 1, j)
    r = values[j - 1]
    if values[j] != r:
        return r, 0, values
    return r, 1, values[:j] + tuple([v + 1 for v in values[j:]])


def exit_label(gen: str, r: int, c: int) -> str:
    """The generator label of the core (gen, r, c) of exit_normal_form:
    P.<gen>+s<r>@<r+1> for (s_r^* gen, r + 1), P.<gen>@<r+1> for
    (gen, r + 1)."""
    return f"P.{gen}+s{r}@{r + 1}" if c else f"P.{gen}@{r + 1}"


# -- materialization ----------------------------------------------------------


def build_exit(span: LinkedSpan, depth: int) -> SimplicialSet:
    """Materialize Ex(span) up to dimension depth as a plain
    SimplicialSet, Ex(<span>)<=<depth>, whose generator labels are the
    only tags: M.<g> low, N.<g> upper and exit_label(g, r, c) for an
    exit path.

    Requires iota mono through depth.  Generators per dimension k are
    the generators of M, the nondegenerate exit paths listed by their
    cores (g, r, c), then the generators of N.  The cores are first
    (s_r^* g, r + 1) for g in gens_{k-1}(N), then (g, r + 1) for g in
    gens_k(N), each where front_lifts(g, r) holds.  Faces are computed
    on (generator, values) pairs: a low or upper generator takes its
    stored face entries in M or N, relabelled; an exit path takes
    exit_face, and a vertical face is labelled by exit_label from its
    exit_normal_form.  Every distinct face entry, keyed by (label,
    values), is built once per call: a relabelled low or upper face
    too, so a face that a low generator and an exit path share is one
    FormalSimplex.  Two exit generators with one label raise ValueError
    naming both.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    span.require_iota(depth)
    ex = SimplicialSet(f"Ex({span.name})<={depth}")
    M, N, lifts = span.M, span.N, span.front_lifts
    entries: dict[tuple[str, tuple[int, ...]], FormalSimplex] = {}

    def entry(gen: str, values: tuple[int, ...]) -> FormalSimplex:
        s = entries.get((gen, values))
        if s is None:
            s = entries[(gen, values)] = FormalSimplex(gen, values)
        return s

    def exit_faces(gen: str, sigma: tuple[int, ...], j: int) -> list[FormalSimplex]:
        faces = []
        for i in range(len(sigma)):
            part, h, tau, e = exit_face(span, gen, sigma, j, i)
            if part == "P":
                r, c, tau = exit_normal_form(tau, e)
                faces.append(entry(exit_label(h, r, c), tau))
            else:
                faces.append(entry(f"{part}.{h}", tau))
        return faces

    def relabelled(X: SimplicialSet, prefix: str, g: str, k: int) -> list[FormalSimplex] | None:
        return [entry(prefix + f.gen, f.values) for f in X.faces[g]] if k else None

    for k in range(depth + 1):
        top = tuple(range(k + 1))
        for g in M.generators(k):
            ex.add_generator(k, f"M.{g}", relabelled(M, "M.", g, k), note="low")
        cores = [(g, r, 1) for g in N.generators(k - 1) for r in range(k) if lifts(g, r)]
        cores += [(g, r, 0) for g in N.generators(k) for r in range(k) if lifts(g, r)]
        for g, r, c in cores:
            label = exit_label(g, r, c)
            if label in ex.gen_dims:
                # only (s_r^* x, r + 1) and (x+s<r>, r + 1) share a label
                x, y = (g, f"{g}+s{r}") if c else (g.removesuffix(f"+s{r}"), g)
                raise ValueError(f"{ex.name}: exit paths (s_{r} {x}, {r + 1}) and ({y}, {r + 1}) "
                                 f"are both labelled {label!r}; rename N's generator {y!r}")
            sigma = top[:r + 1] + top[r:k] if c else top
            ex.add_generator(k, label, exit_faces(g, sigma, r + 1), note=f"exit@{r + 1}")
        for g in N.generators(k):
            ex.add_generator(k, f"N.{g}", relabelled(N, "N.", g, k), note="upper")
    return ex
