"""Finitely generated simplicial sets in generator normal form.

Every simplex of a simplicial set is uniquely a degeneracy of a
nondegenerate simplex (Eilenberg-Zilber), so a simplicial set with
finitely many nondegenerate simplices per degree is presented by

  * a list of generator labels per dimension, and
  * for each generator of dimension n >= 1, its n+1 faces, each written
    in normal form as (generator label, values of a surjection) and
    stored together as one tuple, faces[label] (empty for a vertex).

All simplices are FormalSimplex values (generator label, the values of
a surjection).  Equality of simplices is equality of normal forms.  X_n
has one canonical order, whose home is SimplicialSet.blocks:
simplices_at lists it, and the verifier numbers simplices by it.

The action of Delta has one closed form, written on plain (generator,
values) pairs by face_values and degeneracy_values.  For s = sigma^*g
with sigma: [n] ->> [d] (d is the last value):

  * s_i s = (sigma s^i)^*g: sigma with position i repeated;
  * d_i s is the stored entry d_i g when sigma is the identity;
    (sigma delta^i)^*g, sigma with position i dropped, when sigma hits
    j = sigma(i) twice; otherwise the rest misses j, and d_i s =
    rho^*(d_j g), the stored entry d_j g with its surjection tau
    composed after the rest shifted down past j: one compose_values
    of tau padded with a 0 at position j, which the rest never reads,
    after the rest;
  * s . op, for any operator op, splits sigma . op into epi and mono,
    takes the faces at the values the mono misses (none when it is
    onto), highest first, and composes epi into the result's degeneracy;
  * a map f with f(g) = tau^*h sends s to (tau sigma)^*h, by
    SimplicialMap.image_values.

face, degeneracy and a map's __call__ check their input and wrap these
three methods, and act runs face_values; each returns a stored face
entry or a FormalSimplex over the values it computed, so no Operator is
built or validated; an Operator enters only as act's argument, and as
the text of a map's __call__ refusing a simplex of the wrong dimension.
The verifier's tables read the three methods directly and number each
result in the block of its generator, looked up once per block while
the result stays in the generator it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, inf

from .operators import (
    Operator,
    check_degeneracy_index,
    check_face_index,
    compose_values,
    degeneracy_word_values,
    epi_mono_values,
    is_surjection_values,
    surjection_values,
)


@cache
def _surjections(n: int, d: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The values of the surjections [n] ->> [d] in the order of
    surjection_values(n, d), and values -> rank.  Shared process-wide:
    nothing writes to them, and they hold no Operator."""
    sigmas = tuple(surjection_values(n, d))
    return sigmas, {sigma: r for r, sigma in enumerate(sigmas)}


def simplex_repr(gen: str, values: tuple[int, ...]) -> str:
    """How the simplex sigma^*gen prints, sigma given by its values: the
    label, then s and each repeat position of sigma."""
    word = degeneracy_word_values(values)
    return f"{gen}+s{'s'.join(map(str, word))}" if word else gen


@dataclass(frozen=True)
class FormalSimplex:
    """A simplex in normal form, sigma^*gen: the generator's label gen
    and values, the tuple of values of a surjection sigma: [dim] ->>
    [gen_dim], the identity when nondegenerate.  Other tuples are
    refused; an Operator, once checked onto, is read for its values.
    """

    gen: str
    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        if isinstance(values, Operator):
            if not values.onto:
                raise ValueError(f"degeneracy part must be surjective: {values!r}")
            object.__setattr__(self, "values", values.values)
        elif not is_surjection_values(values):
            raise ValueError(f"not the values of a surjection: {values!r}")

    @property
    def dim(self) -> int:
        return len(self.values) - 1

    @property
    def gen_dim(self) -> int:
        return self.values[-1]

    def is_nondegenerate(self) -> bool:
        return self.values[-1] == len(self.values) - 1

    def __repr__(self):
        return simplex_repr(self.gen, self.values)


def nondeg(gen: str, dim: int) -> FormalSimplex:
    """gen itself, over the shared identity of its dimension."""
    return FormalSimplex(gen, _surjections(dim, dim)[0][0])


class SimplicialSet:
    """A finitely generated simplicial set.

    Generators are added dimension by dimension; faces of a dimension-n
    generator (n >= 1) must be given in normal form over generators
    already present.  audit() checks the simplicial identity
    d_i d_j = d_{j-1} d_i on generators, which by functoriality of the
    operator action is the whole coherence requirement.
    """

    def __init__(self, name: str):
        self.name = name
        self.gens: dict[int, list[str]] = {}
        self.gen_dims: dict[str, int] = {}
        # label -> its faces d_0 .. d_dim, () for a vertex
        self.faces: dict[str, tuple[FormalSimplex, ...]] = {}
        self.notes: dict[str, str] = {}

    # -- construction ------------------------------------------------

    def add_generator(self, dim: int, label: str, faces: list[FormalSimplex] | None = None,
                      note: str | None = None):
        if label in self.gen_dims:
            raise ValueError(f"{self.name}: duplicate generator {label!r}")
        if dim < 0:
            raise ValueError(f"negative dimension for {label!r}")
        if dim == 0:
            if faces:
                raise ValueError(f"vertex {label!r} cannot have faces")
        else:
            if faces is None or len(faces) != dim + 1:
                raise ValueError(f"{label!r} needs {dim + 1} faces")
            gen_dims = self.gen_dims
            for i, f in enumerate(faces):
                sigma = f.values
                if len(sigma) != dim:
                    raise ValueError(f"face {i} of {label!r} has dimension {len(sigma) - 1}, "
                                     f"want {dim - 1}")
                d = gen_dims.get(f.gen)
                if d is None:
                    raise ValueError(f"face {i} of {label!r} uses unknown generator {f.gen!r}")
                if d != sigma[-1]:
                    raise ValueError(f"face {i} of {label!r}: {f.gen!r} has wrong dimension")
        self.faces[label] = tuple(faces) if dim else ()
        self.gens.setdefault(dim, []).append(label)
        self.gen_dims[label] = dim
        if note is not None:
            self.notes[label] = note

    @property
    def max_gen_dim(self) -> int:
        return max(self.gens, default=-1)

    def generators(self, dim: int | None = None) -> list[str]:
        if dim is not None:
            return list(self.gens.get(dim, []))
        out = []
        for d in sorted(self.gens):
            out.extend(self.gens[d])
        return out

    # -- the operator action ------------------------------------------

    def act(self, s: FormalSimplex, op: Operator) -> FormalSimplex:
        """The simplex s . op, i.e. the contravariant action of op.

        op is any operator [m] -> [s.dim].  sigma . op, for s =
        sigma^*g, splits as mono . epi; the faces of g at the values
        the mono misses, taken highest first, give tau^*h, and the
        result is (tau . epi)^*h.
        """
        if op.dst_dim != s.dim:
            raise ValueError(f"operator {op!r} does not match simplex of dimension {s.dim}")
        sigma, d = s.values, s.gen_dim
        epi, image = epi_mono_values(compose_values(sigma, op.values))
        # g itself, under the identity of [d]
        gen, tau = s.gen, tuple(range(d + 1))
        for j in range(d, -1, -1):
            if j not in image:
                gen, tau = self.face_values(gen, tau, j)
        return FormalSimplex(gen, compose_values(tau, epi))

    def face(self, s: FormalSimplex, i: int) -> FormalSimplex:
        """d_i s, by face_values.  A face of a generator is its stored
        entry."""
        check_face_index(s.dim, i)
        if s.is_nondegenerate():
            return self.faces[s.gen][i]
        return FormalSimplex(*self.face_values(s.gen, s.values, i))

    def degeneracy(self, s: FormalSimplex, i: int) -> FormalSimplex:
        """s_i s, by degeneracy_values."""
        check_degeneracy_index(s.dim, i)
        return FormalSimplex(*self.degeneracy_values(s.gen, s.values, i))

    def face_values(self, gen: str, values: tuple[int, ...],
                    i: int) -> tuple[str, tuple[int, ...]]:
        """d_i of sigma^*gen as (generator, values), sigma given by its
        values: the stored entry when sigma is the identity; sigma with
        position i dropped when it hits j = sigma(i) twice; else d_j gen
        with its surjection tau composed after the rest shifted down
        past j, gathered by compose_values from tau padded at j, a slot
        the rest never reads.  The index is not checked."""
        n = len(values) - 1
        if values[-1] == n:
            entry = self.faces[gen][i]
            return entry.gen, entry.values
        j = values[i]
        rest = values[:i] + values[i + 1:]
        if (i and values[i - 1] == j) or (i < n and values[i + 1] == j):
            return gen, rest
        entry = self.faces[gen][j]
        tau = entry.values
        return entry.gen, compose_values(tau[:j] + (0,) + tau[j:], rest)

    def degeneracy_values(self, gen: str, values: tuple[int, ...],
                          i: int) -> tuple[str, tuple[int, ...]]:
        """s_i of sigma^*gen as (generator, values): sigma with position
        i repeated.  The index is not checked."""
        return gen, values[:i + 1] + values[i:]

    # -- enumeration ---------------------------------------------------

    def blocks(self, n: int) -> dict[str, tuple[int, tuple[tuple[int, ...], ...], dict]]:
        """The canonical order of X_n: generator label -> (offset,
        sigmas, ranks) for each generator of dimension d <= n, in
        (dimension, insertion) order.  sigmas holds the values of every
        surjection [n] ->> [d], in lex order: the simplex at offset + r
        has the r-th, and ranks maps values -> r.  No Operator is built."""
        blocks, offset = {}, 0
        for d in sorted(self.gens):
            if d > n:
                break
            sigmas, ranks = _surjections(n, d)
            for label in self.gens[d]:
                blocks[label] = (offset, sigmas, ranks)
                offset += len(sigmas)
        return blocks

    def simplices_at(self, n: int) -> list[FormalSimplex]:
        """All n-simplices, listed in the canonical order of blocks(n)."""
        return [FormalSimplex(label, sigma)
                for label, (_, sigmas, _) in self.blocks(n).items() for sigma in sigmas]

    def count_at(self, n: int) -> int:
        """|X_n| = sum over d <= n of |gens_d| * C(n, d): each
        d-dimensional generator under every surjection [n] ->> [d]."""
        return sum(len(labels) * comb(n, d) for d, labels in self.gens.items() if d <= n)

    def has_simplex(self, s: FormalSimplex) -> bool:
        return self.gen_dims.get(s.gen) == s.gen_dim

    # -- audit ----------------------------------------------------------

    def audit(self) -> list[str]:
        """Simplicial-identity violations d_i d_j != d_{j-1} d_i on
        generators, as human-readable strings; empty means coherent.

        The faces d_j g of a generator are its stored entries,
        faces[g].  Their faces are compared as (generator, values) pairs
        from face_values, computed once for each distinct entry, in rows
        that live only for this call."""
        problems = []
        rows: dict[tuple[str, tuple[int, ...]], list[tuple[str, tuple[int, ...]]]] = {}
        face = self.face_values
        for d in sorted(self.gens):
            if d < 2:
                continue
            for label in self.gens[d]:
                faces = []
                for entry in self.faces[label]:
                    key = (entry.gen, entry.values)
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = [face(*key, i) for i in range(d)]
                    faces.append(row)
                for j in range(1, d + 1):
                    for i in range(j):
                        lhs = faces[j][i]
                        rhs = faces[i][j - 1]
                        if lhs != rhs:
                            problems.append(
                                f"{self.name}: d_{i} d_{j} {label} = {simplex_repr(*lhs)} "
                                f"but d_{j-1} d_{i} {label} = {simplex_repr(*rhs)}"
                            )
        return problems

    def assert_coherent(self):
        problems = self.audit()
        if problems:
            raise ValueError("; ".join(problems))

    def __repr__(self):
        counts = ", ".join(f"{d}:{len(self.gens[d])}" for d in sorted(self.gens))
        return f"SimplicialSet({self.name!r}, gens {{{counts}}})"


class SimplicialMap:
    """A simplicial map, stored on generators of the domain.

    assignment maps each domain generator label to a FormalSimplex of
    the codomain of the same dimension; the action on arbitrary
    simplices follows by naturality (image_values).  audit() checks
    naturality on the generators' stored faces, which is the whole
    condition.  Injectivity is likewise read off the generators, once:
    mono_bound is the highest degree through which the map is injective
    (inf if it is mono).
    """

    def __init__(self, name: str, domain: SimplicialSet, codomain: SimplicialSet,
                 assignment: dict[str, FormalSimplex]):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.assignment = dict(assignment)
        missing = [g for g in domain.gen_dims if g not in self.assignment]
        if missing:
            raise ValueError(f"{name}: no image for generators {missing}")
        unknown = [g for g in self.assignment if g not in domain.gen_dims]
        if unknown:
            raise ValueError(f"{name}: image given for generators {unknown} "
                             f"not in {domain.name}")
        for g, t in self.assignment.items():
            if t.dim != domain.gen_dims[g]:
                raise ValueError(f"{name}: image of {g!r} has dimension {t.dim}, "
                                 f"want {domain.gen_dims[g]}")
            if not codomain.has_simplex(t):
                raise ValueError(f"{name}: image of {g!r} not in {codomain.name}")
        problems = self.audit()
        if problems:
            raise ValueError("; ".join(problems))
        # f(sigma^* g) = (tau . sigma)^* h (image_values) is sigma^* h
        # while f(g) = h is nondegenerate, so f is injective exactly
        # below the first generator whose image is degenerate or taken
        self.mono_bound: float = inf
        self._preimage_gens: dict[str, str] = {}
        for g in domain.generators():
            t = self.assignment[g]
            if t.is_nondegenerate() and t.gen not in self._preimage_gens:
                self._preimage_gens[t.gen] = g
            else:
                self.mono_bound = min(self.mono_bound, domain.gen_dims[g] - 1)

    def __call__(self, s: FormalSimplex) -> FormalSimplex:
        d = self.domain.gen_dims[s.gen]
        if d != s.gen_dim:
            raise ValueError(f"operator {Operator(s.dim, s.gen_dim, s.values)!r} "
                             f"does not match simplex of dimension {d}")
        return FormalSimplex(*self.image_values(s.gen, s.values))

    def image_values(self, gen: str, values: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        """f of sigma^*gen as (generator, values): with f(gen) = tau^*h,
        (h, tau . sigma), onto as both are.  The input is not checked."""
        t = self.assignment[gen]
        return t.gen, compose_values(t.values, values)

    def audit(self) -> list[str]:
        """Naturality violations f(d_i g) != d_i f(g) on the generators
        g of the domain, compared as (generator, values) pairs by
        image_values and face_values; empty means natural."""
        problems = []
        face, image = self.codomain.face_values, self.image_values
        for d in sorted(self.domain.gens):
            if d < 1:
                continue
            top = tuple(range(d + 1))
            for label in self.domain.gens[d]:
                for i in range(d + 1):
                    lhs = image(*self.domain.face_values(label, top, i))
                    rhs = face(*image(label, top), i)
                    if lhs != rhs:
                        problems.append(
                            f"{self.name}: image of d_{i} {label} is {simplex_repr(*lhs)} "
                            f"but d_{i} of the image is {simplex_repr(*rhs)}"
                        )
        return problems

    # -- injectivity ------------------------------------------------------

    def image_table(self, n: int) -> dict[FormalSimplex, FormalSimplex]:
        """image simplex -> first preimage at degree n, by listing L_n."""
        table = {}
        for s in self.domain.simplices_at(n):
            table.setdefault(self(s), s)
        return table

    def is_mono(self, depth: int) -> tuple[bool, str | None]:
        """(ok, witness): injectivity through degree depth, read off
        mono_bound.  On failure the witness names the first simplex of
        degree mono_bound + 1, in canonical order, whose image an
        earlier one already took."""
        if depth <= self.mono_bound:
            return True, None
        n = self.mono_bound + 1
        first = {}
        for s in self.domain.simplices_at(n):
            t = self(s)
            if t in first:
                return False, f"degree {n}: {first[t]!r} and {s!r} both map to {t!r}"
            first[t] = s
        raise AssertionError(f"{self.name}: no two simplices of degree {n} share an image")

    def preimage(self, s: FormalSimplex) -> FormalSimplex | None:
        """The unique preimage of s, or None if s is not in the image:
        s's generator relabelled, its values kept.  Defined through
        degree mono_bound."""
        if s.dim > self.mono_bound:
            raise RuntimeError(f"{self.name}: preimage queried at degree {s.dim} but "
                               f"injectivity holds only through degree {self.mono_bound}")
        hit = self.preimage_values(s.gen, s.values)
        return None if hit is None else FormalSimplex(hit[0], s.values)

    def preimage_values(self, gen: str,
                        values: tuple[int, ...]) -> tuple[str, tuple[int, ...]] | None:
        """preimage on (generator, values) pairs: sigma^*gen comes from
        sigma^*g for the generator g with f(g) = gen, if there is one.
        The degree is not checked against mono_bound."""
        g = self._preimage_gens.get(gen)
        return None if g is None else (g, values)

    def __repr__(self):
        return f"SimplicialMap({self.name!r}: {self.domain.name} -> {self.codomain.name})"


# -- stock constructions ---------------------------------------------------


def standard_simplex(n: int, name: str | None = None) -> SimplicialSet:
    """The n-simplex as the nerve of the linear order 0 < 1 < ... < n."""
    return nerve_of_poset([str(v) for v in range(n + 1)],
                          [(str(a), str(b)) for a in range(n + 1) for b in range(a + 1, n + 1)],
                          name or f"simplex{n}")


def nerve_of_poset(elements: list[str], relations: list[tuple[str, str]],
                   name: str = "nerve") -> SimplicialSet:
    """Nerve of a finite poset, truncated at the longest strict chain.

    elements are labels; relations lists strict pairs (a, b) meaning
    a < b.  The transitive closure is taken, then antisymmetry and
    irreflexivity are checked.  Generators in dimension n are the
    strict chains of length n+1, labelled by joining the member labels
    with commas, so no element label may contain one; their faces
    delete one member, so the identities hold unaudited.
    """
    for e in elements:
        if "," in e:
            raise ValueError(f"poset element {e!r} contains ','")
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate poset elements")
    below: dict[str, set[str]] = {e: set() for e in elements}
    for a, b in relations:
        if a not in below or b not in below:
            raise ValueError(f"relation ({a!r}, {b!r}) uses unknown element")
        below[b].add(a)
    # transitive closure, by Warshall's loop
    for k in elements:
        for b in elements:
            if k in below[b]:
                below[b] |= below[k]
    for e in elements:
        if e in below[e]:
            raise ValueError(f"not a partial order: {e!r} < {e!r}")

    X = SimplicialSet(name)
    chains = [(e,) for e in elements]
    for e in elements:
        X.add_generator(0, e)
    dim = 1
    while chains:
        longer = []
        for chain in chains:
            last = chain[-1]
            for e in elements:
                if last in below[e]:
                    longer.append(chain + (e,))
        for chain in longer:
            label = ",".join(chain)
            faces = []
            for i in range(len(chain)):
                sub = chain[:i] + chain[i + 1:]
                faces.append(nondeg(",".join(sub), dim - 1))
            X.add_generator(dim, label, faces)
        chains = longer
        dim += 1
    return X


def nerve_of_map(name: str, X: SimplicialSet, Y: SimplicialSet,
                 f: dict[str, str]) -> SimplicialMap:
    """The map of nerves of a monotone map f of posets, given on the
    elements of X; X and Y are labelled as nerve_of_poset labels them.
    A chain x_0 <= ... <= x_d goes to the strict chain of its distinct
    consecutive images, over the surjection that counts the changes so
    far.  A non-monotone f sends some chain to a label Y lacks, and
    SimplicialMap refuses it."""
    missing = [x for x in X.generators(0) if x not in f]
    if missing:
        raise ValueError(f"{name}: no image for elements {missing}")
    unknown = [x for x in f if X.gen_dims.get(x) != 0]
    if unknown:
        raise ValueError(f"{name}: image given for elements {unknown} not in {X.name}")
    assignment = {}
    for g in X.gen_dims:
        chain, values = [], []
        for x in g.split(","):
            y = f[x]
            if not chain or chain[-1] != y:
                chain.append(y)
            values.append(len(chain) - 1)
        assignment[g] = FormalSimplex(",".join(chain), tuple(values))
    return SimplicialMap(name, X, Y, assignment)
