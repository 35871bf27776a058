"""Operators of the simplex category.

An operator is a weakly monotone map [m] -> [n] between finite ordinals
[n] = {0, 1, ..., n}, stored as the tuple of its values.  Every operator
factors uniquely as a surjection followed by an injection (epi-mono
factorization), and the injections/surjections are generated by the
elementary cofaces and codegeneracies, which is all the bookkeeping a
simplicial set in generator normal form needs.

Composition is written compose(outer, inner) for outer . inner, i.e.
inner is applied first.  compose_values is the one composition of maps
given by their value tuples, outer[inner[k]] for each k; compose is its
Operator wrapper, and the simplicial action (act and face_values, whose
face of a degenerate simplex gathers a stored face through it), maps
and the verifier's columns of numbers call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter


@dataclass(frozen=True)
class Operator:
    """A weakly monotone map [src_dim] -> [dst_dim].

    values[i] is the image of i.  Monotonicity and range are checked at
    construction time; Operator values are immutable and hashable.
    onto records, in the same loop, whether every value of [dst_dim] is
    hit; it is read off the values, so it takes no part in ==, hash or
    repr.
    """

    src_dim: int
    dst_dim: int
    values: tuple[int, ...]
    onto: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.src_dim < 0 or self.dst_dim < 0:
            raise ValueError(f"negative ordinal: [{self.src_dim}] -> [{self.dst_dim}]")
        if len(self.values) != self.src_dim + 1:
            raise ValueError(
                f"operator [{self.src_dim}] -> [{self.dst_dim}] needs "
                f"{self.src_dim + 1} values, got {len(self.values)}"
            )
        # a monotone map is onto when it starts at 0, never skips a
        # value and ends at dst_dim
        prev, onto = -1, True
        for v in self.values:
            if not 0 <= v <= self.dst_dim:
                raise ValueError(f"value {v} outside [{self.dst_dim}]")
            if v < prev:
                raise ValueError(f"values not monotone: {self.values}")
            if v > prev + 1:
                onto = False
            prev = v
        object.__setattr__(self, "onto", onto and prev == self.dst_dim)

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __repr__(self):
        word = ",".join(str(v) for v in self.values)
        return f"[{self.src_dim}]->[{self.dst_dim}]:({word})"


def identity(n: int) -> Operator:
    return Operator(n, n, tuple(range(n + 1)))


def check_face_index(n: int, i: int):
    """Raise ValueError unless there is a coface [n-1] -> [n] missing i."""
    if n < 1:
        raise ValueError(f"no cofaces into [{n}]")
    if not 0 <= i <= n:
        raise ValueError(f"coface index {i} outside [{n}]")


def check_degeneracy_index(n: int, i: int):
    """Raise ValueError unless there is a codegeneracy [n+1] -> [n] hitting i twice."""
    if not 0 <= i <= n:
        raise ValueError(f"codegeneracy index {i} outside [{n}]")


def face_op(n: int, i: int) -> Operator:
    """The coface [n-1] -> [n] whose image misses i (0 <= i <= n, n >= 1)."""
    check_face_index(n, i)
    return Operator(n - 1, n, tuple(v for v in range(n + 1) if v != i))


def degeneracy_op(n: int, i: int) -> Operator:
    """The codegeneracy [n+1] -> [n] hitting i twice (0 <= i <= n)."""
    check_degeneracy_index(n, i)
    return Operator(n + 1, n, tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2)))


def compose_values(outer, inner) -> tuple:
    """The values of outer . inner, both maps given by their values:
    outer[inner[k]] for each k, in one itemgetter call.  itemgetter
    returns a bare item for one index and refuses none, so those two
    lengths are gathered by hand.  IndexError for an entry of inner
    outside outer."""
    if len(inner) > 1:
        return itemgetter(*inner)(outer)
    return tuple([outer[v] for v in inner])


def compose(outer: Operator, inner: Operator) -> Operator:
    """outer . inner, defined when inner.dst_dim == outer.src_dim."""
    if inner.dst_dim != outer.src_dim:
        raise ValueError(f"cannot compose {outer!r} . {inner!r}")
    return Operator(inner.src_dim, outer.dst_dim, compose_values(outer.values, inner.values))


def epi_mono_values(values) -> tuple[list[int], list[int]]:
    """Epi-mono factorization of a monotone value list: (the surjection
    onto the image's positions, the image in ascending order)."""
    epi, image = [], []
    for v in values:
        if not image or image[-1] != v:
            image.append(v)
        epi.append(len(image) - 1)
    return epi, image


def is_surjection_values(values) -> bool:
    """Whether values is the tuple of values of a surjection: it starts
    at 0 and rises by 0 or 1 at each step."""
    if type(values) is not tuple or values[:1] != (0,):
        return False
    prev = 0
    for v in values:
        if v != prev and v != prev + 1:
            return False
        prev = v
    return True


def epi_mono_factor(op: Operator) -> tuple[Operator, Operator]:
    """Factor op = mono . epi with epi surjective and mono injective.

    Returns (epi, mono).  The factorization is the unique one through
    [r] where r+1 is the size of the image.
    """
    epi, image = epi_mono_values(op.values)
    rank = len(image) - 1
    return Operator(op.src_dim, rank, tuple(epi)), Operator(rank, op.dst_dim, tuple(image))


def _values_from_repeats(src_dim: int, repeats: set[int]) -> tuple[int, ...]:
    """Values of the surjection on [src_dim] with op(i) == op(i+1) exactly at repeats."""
    values = [0]
    for i in range(src_dim):
        values.append(values[-1] if i in repeats else values[-1] + 1)
    return tuple(values)


def surjection_values(src_dim: int, dst_dim: int):
    """The values of every surjection [src_dim] ->> [dst_dim], in
    ascending lex order; no Operator is built.

    A monotone surjection is determined by the set of positions i with
    op(i) == op(i+1); choosing the src_dim - dst_dim repeat positions in
    ascending combination order yields values in ascending lex order.
    """
    if not 0 <= dst_dim <= src_dim:
        return
    for repeats in combinations(range(src_dim), src_dim - dst_dim):
        yield _values_from_repeats(src_dim, set(repeats))


def degeneracy_word_values(values) -> tuple[int, ...]:
    """degeneracy_word of the surjection with these values, which is
    not checked; onto [n] from [n] it is the identity, with no word."""
    n = len(values) - 1
    if values[-1] == n:
        return ()
    return tuple([i for i in range(n) if values[i] == values[i + 1]])


def degeneracy_word(op: Operator) -> tuple[int, ...]:
    """Repeat positions of a surjection, ascending.

    These are the codegeneracy indices in the canonical decomposition
    op = sigma_{i_1} . sigma_{i_2} . ... with i_1 < i_2 < ...; the word
    determines the surjection and is the on-disk encoding of degeneracy
    data.
    """
    if not op.onto:
        raise ValueError(f"not a surjection: {op!r}")
    return degeneracy_word_values(op.values)


def surjection_from_word(src_dim: int, word: tuple[int, ...]) -> Operator:
    """Rebuild a surjection [src_dim] ->> [src_dim - len(word)] from its word.

    The word must be strictly ascending, as degeneracy_word writes it, so
    each surjection has exactly one word.
    """
    rset = set(word)
    if list(word) != sorted(rset) or any(not 0 <= i < src_dim for i in word):
        raise ValueError(f"bad degeneracy word {word} for [{src_dim}]")
    return Operator(src_dim, src_dim - len(word), _values_from_repeats(src_dim, rset))
