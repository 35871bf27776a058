"""Exit shuffles, collapses, and the flat/sharp index calculus.

The k-simplices of a cylinder N^{Delta[1]} restrict along monotone maps
Delta[k] -> Delta[1] x Delta[k-1]; the k shuffles S_j (1 <= j <= k)

    S_j(i) = (0, i)      if i < j
             (1, i - 1)  if i >= j

are sections of the collapses C_j : Delta[1] x Delta[k-1] -> Delta[k]

    C_j(0, i) = i        if i < j        C_j(1, i) = j      if i < j
                j - 1    if i >= j                   i + 1  if i >= j

with C_j . S_j = id.  For k = 1 the factor Delta[0] is dropped and both
maps are read as the identity of Delta[1].

Composing a shuffle with a coface or codegeneracy of Delta[k] lands in
the prism over Delta[k-1]; which collapse index the composite selects
is pure index arithmetic:

    flat(k, j, i)  = j      if i >= j      (face case, d_i)
                     j - 1  if i < j
    sharp(k, j, i) = j      if i >= j      (degeneracy case, s_i)
                     j + 1  if i < j

flat is undefined at (j, i) = (k, k), where S_k . coface_k never leaves
level 0; that combination is exactly the "low" face below.  The closed
forms above are the production implementation; the defining
smallest-index searches are the oracles of tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .operators import Operator


class UndefinedFlat(ValueError):
    """flat(k, k, k) does not exist: the composite stays at level 0."""


class FaceClass(Enum):
    LOW = "low"
    VERTICAL = "vertical"
    UPPER = "upper"


@dataclass(frozen=True)
class ExitShuffle:
    """S_j : Delta[k] -> Delta[1] x Delta[k-1] as its list of points.

    points[i] = (level, position); for k = 1 the position coordinate is
    a placeholder 0 in the collapsed Delta[0] factor.
    """

    k: int
    j: int
    points: tuple[tuple[int, int], ...]

    def __call__(self, i: int) -> tuple[int, int]:
        return self.points[i]


@dataclass(frozen=True)
class ExitCollapse:
    """C_j : Delta[1] x Delta[k-1] -> Delta[k], one operator per level."""

    k: int
    j: int
    low: Operator
    high: Operator

    def __call__(self, level: int, position: int) -> int:
        if level == 0:
            return self.low.values[position]
        if level == 1:
            return self.high.values[position]
        raise ValueError(f"level {level} not in {{0, 1}}")


def check_exit_index(k: int, j: int):
    # the index 1 <= j <= k that S_j, C_j and the exit path (gamma, j) share
    if k < 1:
        raise ValueError("exit paths start in dimension 1")
    if not 1 <= j <= k:
        raise ValueError(f"exit index {j} outside 1..{k}")


def exit_shuffle(k: int, j: int) -> ExitShuffle:
    check_exit_index(k, j)
    points = tuple((0, i) if i < j else (1, i - 1) for i in range(k + 1))
    if k == 1:
        # identified prism Delta[1] x Delta[0]; positions collapse to 0
        points = tuple((lv, 0) for lv, _ in points)
    return ExitShuffle(k, j, points)


def collapse(k: int, j: int) -> ExitCollapse:
    check_exit_index(k, j)
    pos = max(k - 1, 0)
    low = tuple(i if i < j else j - 1 for i in range(pos + 1))
    high = tuple(j if i < j else i + 1 for i in range(pos + 1))
    return ExitCollapse(k, j, Operator(pos, k, low), Operator(pos, k, high))


def flat(k: int, j: int, i: int) -> int:
    """Exit index of the i-th face of an exit path with index j.

    Defined for k >= 2, 1 <= j <= k, 0 <= i <= k, except (j, i) = (k, k)
    which raises UndefinedFlat.  Value j or j - 1; the value 0 (only at
    (j, i) = (1, 0)) signals the upper-face corner, where no collapse
    with that index exists.
    """
    if k < 2:
        raise ValueError(f"flat needs k >= 2, got {k}")
    check_exit_index(k, j)
    if not 0 <= i <= k:
        raise ValueError(f"face index {i} outside 0..{k}")
    if j == k and i == k:
        raise UndefinedFlat(f"flat({k}, {k}, {k}) does not exist")
    return j if i >= j else j - 1


def sharp(k: int, j: int, i: int) -> int:
    """Exit index of the i-th degeneracy of an exit path with index j.

    Defined for k >= 1, 1 <= j <= k, 0 <= i <= k; always in 1..k+1.
    """
    check_exit_index(k, j)
    if not 0 <= i <= k:
        raise ValueError(f"degeneracy index {i} outside 0..{k}")
    return j if i >= j else j + 1


def classify_face(k: int, j: int, i: int) -> FaceClass:
    """Which prism level the composite S_j . coface_i runs through.

    LOW when the whole image sits at level 0 (exactly (i, j) = (k, k)),
    UPPER when it sits at level 1 (exactly (i, j) = (0, 1)), VERTICAL
    otherwise.  The corner characterization is proved against the
    pointwise search in the tests.
    """
    check_exit_index(k, j)
    if not 0 <= i <= k:
        raise ValueError(f"face index {i} outside 0..{k}")
    if i == k and j == k:
        return FaceClass.LOW
    if i == 0 and j == 1:
        return FaceClass.UPPER
    return FaceClass.VERTICAL


def restriction_operator(k: int, j: int) -> Operator:
    """C_j restricted to level 0: the operator [k-1] -> [k] sending
    m to m for m < j and to j - 1 for m >= j.  Composing a k-simplex
    with it extracts the simplex whose lift through the link decides
    exit-path membership; at j = k it is the k-th coface."""
    return collapse(k, j).low

