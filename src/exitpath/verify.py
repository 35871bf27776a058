"""Machine verification: simplicial identities, horn filling, fibrations.

Everything here consumes plain SimplicialSet values, reports through a
serializable VerificationReport, and is deterministic: enumeration
follows the canonical simplex order, searches return the first hit in
that order, and search budgets are applied per subproblem so a verdict
does not depend on which other subproblems ran.

A budget is a node allowance; one node is one candidate simplex that a
scan in canonical order would inspect.  Exhaustion marks the
surrounding check "inconclusive" rather than guessing.

The searches find their answers by lookup, but charge the scan's
nodes, so verdicts under any budget are those of the scan.  All of
them read one row store, FaceRows: each degree's face rows and their
index on (slot, face), built once per check call, shared across its
horn shapes and dropped when it returns.  Horn enumeration looks each
slot's candidates up in X_{n-1} and charges each partial horn
|X_{n-1}| nodes before its lookup.  Filler and lift searches are one
search, FaceRows.first: the first n-simplex whose faces match the horn
(and, for a lift, that maps to the base); a hit at position p costs
p + 1 nodes and a miss costs |X_n|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .simplicial import FormalSimplex, SimplicialMap, SimplicialSet


class BudgetExhausted(RuntimeError):
    pass


class Budget:
    """A decrementing node allowance; limit None means unlimited."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def spend(self, n: int = 1):
        self.spent += n
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted(f"budget of {self.limit} nodes exhausted")


@dataclass(frozen=True)
class CheckEntry:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str = ""
    witness: str | None = None

    def line(self) -> str:
        tail = f"  [{self.witness}]" if self.witness else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.status.upper():12s} {self.name}{detail}{tail}"


@dataclass
class VerificationReport:
    subject: str
    bound: int
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, name: str, status: str, detail: str = "", witness: str | None = None):
        self.entries.append(CheckEntry(name, status, detail, witness))

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    @property
    def failed(self) -> list[CheckEntry]:
        return [e for e in self.entries if e.status == "fail"]

    @property
    def inconclusive(self) -> list[CheckEntry]:
        return [e for e in self.entries if e.status == "inconclusive"]

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}", f"degree bound: {self.bound}"]
        lines += [e.line() for e in self.entries]
        verdict = "PASS" if self.ok else ("FAIL" if self.failed else "INCONCLUSIVE")
        lines.append(f"result: {verdict} ({len(self.entries)} checks)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "subject": self.subject,
            "bound": self.bound,
            "ok": self.ok,
            "entries": [
                {"name": e.name, "status": e.status, "detail": e.detail,
                 "witness": e.witness}
                for e in self.entries
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# -- simplicial identities -----------------------------------------------------


class _Rows:
    """The faces and degeneracies of the faces and degeneracies of one
    simplex s, each computed once (equal simplices share their rows):
    ff[j][i] = d_i d_j s, fg[j][i] = s_i d_j s, gf[j][i] = d_i s_j s,
    gg[j][i] = s_i s_j s."""

    def __init__(self, X: SimplicialSet, s: FormalSimplex):
        n = s.dim
        self.s = s
        faces = [X.face(s, i) for i in range(n + 1)] if n else []
        degeneracies = [X.degeneracy(s, j) for j in range(n + 1)]
        rows: dict[FormalSimplex, tuple[list, list]] = {}
        for t in faces + degeneracies:
            if t not in rows:
                k = t.dim
                rows[t] = ([X.face(t, i) for i in range(k + 1)] if k else [],
                           [X.degeneracy(t, i) for i in range(k + 1)])
        self.ff = [rows[t][0] for t in faces]
        self.fg = [rows[t][1] for t in faces]
        self.gf = [rows[t][0] for t in degeneracies]
        self.gg = [rows[t][1] for t in degeneracies]


# One row per family: its name; its index pairs (i, j) on an n-simplex,
# in checking order; the two sides as lookups in _Rows; and the two
# sides as words, for the witness (None: the simplex itself).
_IDENTITIES = [
    ("d_i d_j = d_{j-1} d_i (i<j)",
     lambda n: [(i, j) for j in range(1, n + 1) for i in range(j)] if n >= 2 else [],
     lambda r, i, j: (r.ff[j][i], r.ff[i][j - 1]),
     lambda i, j: (f"d_{i} d_{j}", f"d_{j-1} d_{i}")),
    ("d_i s_j = s_{j-1} d_i (i<j)",
     lambda n: [(i, j) for j in range(n + 1) for i in range(j)],
     lambda r, i, j: (r.gf[j][i], r.fg[i][j - 1]),
     lambda i, j: (f"d_{i} s_{j}", f"s_{j-1} d_{i}")),
    ("d_i s_j = id (i=j, j+1)",
     lambda n: [(i, j) for j in range(n + 1) for i in (j, j + 1)],
     lambda r, i, j: (r.gf[j][i], r.s),
     lambda i, j: (f"d_{i} s_{j}", None)),
    ("d_i s_j = s_j d_{i-1} (i>j+1)",
     lambda n: [(i, j) for j in range(n + 1) for i in range(j + 2, n + 2)],
     lambda r, i, j: (r.gf[j][i], r.fg[i - 1][j]),
     lambda i, j: (f"d_{i} s_{j}", f"s_{j} d_{i-1}")),
    ("s_i s_j = s_{j+1} s_i (i<=j)",
     lambda n: [(i, j) for j in range(n + 1) for i in range(j + 1)],
     lambda r, i, j: (r.gg[j][i], r.gg[i][j + 1]),
     lambda i, j: (f"s_{i} s_{j}", f"s_{j+1} s_{i}")),
]


def verify_simplicial_identities(X: SimplicialSet, depth: int) -> VerificationReport:
    """Check the five simplicial identity families on every simplex of
    degree <= depth.

    Simplices are visited degree by degree in canonical order; each
    one's faces and degeneracies, and theirs, are computed once into
    rows (_Rows) that every family then reads, and are dropped before
    the next simplex.  Each family gets one report entry; a fail entry
    carries its first counterexample in (degree, simplex, pair) order
    and the family is not checked further."""
    witnesses: list[str | None] = [None] * len(_IDENTITIES)
    counts = [0] * len(_IDENTITIES)
    for n in range(depth + 1):
        if all(witnesses):
            break
        pairs = [family[1](n) for family in _IDENTITIES]
        for s in X.simplices_at(n):
            rows = _Rows(X, s)
            for k, (_, _, sides, words) in enumerate(_IDENTITIES):
                if witnesses[k] is None:
                    witnesses[k] = _first_failure(rows, pairs[k], sides, words)
                    counts[k] += len(pairs[k])
    report = VerificationReport(X.name, depth)
    for (name, *_), witness, checked in zip(_IDENTITIES, witnesses, counts):
        if witness:
            report.add(name, "fail", witness=witness)
        else:
            report.add(name, "pass", detail=f"{checked} instances")
    return report


def _first_failure(rows: _Rows, pairs, sides, words) -> str | None:
    for i, j in pairs:
        lhs, rhs = sides(rows, i, j)
        if lhs != rhs:
            lw, rw = words(i, j)
            if rw is None:
                return f"{rows.s!r}: {lw} = {lhs!r} != the simplex itself"
            return f"{rows.s!r}: {lw} = {lhs!r} != {rhs!r} = {rw}"
    return None


# -- horns ---------------------------------------------------------------------


@dataclass(frozen=True)
class HornProblem:
    """A horn of shape (n, missing): faces[a] for a != missing, None at
    missing.  Faces must satisfy the matching condition
    d_a f_b = d_{b-1} f_a for a < b, both != missing."""

    n: int
    missing: int
    faces: tuple[FormalSimplex | None, ...]

    def present(self):
        return [(a, f) for a, f in enumerate(self.faces) if a != self.missing]

    def describe(self) -> str:
        parts = ", ".join(f"d_{a}={f!r}" for a, f in self.present())
        return f"Lambda^{self.n}_{self.missing}({parts})"


def horn_is_compatible(X: SimplicialSet, h: HornProblem) -> bool:
    for b in range(h.n + 1):
        if b == h.missing or h.faces[b] is None:
            continue
        for a in range(b):
            if a == h.missing:
                continue
            if X.face(h.faces[b], a) != X.face(h.faces[a], b - 1):
                return False
    return True


FaceRow = tuple[int, FormalSimplex, tuple[FormalSimplex, ...]]


class FaceRows:
    """The face rows of one simplicial set X, degree by degree, each
    degree built once on first use.

    at(n) lists X_n in canonical order as rows (pos, x, faces): x's
    position in that order and its faces (d_0 x, ..., d_n x); vertices
    get an empty tuple.  matching(n, wanted) lists, in the same order,
    the rows whose face at slot a is g for every (a, g) in wanted, found
    through an index of X_n on (slot, face).  first() is the one search
    for fillers and lifts.  One check call holds one FaceRows per
    simplicial set and shares it across its horn shapes; it is freed
    with the call, so nothing is kept on X itself.
    """

    def __init__(self, X: SimplicialSet):
        self.X = X
        self._rows: dict[int, list[FaceRow]] = {}
        self._by_face: dict[int, dict[tuple[int, FormalSimplex], list[FaceRow]]] = {}

    def at(self, n: int) -> list[FaceRow]:
        rows = self._rows.get(n)
        if rows is None:
            X = self.X
            rows = self._rows[n] = [
                (pos, x, tuple(X.face(x, a) for a in range(n + 1)) if n else ())
                for pos, x in enumerate(X.simplices_at(n))]
        return rows

    def matching(self, n: int, wanted: list[tuple[int, FormalSimplex]]) -> list[FaceRow]:
        if not wanted:
            return self.at(n)
        index = self._by_face.get(n)
        if index is None:
            index = self._by_face[n] = {}
            for row in self.at(n):
                for key in enumerate(row[2]):
                    index.setdefault(key, []).append(row)
        hits = index.get(wanted[0], [])
        rest = wanted[1:]
        return [row for row in hits if all(row[2][a] == g for a, g in rest)] if rest else hits

    def first(self, n: int, wanted: list[tuple[int, FormalSimplex]], budget: Budget,
              accept: Callable[[FormalSimplex], bool] | None = None) -> FormalSimplex | None:
        """The first n-simplex of matching(n, wanted) that accept allows
        (any, by default), at the node cost of a scan of X_n in canonical
        order: a hit at position p spends p + 1 nodes, a miss |X_n|."""
        for pos, x, _ in self.matching(n, wanted):
            if accept is None or accept(x):
                budget.spend(pos + 1)
                return x
        budget.spend(len(self.at(n)))
        return None


def enumerate_horns(X: SimplicialSet, n: int, missing: int,
                    budget: Budget | None = None,
                    *, faces: FaceRows | None = None) -> list[HornProblem]:
    """All horns of shape (n, missing) in X, by backtracking over the
    face slots in ascending index order.

    Slot b of a partial horn takes the (n-1)-simplices whose face a
    equals d_{b-1} of the simplex at every chosen slot a < b; they are
    looked up through the (slot, face) index of X_{n-1} on the first
    chosen slot and filtered on the others.

    A node is one candidate a scan of X_{n-1} in canonical order would
    try: each partial horn is charged |X_{n-1}| nodes before its lookup,
    so the enumeration spends what the scan spends and runs out of
    budget exactly when the scan would.  faces is a FaceRows of X to
    share with other shapes; by default the call builds its own.
    """
    if n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= missing <= n:
        raise ValueError(f"horn index {missing} outside 0..{n}")
    budget = budget or Budget(None)
    if faces is None:
        faces = FaceRows(X)
    slots = [a for a in range(n + 1) if a != missing]
    size = len(faces.at(n - 1))
    out: list[HornProblem] = []

    def extend(chosen: dict[int, FaceRow], depth: int):
        if depth == len(slots):
            out.append(HornProblem(n, missing, tuple(
                chosen[a][1] if a in chosen else None for a in range(n + 1))))
            return
        b = slots[depth]
        budget.spend(size)
        # a < b always: slots ascend, and chosen keeps that order
        wanted = [(a, g_faces[b - 1]) for a, (_, _, g_faces) in chosen.items()]
        for row in faces.matching(n - 1, wanted):
            chosen[b] = row
            extend(chosen, depth + 1)
            del chosen[b]

    extend({}, 0)
    return out


def find_filler(X: SimplicialSet, h: HornProblem, budget: Budget | None = None,
                *, faces: FaceRows | None = None) -> FormalSimplex | None:
    """First n-simplex whose faces extend the horn, in canonical order,
    at a scan's node cost (FaceRows.first).  faces is a FaceRows of X to
    share with other horns; by default the call builds its own."""
    if faces is None:
        faces = FaceRows(X)
    return faces.first(h.n, h.present(), budget or Budget(None))


def verify_quasicategory(X: SimplicialSet, depth: int,
                         budget: int | None = None) -> VerificationReport:
    """Inner-horn filling for all shapes 0 < i < n <= depth.

    The budget is a per-subproblem node limit: each (n, i) enumeration
    gets one allowance and each horn's filler search gets a fresh one,
    so a verdict does not depend on which other subproblems ran.  The
    shapes share one FaceRows of X, so each degree's face rows are
    built once per call.
    """
    faces = FaceRows(X)
    report = VerificationReport(X.name, depth)
    report.entries = [_horn_block(X, n, i, budget, faces)
                      for n in range(2, depth + 1) for i in _KIND_RANGES["inner"](n)]
    return report


def _horn_block(X: SimplicialSet, n: int, i: int, budget: int | None,
                faces: FaceRows) -> CheckEntry:
    name = f"inner horns Lambda^{n}_{i}"
    try:
        horns = enumerate_horns(X, n, i, Budget(budget), faces=faces)
    except BudgetExhausted:
        return CheckEntry(name, "inconclusive", detail="enumeration budget exhausted")
    exhausted = 0
    for h in horns:
        try:
            if find_filler(X, h, Budget(budget), faces=faces) is None:
                return CheckEntry(name, "fail", detail=f"{len(horns)} horns",
                                  witness=f"no filler for {h.describe()}")
        except BudgetExhausted:
            exhausted += 1
    if exhausted:
        return CheckEntry(name, "inconclusive",
                          detail=f"{exhausted}/{len(horns)} searches hit the budget")
    return CheckEntry(name, "pass", detail=f"{len(horns)} horns filled")


# -- fibrations ------------------------------------------------------------------


_KIND_RANGES = {
    "right": lambda n: range(1, n + 1),
    "inner": lambda n: range(1, n),
    "kan": lambda n: range(0, n + 1),
}


def check_fibration(f: SimplicialMap, depth: int, kind: str = "right",
                    budget: int | None = None) -> VerificationReport:
    """Horn-lifting checks for f through degree depth.

    kind picks the horn indices per dimension n: "right" 0 < i <= n,
    "inner" 0 < i < n, "kan" 0 <= i <= n.  Every commuting square of a
    horn in the domain against an n-simplex downstairs must admit a
    lift; witnesses name the first square without one.  The bases of a
    horn are the n-simplices of the codomain whose faces are its
    images, looked up in canonical order.  The shapes share one
    FaceRows of each side, so each degree's face rows are built once
    per call.
    """
    if kind not in _KIND_RANGES:
        raise ValueError(f"unknown fibration kind {kind!r}")
    report = VerificationReport(f"{f.name}: {f.domain.name} -> {f.codomain.name}", depth)
    x_faces, y_faces = FaceRows(f.domain), FaceRows(f.codomain)
    report.entries = [_lift_block(f, n, i, budget, x_faces, y_faces)
                      for n in range(1, depth + 1) for i in _KIND_RANGES[kind](n)]
    return report


def _lift_block(f: SimplicialMap, n: int, i: int, budget: int | None,
                x_faces: FaceRows, y_faces: FaceRows) -> CheckEntry:
    name = f"lifts Lambda^{n}_{i}"
    try:
        horns = enumerate_horns(f.domain, n, i, Budget(budget), faces=x_faces)
    except BudgetExhausted:
        return CheckEntry(name, "inconclusive", detail="enumeration budget exhausted")
    squares = 0
    exhausted = 0
    for h in horns:
        present = h.present()
        for _, base, _ in y_faces.matching(n, [(a, f(g)) for a, g in present]):
            squares += 1
            try:
                if x_faces.first(n, present, Budget(budget),
                                 lambda x: f(x) == base) is None:
                    return CheckEntry(
                        name, "fail", detail=f"{squares} squares",
                        witness=f"no lift of {base!r} along {h.describe()}")
            except BudgetExhausted:
                exhausted += 1
    if exhausted:
        return CheckEntry(name, "inconclusive",
                          detail=f"{exhausted}/{squares} searches hit the budget")
    return CheckEntry(name, "pass", detail=f"{squares} squares lifted")


# -- isomorphism ------------------------------------------------------------------


def _relabel(mapping: dict[str, str], s: FormalSimplex) -> FormalSimplex:
    """s with its generator carried along a generator bijection."""
    return FormalSimplex(mapping[s.gen], s.degeneracy)


def find_isomorphism(X: SimplicialSet, Y: SimplicialSet,
                     depth: int) -> dict[str, str] | None:
    """A generator bijection X -> Y through degree depth commuting with
    the face tables, or None.  Backtracking dimension by dimension;
    deterministic, returns the first match in canonical order."""
    dims = sorted(set(list(X.gens) + list(Y.gens)))
    dims = [d for d in dims if d <= depth]
    for d in dims:
        if len(X.gens.get(d, [])) != len(Y.gens.get(d, [])):
            return None
    mapping: dict[str, str] = {}

    def assign(dim_idx: int, pos: int, used: set[str]) -> bool:
        if dim_idx == len(dims):
            return True
        d = dims[dim_idx]
        xs = X.gens.get(d, [])
        if pos == len(xs):
            return assign(dim_idx + 1, 0, set())
        g = xs[pos]
        for h in Y.gens.get(d, []):
            if h in used:
                continue
            if d >= 1:
                wanted = [_relabel(mapping, X.face_table[(g, i)]) for i in range(d + 1)]
                actual = [Y.face_table[(h, i)] for i in range(d + 1)]
                if wanted != actual:
                    continue
            mapping[g] = h
            used.add(h)
            if assign(dim_idx, pos + 1, used):
                return True
            used.discard(h)
            del mapping[g]
        return False

    if assign(0, 0, set()):
        return dict(mapping)
    return None


def isomorphism_report(X: SimplicialSet, Y: SimplicialSet, depth: int) -> VerificationReport:
    """Count comparison plus full face/degeneracy table comparison under
    an explicitly constructed generator bijection."""
    report = VerificationReport(f"{X.name} ~ {Y.name}", depth)
    for n in range(depth + 1):
        cx, cy = X.count_at(n), Y.count_at(n)
        if cx == cy:
            report.add(f"simplex count at degree {n}", "pass", detail=str(cx))
        else:
            report.add(f"simplex count at degree {n}", "fail",
                       witness=f"{cx} vs {cy}")
    if report.failed:
        return report
    mapping = find_isomorphism(X, Y, depth)
    if mapping is None:
        report.add("generator bijection", "fail",
                   witness="no face-compatible bijection exists")
        return report
    report.add("generator bijection", "pass", detail=f"{len(mapping)} generators")

    mismatch = None
    checked = 0
    for n in range(depth + 1):
        for s in X.simplices_at(n):
            t = _relabel(mapping, s)
            for i in range(n + 1) if n >= 1 else []:
                checked += 1
                if _relabel(mapping, X.face(s, i)) != Y.face(t, i):
                    mismatch = f"d_{i} {s!r}"
                    break
            if n < depth:
                for i in range(n + 1):
                    checked += 1
                    if _relabel(mapping, X.degeneracy(s, i)) != Y.degeneracy(t, i):
                        mismatch = f"s_{i} {s!r}"
                        break
            if mismatch:
                break
        if mismatch:
            break
    if mismatch:
        report.add("structure tables under bijection", "fail", witness=mismatch)
    else:
        report.add("structure tables under bijection", "pass",
                   detail=f"{checked} table entries")
    return report
