"""Machine verification: simplicial identities, horn filling, fibrations,
comparison maps.

Everything here consumes plain SimplicialSet values, reports through a
serializable VerificationReport, and is deterministic: enumeration
follows the canonical simplex order, searches return the first hit in
that order, and search budgets are applied per subproblem so a verdict
does not depend on which other subproblems ran.

A budget is a node allowance; one node is one candidate simplex that a
scan in canonical order would inspect.  Exhaustion marks the
surrounding check "inconclusive" rather than guessing.

Every check reads one store per simplicial set, built once per call:
Tables numbers a simplex of X_n by its position in SimplicialSet.blocks
(its generator's block offset plus its surjection's rank) and holds each
face and degeneracy of a degree as one column of numbers over all of
X_n, so the checks compare ints.  A column is filled from
SimplicialSet.face_values and degeneracy_values on (generator, values)
pairs and builds no FormalSimplex.  It looks up the target block of
each block's own generator once, so a result that stays in that
generator (every s_i, and d_i of a degenerate simplex that repeats at
i) takes one rank lookup, and any other result two.  A word of faces
and degeneracies is one column, the columns of its letters composed
by operators.compose_values.  The image of a map is one more such
column, filled from SimplicialMap.image_values, so the lift check
numbers both sides without a map call.  No check lists a degree: a
witness unranks each simplex it names through Tables.simplex.

Horn, filler and lift search share one lookup, Tables.face_keys: the
simplices of a degree keyed by their faces at a fixed tuple of slots,
optionally followed by one more column.  The checks keep each horn as
the tuple of its face numbers, which is the key of its fillers; a
HornProblem is built only for a witness or a reader of
enumerate_horns' result.  Searches find their answers by lookup but
charge the scan's nodes, so verdicts under any budget are those of the
scan: horn enumeration charges |X_{n-1}| nodes per partial horn, a
whole level of partial horns in one spend before that level's lookups,
and a filler or lift search (first_hit) charges p + 1 nodes for a hit
at position p and |X_n| for a miss.  The searches of one shape share
one Budget, its spending reset to 0 before each search, so each search
still gets the whole allowance.  Spending only grows, and only whether
a total crosses the limit shows, so these charges exhaust a budget
exactly when the scan's node-by-node charges would.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .operators import compose_values
from .simplicial import FormalSimplex, SimplicialMap, SimplicialSet, simplex_repr


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


def machine_json(payload) -> str:
    """The machine format of every exitpath output: json with sorted
    keys, indented by 2."""
    return json.dumps(payload, sort_keys=True, indent=2)


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

    def payload(self) -> dict:
        return {
            "subject": self.subject,
            "bound": self.bound,
            "ok": self.ok,
            "entries": [
                {"name": e.name, "status": e.status, "detail": e.detail,
                 "witness": e.witness}
                for e in self.entries
            ],
        }


# -- the tables ----------------------------------------------------------------


class NotASimplex(RuntimeError):
    """A face, degeneracy or image that is not a simplex of the degree
    the simplicial structure puts it in: the face action is broken, not
    the input."""


class _ByDegree(dict):
    """degree -> value, each built by build(n) on first use."""

    def __init__(self, build: Callable[[int], object]):
        super().__init__()
        self.build = build

    def __missing__(self, n: int):
        return self.setdefault(n, self.build(n))


_NO_BLOCK = (0, (), {})


def _column(source: dict, target: dict, action: Callable, i: int | None, letter: str,
            n: int) -> tuple[int, ...]:
    """The numbers in X_n (of blocks target) of action(gen, values, i)
    over every simplex (gen, values) of the degree of blocks source, in
    order.  Each source block looks up its own generator's target block
    once: a result in that generator takes one rank lookup there, any
    other result the block of its generator first.  The action runs
    once per entry either way, and a result that is not an n-simplex
    of X raises NotASimplex."""
    out = []
    for label, (_, _, ranks) in source.items():
        home, _, home_ranks = target.get(label, _NO_BLOCK)
        # ranks lists its block's values in rank order
        for values in ranks:
            gen, image = action(label, values, i)
            # the action hands back the label it was given when the
            # result stays in its generator; an equal label in another
            # object takes the general lookup, to the same number
            if gen is label:
                offset, rank = home, home_ranks.get(image)
            else:
                offset, _, target_ranks = target.get(gen, _NO_BLOCK)
                rank = target_ranks.get(image)
            if rank is None:
                raise NotASimplex(f"{letter} {simplex_repr(label, values)} = "
                                  f"{simplex_repr(gen, image)} is not a simplex of degree {n}")
            out.append(offset + rank)
    return tuple(out)


class Tables:
    """One simplicial set X in numbers, each degree built on first use.

    A simplex's number in X_n is its position in X.blocks(n): the offset
    of its generator's block plus the rank of its surjection.
    sizes[n] is X.count_at(n); faces[n][a] is the column of the numbers
    of d_a x over all x in X_n, in order, and degens[n][i] that of
    s_i x.  A column walks blocks(n) and numbers X.face_values,
    X.degeneracy_values or, for image(), a map's image_values of each
    (generator, values) in the block of the result's generator, the
    block of its own generator looked up once per block (_column).
    simplex() and number() convert one simplex each way, so no Tables
    lists a degree.  column() composes the columns of a word's letters
    by compose_values.  face_keys() is the one lookup of the searches: per
    degree and tuple of slots, a dict from the face numbers at those
    slots to the simplices that have them, built by zipping those
    columns on each call.  One check call holds one Tables per
    simplicial set and frees it on return, so nothing is kept on X.
    """

    def __init__(self, X: SimplicialSet):
        # the builders close over the parts, never over self, so no
        # reference cycle keeps a Tables alive after its call
        blocks = self._blocks = _ByDegree(X.blocks)
        self.sizes = _ByDegree(X.count_at)
        self.faces = _ByDegree(lambda n: tuple(
            _column(blocks[n], blocks[n - 1], X.face_values, a, f"{X.name}: d_{a}", n - 1)
            for a in range(n + 1)) if n else ())
        self.degens = _ByDegree(lambda n: tuple(
            _column(blocks[n], blocks[n + 1], X.degeneracy_values, i, f"{X.name}: s_{i}", n + 1)
            for i in range(n + 1)))

    def number(self, n: int, x: FormalSimplex) -> int | None:
        """x's number in X_n, or None when x is not an n-simplex of X."""
        offset, _, ranks = self._blocks[n].get(x.gen, _NO_BLOCK)
        rank = ranks.get(x.values)
        return None if rank is None else offset + rank

    def simplex(self, n: int, p: int) -> FormalSimplex:
        """The simplex numbered p in X_n, listed or not; IndexError for
        p outside 0..|X_n| - 1."""
        for label, (offset, sigmas, _) in self._blocks[n].items():
            if 0 <= p - offset < len(sigmas):
                return FormalSimplex(label, sigmas[p - offset])
        raise IndexError(f"no simplex numbered {p} in degree {n}")

    def column(self, n: int, word: tuple[tuple[str, int], ...]) -> tuple[int, ...]:
        """The numbers of w x over all x in X_n, in order, for the word w
        of ("d" or "s", index) letters, applied right to left; the empty
        word gives X_n's own numbers."""
        column = None
        for op, i in reversed(word):
            if op == "d":
                n, step = n - 1, self.faces[n][i]
            else:
                n, step = n + 1, self.degens[n][i]
            column = step if column is None else compose_values(step, column)
        return tuple(range(self.sizes[n])) if column is None else column

    def face_keys(self, n: int, slots: tuple[int, ...],
                  extra: Sequence[int] | None = None) -> dict[tuple[int, ...], Sequence[int]]:
        """The n-simplices by their faces at slots: the key of x is the
        tuple of the numbers of d_a x for a in slots, in order, followed
        by extra[x] when an extra column over X_n is given, and it maps
        to the numbers, ascending, of the simplices with that key, built
        afresh by zipping the face columns; a caller that looks up many
        keys of one (n, slots) holds on to the result."""
        columns = [self.faces[n][a] for a in slots]
        if extra is not None:
            columns.append(extra)
        if not columns:
            index = {(): range(self.sizes[n])}
        else:
            index = {}
            for p, key in enumerate(zip(*columns)):
                hits = index.get(key)
                if hits is None:
                    index[key] = [p]
                else:
                    hits.append(p)
        return index

    def image(self, f: SimplicialMap, target: Tables) -> _ByDegree:
        """f in numbers: image[n][p] is the number in target's degree n
        of f's image of the simplex numbered p in X_n, a column filled
        from f.image_values like a face column."""
        source, action = self._blocks, lambda gen, values, _: f.image_values(gen, values)
        return _ByDegree(lambda n: _column(source[n], target._blocks[n], action, None,
                                           f.name, n))


# -- simplicial identities -----------------------------------------------------


# One row per family: its name, and its instances on an n-simplex in
# checking order, each the two sides as words for Tables.column; the
# empty word is the simplex itself.
_IDENTITIES = [
    ("d_i d_j = d_{j-1} d_i (i<j)",
     lambda n: [((("d", i), ("d", j)), (("d", j - 1), ("d", i)))
                for j in range(1, n + 1) for i in range(j)] if n >= 2 else []),
    ("d_i s_j = s_{j-1} d_i (i<j)",
     lambda n: [((("d", i), ("s", j)), (("s", j - 1), ("d", i)))
                for j in range(n + 1) for i in range(j)]),
    ("d_i s_j = id (i=j, j+1)",
     lambda n: [((("d", i), ("s", j)), ()) for j in range(n + 1) for i in (j, j + 1)]),
    ("d_i s_j = s_j d_{i-1} (i>j+1)",
     lambda n: [((("d", i), ("s", j)), (("s", j), ("d", i - 1)))
                for j in range(n + 1) for i in range(j + 2, n + 2)]),
    ("s_i s_j = s_{j+1} s_i (i<=j)",
     lambda n: [((("s", i), ("s", j)), (("s", j + 1), ("s", i)))
                for j in range(n + 1) for i in range(j + 1)]),
]


def verify_simplicial_identities(X: SimplicialSet, depth: int) -> VerificationReport:
    """Check the five simplicial identity families on every simplex of
    degree <= depth.

    Each instance is checked on a whole degree at once: its two sides
    are columns of numbers over X_n, composed from one Tables of X that
    lists no X_n: s_i s_j reaches degree depth + 2, whose blocks number
    it.  Each family gets one report entry; a fail entry carries its
    first counterexample in (degree, simplex, instance) order and the
    family is not checked further."""
    tables = Tables(X)
    report = VerificationReport(X.name, depth)
    for name, instances in _IDENTITIES:
        checked = 0
        for n in range(depth + 1):
            pairs = instances(n)
            failure = _first_failure(tables, n, pairs)
            if failure:
                report.add(name, "fail", witness=_identity_witness(tables, n, *failure))
                break
            checked += len(pairs) * tables.sizes[n]
        else:
            report.add(name, "pass", detail=f"{checked} instances")
    return report


def _first_failure(tables: Tables, n: int, pairs) -> tuple | None:
    """(p, lhs, rhs) for the least (simplex number p, instance) of degree
    n whose two sides differ, or None."""
    least = None
    for k, (lhs, rhs) in enumerate(pairs):
        left, right = tables.column(n, lhs), tables.column(n, rhs)
        if left != right:
            p = next(p for p, (a, b) in enumerate(zip(left, right)) if a != b)
            least = min(least or (p, k), (p, k))
    return None if least is None else (least[0], *pairs[least[1]])


def _identity_witness(tables: Tables, n: int, p: int, lhs, rhs) -> str:
    m = n + sum(1 if op == "s" else -1 for op, _ in lhs)
    a, b = tables.column(n, lhs)[p], tables.column(n, rhs)[p]
    lw, rw = (" ".join(f"{op}_{i}" for op, i in word) for word in (lhs, rhs))
    head = f"{tables.simplex(n, p)!r}: {lw} = {tables.simplex(m, a)!r}"
    if not rhs:
        return f"{head} != the simplex itself"
    return f"{head} != {tables.simplex(m, b)!r} = {rw}"


# -- horns ---------------------------------------------------------------------


@dataclass(frozen=True)
class HornProblem:
    """A horn of shape (n, missing): faces[a] for a != missing, None at
    missing.  Faces must satisfy the matching condition
    d_a f_b = d_{b-1} f_a for a < b, both != missing."""

    n: int
    missing: int
    faces: tuple[FormalSimplex | None, ...]

    def __post_init__(self):
        if not (1 <= self.n == len(self.faces) - 1 and 0 <= self.missing <= self.n
                and self.faces.count(None) == 1 and self.faces[self.missing] is None):
            raise ValueError(f"not a horn of shape ({self.n}, {self.missing}): {self.faces!r}")

    def present(self):
        return [(a, f) for a, f in enumerate(self.faces) if a != self.missing]

    def describe(self) -> str:
        parts = ", ".join(f"d_{a}={f!r}" for a, f in self.present())
        return f"Lambda^{self.n}_{self.missing}({parts})"


class Horns(Sequence):
    """The horns of one shape (n, missing) of X, in enumeration order,
    kept as numbers: numbers[k] holds horn k's faces at slots, the
    indices other than missing in ascending order, each by its number
    in X_{n-1}.  Reading horn k builds its HornProblem, each face
    unranked by Tables.simplex; a slice is the list of its
    HornProblems.  Horns compares like the list of its HornProblems:
    equal to a list, or another Horns, with the same horns in the same
    order, and unhashable."""

    def __init__(self, tables: Tables, n: int, missing: int,
                 numbers: list[tuple[int, ...]]):
        self.n, self.missing, self.numbers = n, missing, numbers
        self.slots = tuple(a for a in range(n + 1) if a != missing)
        self._tables = tables

    def __len__(self) -> int:
        return len(self.numbers)

    def __getitem__(self, k: int | slice) -> HornProblem | list[HornProblem]:
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        faces = [self._tables.simplex(self.n - 1, p) for p in self.numbers[k]]
        faces.insert(self.missing, None)
        return HornProblem(self.n, self.missing, tuple(faces))

    def __eq__(self, other):
        if not isinstance(other, (list, Horns)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


def enumerate_horns(X: SimplicialSet, n: int, missing: int,
                    budget: Budget | None = None,
                    *, tables: Tables | None = None) -> Horns:
    """All horns of shape (n, missing) in X, in the order of a
    backtracking over the face slots in ascending index order.

    Slot b of a partial horn takes the (n-1)-simplices whose face a
    equals d_{b-1} of the simplex at every chosen slot a < b.  The
    partial horns grow one slot at a time, and the candidates for slot
    b are looked up in X_{n-1} keyed on its faces at the slots chosen
    so far (Tables.face_keys), so each horn stays a tuple of numbers.

    A node is one candidate a scan of X_{n-1} in canonical order would
    try: each partial horn costs |X_{n-1}| nodes, and each level of
    partial horns is charged in one spend before its lookups, so the
    enumeration spends what the scan spends and runs out of budget
    exactly when the scan would.  tables is a Tables of X to share with
    other shapes; by default the call builds its own.
    """
    if n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= missing <= n:
        raise ValueError(f"horn index {missing} outside 0..{n}")
    budget = budget or Budget(None)
    if tables is None:
        tables = Tables(X)
    size = tables.sizes[n - 1]
    horns = Horns(tables, n, missing, [()])  # the partial horns, one slot at a time
    for depth, b in enumerate(horns.slots):
        keys = tables.face_keys(n - 1, horns.slots[:depth])
        # the key a candidate needs: d_{b-1} of each chosen face, a < b
        up = tables.faces[n - 1][b - 1] if depth else ()
        budget.spend(size * len(horns.numbers))
        horns.numbers = [horn + (p,) for horn in horns.numbers
                         for p in keys.get(compose_values(up, horn), ())]
    return horns


def first_hit(hits: Sequence[int] | None, size: int, budget: Budget) -> int | None:
    """The first of hits, the ascending numbers of a search's matches in
    X_n (None for none), at the node cost of a scan of X_n in canonical
    order: a hit at position p spends p + 1 nodes, a miss size."""
    p = hits[0] if hits else None
    budget.spend(size if p is None else p + 1)
    return p


def find_filler(X: SimplicialSet, h: HornProblem, budget: Budget | None = None,
                *, tables: Tables | None = None) -> FormalSimplex | None:
    """First n-simplex whose faces extend the horn, in canonical order,
    at a scan's node cost (first_hit); a face outside X_{n-1} matches
    nothing.  tables is a Tables of X whose face columns other horns
    share, by default a new one.  Each call builds its shape's index,
    Tables.face_keys(n, slots), one pass over X_n; to test many horns
    of one shape, build that index once and look up each horn's
    numbers in it."""
    if tables is None:
        tables = Tables(X)
    present = h.present()
    key = tuple(tables.number(h.n - 1, g) for _, g in present)
    p = first_hit(tables.face_keys(h.n, tuple(a for a, _ in present)).get(key),
                  tables.sizes[h.n], budget or Budget(None))
    return None if p is None else tables.simplex(h.n, p)


def verify_quasicategory(X: SimplicialSet, depth: int,
                         budget: int | None = None) -> VerificationReport:
    """Inner-horn filling for all shapes 0 < i < n <= depth.

    The budget is a per-subproblem node limit: each (n, i) enumeration
    gets one allowance and each horn's filler search gets a whole one
    (the shape's searches share one Budget, reset before each), so a
    verdict does not depend on which other subproblems ran.  The
    shapes share one Tables of X, so each degree's face rows are built
    once per call.
    """
    tables = Tables(X)
    report = VerificationReport(X.name, depth)
    report.entries = [_horn_block(X, n, i, budget, tables)
                      for n in range(2, depth + 1) for i in _KIND_RANGES["inner"](n)]
    return report


def _horn_block(X: SimplicialSet, n: int, i: int, budget: int | None,
                tables: Tables) -> CheckEntry:
    name = f"inner horns Lambda^{n}_{i}"
    try:
        horns = enumerate_horns(X, n, i, Budget(budget), tables=tables)
    except BudgetExhausted:
        return CheckEntry(name, "inconclusive", detail="enumeration budget exhausted")
    # a horn's numbers are the key of its fillers
    fillers, size = tables.face_keys(n, horns.slots), tables.sizes[n]
    search, exhausted = Budget(budget), 0
    for k, horn in enumerate(horns.numbers):
        search.spent = 0
        try:
            if first_hit(fillers.get(horn), size, search) is None:
                return CheckEntry(name, "fail", detail=f"{len(horns)} horns",
                                  witness=f"no filler for {horns[k].describe()}")
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
    images, looked up in canonical order.  The shapes share one Tables
    of each side and one image of f, so each degree's face rows and
    image are built once per call.
    """
    if kind not in _KIND_RANGES:
        raise ValueError(f"unknown fibration kind {kind!r}")
    report = VerificationReport(f"{f.name}: {f.domain.name} -> {f.codomain.name}", depth)
    x_tables, y_tables = Tables(f.domain), Tables(f.codomain)
    image = x_tables.image(f, y_tables)
    report.entries = [_lift_block(f, n, i, budget, x_tables, y_tables, image)
                      for n in range(1, depth + 1) for i in _KIND_RANGES[kind](n)]
    return report


def _lift_block(f: SimplicialMap, n: int, i: int, budget: int | None,
                x_tables: Tables, y_tables: Tables, image: _ByDegree) -> CheckEntry:
    name = f"lifts Lambda^{n}_{i}"
    try:
        horns = enumerate_horns(f.domain, n, i, Budget(budget), tables=x_tables)
    except BudgetExhausted:
        return CheckEntry(name, "inconclusive", detail="enumeration budget exhausted")
    # the bases of a horn are keyed on its image, its lifts on the horn
    # and the base
    below, size = image[n - 1], x_tables.sizes[n]
    bases = y_tables.face_keys(n, horns.slots)
    lifts = x_tables.face_keys(n, horns.slots, image[n])
    search, squares, exhausted = Budget(budget), 0, 0
    for k, horn in enumerate(horns.numbers):
        for base in bases.get(compose_values(below, horn), ()):
            squares += 1
            search.spent = 0
            try:
                if first_hit(lifts.get(horn + (base,)), size, search) is None:
                    return CheckEntry(
                        name, "fail", detail=f"{squares} squares",
                        witness=f"no lift of {y_tables.simplex(n, base)!r} "
                                f"along {horns[k].describe()}")
            except BudgetExhausted:
                exhausted += 1
    if exhausted:
        return CheckEntry(name, "inconclusive",
                          detail=f"{exhausted}/{squares} searches hit the budget")
    return CheckEntry(name, "pass", detail=f"{squares} squares lifted")


# -- comparison -------------------------------------------------------------------


def comparison_report(f: SimplicialMap, depth: int) -> VerificationReport:
    """Whether f is an isomorphism through degree depth.

    f is natural once built (SimplicialMap audits it on the stored
    faces of the domain's generators), so it is an isomorphism through
    depth exactly when each degree n <= depth has as many simplices on
    both sides and f is injective there.  One entry per degree compares
    the counts; the last entry carries is_mono's witness when f is not
    levelwise injective."""
    report = VerificationReport(f"{f.name}: {f.domain.name} -> {f.codomain.name}", depth)
    for n in range(depth + 1):
        cx, cy = f.domain.count_at(n), f.codomain.count_at(n)
        if cx == cy:
            report.add(f"simplex count at degree {n}", "pass", detail=str(cx))
        else:
            report.add(f"simplex count at degree {n}", "fail",
                       witness=f"{cx} vs {cy}")
    ok, witness = f.is_mono(depth)
    report.add("levelwise injective", "pass" if ok else "fail", witness=witness)
    return report
