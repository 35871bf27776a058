"""Workloads of the exitpath benchmark: jobs, inputs and the checker.

A workload is a list of jobs.  Each job drives the real command line,
``exitpath.cli.main([...])`` with ``--format machine`` and the default
``--budget`` and ``--workers``, captures what it prints, and checks it:

* every job's exit status is written here by hand, from the theorem and
  the README (``EXPECTED_STATUS``);
* the machine output of the fixed workloads must equal, byte for byte,
  the output recorded from the seed code in ``expected/<workload>.json``
  (``python3 bench/record_expected.py`` writes those files);
* a ``sweep`` job is checked against facts computed here from the poset
  itself: the document round trip prints identically, and each degree
  count of ``Ex`` equals ``|M_k| + |exits_k| + |N_k|`` and the closed
  form ``sum_d |gens_d| * C(k, d)``.

A job that raises, or whose output differs, is a failed job.  Inputs
come only from the public API and from ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from exitpath import cli, documents
from exitpath.construction import LinkedSpan
from exitpath.gallery import cone_span
from exitpath.operators import Operator
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
WORKLOADS = ("horns", "lifts", "identities", "sweep")
GALLERY_SPANS = ("boundary-collar", "broken", "point-cone", "s0-defect", "trivial")

PASS, FAIL = cli.PASS, cli.FAIL
# Exit statuses by hand.  The four gallery spans whose hypotheses hold
# pass and `broken` fails; a cone over a simplex fails the search checks
# because pi: simplex -> point is no right (or Kan) fibration.  The
# simplicial identities hold on every complex and every iota is mono.
EXPECTED_STATUS = {
    "verify-qcat": {"cone2": FAIL, "broken": FAIL},
    "check-fibration": {"cone3": FAIL, "broken": FAIL},
    "verify-identities": {},
    "check-mono": {},
}

SWEEP_SPANS = 60
SWEEP_DEPTH = 3
SWEEP_MASTER_SEED = 20230105


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one exitpath command in this process; (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


@dataclass
class Job:
    """One verdict a user waits for.

    ``argv`` is the exitpath command, ``status`` its expected exit status,
    ``expected`` its recorded output and ``check`` a function from the
    output to a list of problems (sweep jobs)."""

    id: str
    argv: list[str]
    status: int
    expected: str | None = None
    check: Callable[[str], list[str]] | None = None
    largest: bool = False

    def run(self) -> tuple[str, list[str]]:
        """Run the job; (what it printed, problems found)."""
        status, out = run_cli(self.argv)
        problems = []
        if status != self.status:
            problems.append(f"exit status {status}, want {self.status}")
        if self.expected is not None and out != self.expected:
            problems.append("machine output differs from the recorded seed output")
        if self.expected is None and self.check is None:
            problems.append("no recorded output to compare with")
        if self.check is not None:
            problems += self.check(out)
        return out, problems


def expected_status(command: str, span: str) -> int:
    return EXPECTED_STATUS[command].get(span, PASS)


def _cli_job(command: str, span_ref: str, span_name: str, extra: list[str],
             largest: bool = False) -> Job:
    argv = [command, "--span", span_ref, *extra, "--format", "machine"]
    job_id = " ".join([command, span_name, *extra])
    return Job(job_id, argv, expected_status(command, span_name), largest=largest)


def write_cone(n: int, workdir: str) -> str:
    """Documents of cone(simplex^n), named cone<n>; returns the span path.

    ``cone_span`` names every cone ``point-cone``, the name of a gallery
    entry, so the benchmark renames it before writing."""
    span = cone_span(standard_simplex(n))
    span.name = f"cone{n}"
    return documents.write_span_documents(span, workdir)


def build(name: str, seed: int, workdir: str) -> list[Job]:
    """Make the workload's inputs in workdir and list its jobs.

    The seed orders the jobs of the fixed workloads and draws the span
    family of ``sweep``."""
    rng = random.Random(seed)
    if name == "horns":
        cone = write_cone(2, workdir)
        jobs = [_cli_job("verify-qcat", cone, "cone2", ["--max-dim", "4"], largest=True)]
        jobs += [_cli_job("verify-qcat", g, g, ["--max-dim", "4"]) for g in GALLERY_SPANS]
    elif name == "lifts":
        cone = write_cone(3, workdir)
        jobs = [_cli_job("check-fibration", cone, "cone3", ["--kind", "right", "--max-dim", "4"]),
                _cli_job("check-fibration", cone, "cone3", ["--kind", "kan", "--max-dim", "4"],
                         largest=True)]
        for g in GALLERY_SPANS:
            jobs.append(_cli_job("check-fibration", g, g, []))
            jobs.append(_cli_job("check-mono", g, g, []))
    elif name == "identities":
        cone = write_cone(2, workdir)
        jobs = [_cli_job("verify-identities", cone, "cone2", ["--max-dim", "5"], largest=True)]
        jobs += [_cli_job("verify-identities", g, g, ["--max-dim", "5"]) for g in GALLERY_SPANS]
    elif name == "sweep":
        return sweep_jobs(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    recorded = load_expected(name)
    for job in jobs:
        job.expected = recorded.get(job.id)
    rng.shuffle(jobs)
    return jobs


def load_expected(name: str) -> dict[str, str]:
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- the sweep family ------------------------------------------------------------


@dataclass
class PosetSpan:
    """Poset data behind one sweep span.

    Elements are 0..n-1 and every relation a < b has a < b as integers,
    so each prefix 0..r-1 is down-closed.  L is the nerve of that prefix,
    M the chain 0 < ... < m-1 and pi the nerve of the monotone map
    ``levels`` from the prefix to the chain."""

    below: list[frozenset[int]]
    r: int
    m: int
    levels: tuple[int, ...]
    labels: tuple[str, ...]


def _closure(n: int, pairs: list[tuple[int, int]]) -> list[frozenset[int]]:
    below: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        below[b].add(a)
    for b in range(n):  # pairs point upward, so one ascending pass closes
        for a in sorted(below[b]):
            below[b] |= below[a]
    return [frozenset(s) for s in below]


def _strict_chain_counts(elems: range, below: list[frozenset[int]]) -> tuple[int, ...]:
    """Nondegenerate simplex counts of the nerve, by dimension."""
    counts = []
    chains = [(e,) for e in elems]
    while chains:
        counts.append(len(chains))
        chains = [c + (e,) for c in chains for e in elems if c[-1] in below[e]]
    return tuple(counts)


def _draw_poset(rng: random.Random, n: int, r: int):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    below = _closure(n, pairs)
    shape = (_strict_chain_counts(range(n), below), _strict_chain_counts(range(r), below))
    return shape, below


def sweep_family(seed: int, count: int = SWEEP_SPANS) -> list[PosetSpan]:
    """A seeded family of small poset spans.

    Span i has 3 + i % 3 elements.  Its prefix size, chain length and
    simplex counts per dimension of N and L follow a schedule drawn
    once from SWEEP_MASTER_SEED; the seed draws random posets until one
    fits the schedule, then the map pi and the labels.  So every seed
    gives different spans of the same sizes, and run times compare
    across seeds."""
    master = random.Random(SWEEP_MASTER_SEED)
    rng = random.Random(seed)
    family = []
    for i in range(count):
        n = 3 + i % 3
        r, m = master.randint(1, n - 1), master.randint(1, 3)
        target, _ = _draw_poset(master, n, r)
        while True:
            shape, below = _draw_poset(rng, n, r)
            if shape == target:
                break
        levels = tuple(sorted(rng.randrange(m) for _ in range(r)))
        names = [f"p{k}" for k in range(n)]
        rng.shuffle(names)
        family.append(PosetSpan(below, r, m, levels, tuple(names)))
    return family


def sweep_span(i: int, p: PosetSpan) -> LinkedSpan:
    """The linked span of one family member, named sweep<i>."""
    name = f"sweep{i:02d}"
    n = len(p.below)
    lab = p.labels
    rel = [(lab[a], lab[b]) for b in range(n) for a in sorted(p.below[b])]
    N = nerve_of_poset(list(lab), rel, f"{name}-N")
    prefix = set(lab[:p.r])
    L = nerve_of_poset(list(lab[:p.r]), [(a, b) for a, b in rel if b in prefix], f"{name}-L")
    chain = [f"c{c}" for c in range(p.m)]
    M = nerve_of_poset(chain, [(chain[a], chain[b]) for a in range(p.m)
                               for b in range(a + 1, p.m)], f"{name}-M")
    level = dict(zip(lab[:p.r], p.levels))

    def image(label: str, dim: int) -> FormalSimplex:
        xs = [level[x] for x in label.split(",")]
        hit = sorted(set(xs))
        return FormalSimplex(",".join(chain[v] for v in hit),
                             Operator(dim, len(hit) - 1, tuple(hit.index(v) for v in xs)))

    pi = SimplicialMap("pi", L, M, {g: image(g, d) for g, d in L.gen_dims.items()})
    iota = SimplicialMap("iota", L, N, {g: nondeg(g, d) for g, d in L.gen_dims.items()})
    return LinkedSpan(name, M, L, N, pi, iota)


def _multichains(n: int, below, length: int, start=None) -> list[int]:
    """Weakly increasing sequences of `length` elements, counted by
    their last element; `start` restricts the first element."""
    ways = [1 if start is None or e == start else 0 for e in range(n)]
    for _ in range(length - 1):
        ways = [ways[e] + sum(ways[a] for a in below[e]) for e in range(n)]
    return ways


def sweep_counts(p: PosetSpan, k: int) -> tuple[int, int, int]:
    """(|M_k|, |exits_k|, |N_k|) from the poset alone.

    (gamma, j) is an exit path when vertices 0..j-1 of gamma lie in the
    link; the link is down-closed, so when vertex j-1 does."""
    n = len(p.below)
    upper = sum(_multichains(n, p.below, k + 1))
    low = comb(p.m + k, k + 1)
    exits = 0
    for j in range(1, k + 1):
        front = _multichains(n, p.below, j)
        for e in range(p.r):
            exits += front[e] * sum(_multichains(n, p.below, k - j + 2, start=e))
    return low, exits, upper


def _sweep_check(p: PosetSpan, span_name: str, out_path: str):
    def check(out: str) -> list[str]:
        problems = []
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        ex = documents.parse_sset(text, out_path)
        if documents.print_sset(ex) != text:
            problems.append("document round trip does not print identically")
        gens = {d: len(ex.gens.get(d, [])) for d in range(SWEEP_DEPTH + 1)}
        rows = []
        for k in range(SWEEP_DEPTH + 1):
            low, exits, upper = sweep_counts(p, k)
            closed = sum(gens[d] * comb(k, d) for d in range(k + 1))
            if closed != low + exits + upper:
                problems.append(f"degree {k}: closed form {closed} != "
                                f"{low} + {exits} + {upper}")
            rows.append({"degree": k, "low": low, "exit": exits, "upper": upper,
                         "total": low + exits + upper, "generators": gens[k]})
        want = json.dumps({"span": span_name, "max_dim": SWEEP_DEPTH, "degrees": rows},
                          sort_keys=True, indent=2) + "\n"
        if out != want:
            problems.append("build-exit --stats differs from the poset counts")
        return problems

    return check


def sweep_jobs(seed: int, workdir: str, count: int = SWEEP_SPANS) -> list[Job]:
    """Per span: check-mono, then build-exit --stats --out, then read back.

    The largest job is the span whose N has the most simplices."""
    jobs = []
    depth = str(SWEEP_DEPTH)
    family = sweep_family(seed, count)
    sizes = [sum(_strict_chain_counts(range(len(p.below)), p.below)) for p in family]
    biggest = sizes.index(max(sizes))
    for i, p in enumerate(family):
        span = sweep_span(i, p)
        path = documents.write_span_documents(span, workdir)
        mono = json.dumps({"map": "iota", "mono_through": SWEEP_DEPTH, "ok": True,
                           "witness": None}, sort_keys=True, indent=2) + "\n"
        jobs.append(Job(f"check-mono {span.name}",
                        ["check-mono", "--span", path, "--max-dim", depth, "--format", "machine"],
                        PASS, expected=mono))
        out_path = os.path.join(workdir, f"{span.name}.ex.sset")
        jobs.append(Job(f"build-exit {span.name}",
                        ["build-exit", "--span", path, "--max-dim", depth, "--stats",
                         "--out", out_path, "--format", "machine"],
                        PASS, check=_sweep_check(p, span.name, out_path),
                        largest=i == biggest))
    return jobs
