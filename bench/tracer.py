"""Per-layer tracing of exitpath from outside the package.

``Tracer.install()`` replaces public functions and methods of the
``exitpath`` modules with timing wrappers, in every module namespace
that holds them, and ``uninstall()`` puts the originals back.  Nothing
under ``src/`` changes.

Two kinds of target:

* boundary calls (``cli.main``, ``build_exit``, the ``verify`` entry
  points, the document readers and writers) record a span each:
  name, start, end, parent span and job id;
* hot leaf calls (``operators``, ``simplicial``, ``shuffles`` and the
  per-simplex ``construction`` helpers) run into the millions, so they
  only add to counters and to summed time.

Every wrapped call tracks the time its wrapped children took, so the
self time of a function is its own time minus its children's, and a
layer's self time is the sum over its functions.
"""

from __future__ import annotations

import builtins
import importlib
import re
import sys
import time
from collections import defaultdict

# (module, attribute path); a dotted path names a method.
LEAVES = [
    ("operators", "Operator.__post_init__"), ("operators", "compose"),
    ("operators", "epi_mono_factor"), ("operators", "identity"),
    ("operators", "face_op"), ("operators", "degeneracy_op"),
    ("operators", "degeneracy_word"), ("operators", "surjection_from_word"),
    ("simplicial", "SimplicialSet.act"), ("simplicial", "SimplicialSet.face"),
    ("simplicial", "SimplicialSet.degeneracy"), ("simplicial", "SimplicialSet.simplices_at"),
    ("simplicial", "SimplicialSet.count_at"), ("simplicial", "SimplicialSet.audit"),
    ("simplicial", "SimplicialMap.__call__"), ("simplicial", "SimplicialMap.audit"),
    ("simplicial", "SimplicialMap.is_mono"), ("simplicial", "SimplicialMap.image_table"),
    ("simplicial", "SimplicialMap.preimage"), ("simplicial", "nerve_of_poset"),
    ("shuffles", "flat"), ("shuffles", "sharp"), ("shuffles", "classify_face"),
    ("shuffles", "restriction_operator"), ("shuffles", "exit_shuffle"),
    ("shuffles", "collapse"),
    ("construction", "is_exit_path"), ("construction", "exit_face"),
    ("construction", "exit_degeneracy"), ("construction", "exit_normal_form"),
    ("construction", "detect_degenerate_exit"), ("construction", "LinkedSpan.require_iota"),
    ("verify", "find_filler"),
]
SPANS = [
    ("cli", "main"),
    ("gallery", "load_span"),
    ("construction", "build_exit"), ("construction", "exit_simplices"),
    ("verify", "verify_simplicial_identities"), ("verify", "verify_quasicategory"),
    ("verify", "check_fibration"), ("verify", "enumerate_horns"),
    ("documents", "parse_span_file"), ("documents", "parse_sset"),
    ("documents", "parse_smap"), ("documents", "print_sset"), ("documents", "print_smap"),
    ("documents", "write_span_documents"),
]
# Which search a Budget.spend node belongs to, by the innermost of these.
SEARCHES = {"verify.enumerate_horns": "enum", "verify.find_filler": "filler",
            "verify.check_fibration": "lift"}
# Leaves whose results feed a counter take the slower, observing wrapper.
OBSERVED = {"simplicial.SimplicialSet.simplices_at"}
_DETAIL_COUNT = {"verify.check_fibration": re.compile(r"(\d+) squares"),
                 "verify.verify_simplicial_identities": re.compile(r"(\d+) instances")}


class _CountingFile:
    """File proxy that adds the characters read or written to a tracer."""

    def __init__(self, fh, tracer):
        self._fh, self._tracer = fh, tracer

    def read(self, *args):
        data = self._fh.read(*args)
        self._tracer.counts["documents.bytes_read"] += len(data.encode("utf-8"))
        return data

    def write(self, data):
        self._tracer.counts["documents.bytes_written"] += len(data.encode("utf-8"))
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.job: str | None = None
        self._stack: list[float] = []       # children time of each open call
        self._span_stack: list[int] = []
        self._searches: list[str] = []
        self._act_keys: set = set()
        self._act_sets: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self._t0 = time.perf_counter()

    # -- jobs ----------------------------------------------------------------

    def start_job(self, job_id: str):
        self.job = job_id
        self._act_keys.clear()
        self._act_sets.clear()

    def end_job(self):
        """Fold the job's distinct act triples into the total.  Triples
        are keyed by set identity, which is only stable within a job."""
        self.counts["simplicial.act.distinct"] += len(self._act_keys)
        self._act_keys.clear()
        self._act_sets.clear()
        self.job = None

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, key: str, fn, span: bool):
        stack, clock = self._stack, time.perf_counter
        calls, incl, self_time = self.calls, self.incl, self.self_time
        search = SEARCHES.get(key)
        detail = _DETAIL_COUNT.get(key)
        searches, span_stack, spans = self._searches, self._span_stack, self.spans
        t0 = self._t0
        tracer = self

        if not span and search is None and key not in OBSERVED:
            def leaf(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    calls[key] += 1
                    incl[key] += dt
                    self_time[key] += dt - child
            return leaf

        def bounded(*args, **kwargs):
            if search is not None:
                searches.append(search)
            if span:
                parent = span_stack[-1] if span_stack else None
                span_stack.append(len(spans))
                spans.append((key, 0.0, 0.0, parent, tracer.job))
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[key] += 1
                incl[key] += dt
                self_time[key] += dt - child
                if span:
                    index = span_stack.pop()
                    spans[index] = (key, start - t0, end - t0, spans[index][3], tracer.job)
                if search is not None:
                    searches.pop()
            tracer._observe(key, result, detail)
            return result

        return bounded

    def _observe(self, key: str, result, detail):
        if key == "simplicial.SimplicialSet.simplices_at":
            self.counts["simplicial.simplices_at.items"] += len(result)
        elif key == "verify.enumerate_horns":
            self.counts["verify.horns"] += len(result)
        elif key == "verify.find_filler":
            self.counts["verify.fillers_found"] += result is not None
        elif detail is not None:
            for entry in result.entries:
                m = detail.search(entry.detail)
                if m:
                    self.counts[key + ".detail"] += int(m.group(1))

    def _wrap_act(self, key: str, fn):
        leaf = self._wrap(key, fn, span=False)
        keys, sets = self._act_keys, self._act_sets

        def act(X, s, op):
            sets[id(X)] = X
            keys.add((id(X), s, op))
            return leaf(X, s, op)

        return act

    def _wrap_spend(self, fn):
        counts, searches = self.counts, self._searches

        def spend(budget, n=1):
            if searches:
                counts["nodes." + searches[-1]] += n
            return fn(budget, n)

        return spend

    # -- patching --------------------------------------------------------------

    def install(self):
        """Wrap every target, in every loaded module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in sorted(sys.modules.items()) if m is not None]
        targets = [(m, a, False) for m, a in LEAVES] + [(m, a, True) for m, a in SPANS]
        for mod_name, attr, span in targets:
            mod = importlib.import_module(f"exitpath.{mod_name}")
            key = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapped = (self._wrap_act(key, original) if key == "simplicial.SimplicialSet.act"
                           else self._wrap(key, original, span))
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(key, original, span)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)
        verify = importlib.import_module("exitpath.verify")
        self._patch(verify.Budget, "spend", self._wrap_spend(verify.Budget.__dict__["spend"]))
        for mod_name in ("documents", "cli"):
            mod = importlib.import_module(f"exitpath.{mod_name}")
            self._patch(mod, "open", self._counting_open)
        return self

    def _patch(self, owner, name: str, value):
        present = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), present))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value, present in reversed(self._patches):
            if present:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _counting_open(self, *args, **kwargs):
        return _CountingFile(builtins.open(*args, **kwargs), self)

    # -- results ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """(counts, seconds): the per-layer metrics of the traced work.
        Counts and ratios of counts repeat exactly between runs; seconds
        do not."""
        c, calls, incl = self.counts, self.calls, self.incl

        def ratio(a, b):
            return a / b if b else 0.0

        act_calls = calls["simplicial.SimplicialSet.act"]
        counts = {
            "operators.Operator.validations": calls["operators.Operator.__post_init__"],
            "operators.compose.calls": calls["operators.compose"],
            "operators.epi_mono_factor.calls": calls["operators.epi_mono_factor"],
            "simplicial.act.calls": act_calls,
            "simplicial.act.distinct": c["simplicial.act.distinct"],
            "simplicial.act.repeat_ratio": ratio(act_calls - c["simplicial.act.distinct"],
                                                 act_calls),
            "simplicial.face.calls": calls["simplicial.SimplicialSet.face"],
            "simplicial.degeneracy.calls": calls["simplicial.SimplicialSet.degeneracy"],
            "simplicial.simplices_at.calls": calls["simplicial.SimplicialSet.simplices_at"],
            "simplicial.simplices_at.items": c["simplicial.simplices_at.items"],
            "simplicial.map.calls": calls["simplicial.SimplicialMap.__call__"],
            "shuffles.calls": sum(v for k, v in calls.items() if k.startswith("shuffles.")),
            "construction.build_exit.calls": calls["construction.build_exit"],
            "construction.is_exit_path.calls": calls["construction.is_exit_path"],
            "construction.exit_face.calls": calls["construction.exit_face"],
            "construction.exit_normal_form.calls": calls["construction.exit_normal_form"],
            "construction.exit_simplices.calls": calls["construction.exit_simplices"],
            "verify.identities.instances": c["verify.verify_simplicial_identities.detail"],
            "verify.horns": c["verify.horns"],
            "verify.enum_nodes": c["nodes.enum"],
            "verify.horn_accept_ratio": ratio(c["verify.horns"], c["nodes.enum"]),
            "verify.find_filler.calls": calls["verify.find_filler"],
            "verify.filler_nodes": c["nodes.filler"],
            "verify.filler_hit_ratio": ratio(c["verify.fillers_found"], c["nodes.filler"]),
            "verify.lift_nodes": c["nodes.lift"],
            "verify.lift_squares": c["verify.check_fibration.detail"],
            "documents.bytes_written": c["documents.bytes_written"],
            "documents.bytes_read": c["documents.bytes_read"],
            "cli.main.calls": calls["cli.main"],
        }
        seconds = {
            "operators.self_s": self.layer_self("operators"),
            "simplicial.self_s": self.layer_self("simplicial"),
            "simplicial.act.self_s": self.self_time["simplicial.SimplicialSet.act"],
            "simplicial.is_mono.s": incl["simplicial.SimplicialMap.is_mono"],
            "simplicial.audit.s": (incl["simplicial.SimplicialSet.audit"]
                                   + incl["simplicial.SimplicialMap.audit"]),
            "shuffles.s": self.layer_self("shuffles"),
            "construction.self_s": self.layer_self("construction"),
            "construction.build_exit.s": incl["construction.build_exit"],
            "construction.exit_simplices.s": incl["construction.exit_simplices"],
            "verify.self_s": self.layer_self("verify"),
            "verify.identities.s": incl["verify.verify_simplicial_identities"],
            "verify.enumerate_horns.s": incl["verify.enumerate_horns"],
            "verify.find_filler.s": incl["verify.find_filler"],
            "verify.check_fibration.self_s": self.self_time["verify.check_fibration"],
            "documents.self_s": self.layer_self("documents"),
            "documents.parse_span_file.s": incl["documents.parse_span_file"],
            "documents.parse_sset.s": incl["documents.parse_sset"],
            "documents.print_sset.s": incl["documents.print_sset"],
            "gallery.load_span.s": incl["gallery.load_span"],
            "cli.self_s": self.layer_self("cli"),
        }
        return counts, seconds

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
