"""The names the bench tracer wraps still exist, and build_exit runs
the exit functions it counts.

bench/tracer.py wraps functions and methods of exitpath by name; a
rename or deletion in src/ would otherwise show only when the bench
itself runs.  The tracer is loaded by file path; it is installed only
inside one test, which checks that it uninstalls, and in a fresh
interpreter that one test starts.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TRACER = os.path.join(ROOT, "bench", "tracer.py")

_spec = importlib.util.spec_from_file_location("exitpath_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
TARGETS = tracer.LEAVES + tracer.SPANS


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    target = importlib.import_module(f"exitpath.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_build_exit_runs_the_traced_exit_functions():
    """The construction counters of a traced run measure build_exit's
    work: it takes every exit face from exit_face and writes each
    vertical one by exit_normal_form, under the names the tracer wraps."""
    construction = importlib.import_module("exitpath.construction")
    gallery = importlib.import_module("exitpath.gallery")
    simplicial = importlib.import_module("exitpath.simplicial")
    spans = [gallery.load_span("s0-defect"),
             gallery.cone_span(simplicial.standard_simplex(2))]
    originals = construction.exit_face, construction.exit_normal_form
    traced = tracer.Tracer()
    with traced:
        for span in spans:
            construction.build_exit(span, 3)
    counts, _ = traced.metrics()
    assert counts["construction.build_exit.calls"] == 2
    assert counts["construction.exit_face.calls"] > 0
    assert counts["construction.exit_normal_form.calls"] > 0
    assert (construction.exit_face, construction.exit_normal_form) == originals


# Two traced rounds of the same commands in one fresh interpreter; prints
# the counts of each round as a JSON list.
_TWO_ROUNDS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("exitpath_bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import exitpath.cli as cli
rounds = []
for _ in range(2):
    with tracer.Tracer() as traced, contextlib.redirect_stdout(io.StringIO()):
        for span in ("s0-defect", "broken", "point-cone"):
            cli.main(["verify-qcat", "--span", span, "--max-dim", "3"])
    rounds.append(traced.metrics()[0])
print(json.dumps(rounds))
"""


def test_traced_counts_repeat_in_a_fresh_process():
    """A traced run counts the same work however warm the process is: no
    process-wide cache that builds an Operator (or does other traced
    work) is filled by the first round and read by the second."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _TWO_ROUNDS, TRACER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    assert first == second
    assert first["cli.main.calls"] == 3 and first["operators.Operator.validations"] > 0
