"""The names the bench tracer wraps still exist, and build_exit runs
the exit functions it counts.

bench/tracer.py wraps functions and methods of exitpath by name; a
rename or deletion in src/ would otherwise show only when the bench
itself runs.  The tracer is loaded by file path; it is installed only
inside one test, which checks that it uninstalls.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "tracer.py")

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
