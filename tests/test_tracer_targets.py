"""The names the bench tracer wraps still exist.

bench/tracer.py wraps functions and methods of exitpath by name; a
rename or deletion in src/ would otherwise show only when the bench
itself runs.  The tracer is loaded by file path and left uninstalled.
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
