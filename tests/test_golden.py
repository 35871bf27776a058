"""Byte-for-byte command outputs of the gallery spans and of cones.

Each `build-exit-<span>.json` under golden/ is the stdout of
`exitpath build-exit --span <span> --format machine --max-dim 4`,
recorded before exit-path membership was read from front faces;
any change to the construction that moves a generator, a face entry
or a note shows here as a byte difference.

The verify outputs were recorded before horn enumeration looked its
candidates up in a face index and before a check shared its face rows
across shapes:

* `verify-qcat-<span>.json`: `verify-qcat --format machine --max-dim 4`
  for the gallery spans and cone(Δ^2);
* `verify-qcat-cone-simplex2-budget<b>.json`: the same on cone(Δ^2)
  with `--budget 50` (every enumeration runs out) and `--budget 5000`
  (passes, fails and exhausted enumerations side by side), so the
  node charge of the enumeration is pinned;
* `check-fibration-kan-cone-simplex3.json`:
  `check-fibration --kind kan --format machine --max-dim 4` on cone(Δ^3);
* `verify-qcat-cone-simplex3-depth5-statuses.json`: the entry statuses
  of `verify_quasicategory(Ex(cone(Δ^3)), 5)`.

`verify-identities-<span>.json` is the stdout of
`verify-identities --format machine --max-dim 5` on the gallery spans
and on cone(Δ^2), the six jobs of the benchmark's identities workload;
it was recorded before the checker's columns were composed by
operators.compose_values.

`cli-outputs.json` maps each command line of CLI_LINES, run in text and
in machine format, to its exit status and stdout; it was recorded
before the commands handed their output to `main` to print.
"""

import json
import os

import pytest

from exitpath.cli import EXHAUSTED, FAIL, PASS, main
from exitpath.construction import build_exit
from exitpath.documents import write_span_documents
from exitpath.gallery import GALLERY, cone_span
from exitpath.simplicial import standard_simplex
from exitpath.verify import verify_quasicategory

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def stdout_of(capsys, status, *argv):
    assert main(list(argv)) == status
    return capsys.readouterr().out


def cone_file(tmp_path, k):
    return write_span_documents(cone_span(standard_simplex(k)), str(tmp_path))


def build_exit_stdout(capsys, span_ref):
    return stdout_of(capsys, PASS, "build-exit", "--span", span_ref,
                     "--format", "machine", "--max-dim", "4")


def verify_qcat_stdout(capsys, status, span_ref, *extra):
    return stdout_of(capsys, status, "verify-qcat", "--span", span_ref,
                     "--format", "machine", "--max-dim", "4", *extra)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_exit_documents(name, capsys):
    assert build_exit_stdout(capsys, name) == golden(f"build-exit-{name}")


def test_cone_simplex2_exit_document(tmp_path, capsys):
    assert build_exit_stdout(capsys, cone_file(tmp_path, 2)) == \
        golden("build-exit-cone-simplex2")


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_verify_qcat(name, capsys):
    status = PASS if GALLERY[name].hypotheses_hold else FAIL
    assert verify_qcat_stdout(capsys, status, name) == golden(f"verify-qcat-{name}")


@pytest.mark.parametrize("budget, status, suffix", [
    (None, FAIL, ""), ("50", EXHAUSTED, "-budget50"), ("5000", FAIL, "-budget5000")])
def test_cone_simplex2_verify_qcat(budget, status, suffix, tmp_path, capsys):
    extra = ("--budget", budget) if budget else ()
    out = verify_qcat_stdout(capsys, status, cone_file(tmp_path, 2), *extra)
    assert out == golden(f"verify-qcat-cone-simplex2{suffix}")


def test_cone_simplex3_kan_lifts(tmp_path, capsys):
    out = stdout_of(capsys, FAIL, "check-fibration", "--span", cone_file(tmp_path, 3),
                    "--kind", "kan", "--format", "machine", "--max-dim", "4")
    assert out == golden("check-fibration-kan-cone-simplex3")


@pytest.mark.parametrize("name", [*sorted(GALLERY), "cone-simplex2"])
def test_verify_identities_depth5(name, tmp_path, capsys):
    span_ref = cone_file(tmp_path, 2) if name == "cone-simplex2" else name
    out = stdout_of(capsys, PASS, "verify-identities", "--span", span_ref,
                    "--format", "machine", "--max-dim", "5")
    assert out == golden(f"verify-identities-{name}")


CLI_LINES = [
    "shuffle-table --k 3", "flat-sharp-table --k 4", "examples list",
    *(f"{command} --span {span} --max-dim 3"
      for command in ("stats", "build-exit", "build-exit --stats", "verify-identities",
                      "verify-qcat", "check-fibration", "check-mono")
      for span in ("broken", "point-cone")),
]


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_outputs(line, fmt, capsys):
    argv = [*line.split(), "--format", fmt]
    status = main(argv)
    recorded = json.loads(golden("cli-outputs"))[" ".join(argv)]
    assert {"status": status, "stdout": capsys.readouterr().out} == recorded


def test_cone_simplex3_depth5_statuses():
    span = cone_span(standard_simplex(3))
    report = verify_quasicategory(build_exit(span, 5), 5)
    statuses = {e.name: e.status for e in report.entries}
    assert statuses == json.loads(golden("verify-qcat-cone-simplex3-depth5-statuses"))
