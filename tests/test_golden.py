"""Byte-for-byte `build-exit` documents of the gallery spans and of cone(Δ^2).

Each file under golden/ is the stdout of
`exitpath build-exit --span <span> --format machine --max-dim 4`,
recorded before exit-path membership was read from front faces;
any change to the construction that moves a generator, a face entry
or a note shows here as a byte difference.
"""

import os

import pytest

from exitpath.cli import PASS, main
from exitpath.documents import write_span_documents
from exitpath.gallery import GALLERY, cone_span
from exitpath.simplicial import standard_simplex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, f"build-exit-{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def build_exit_stdout(capsys, span_ref):
    code = main(["build-exit", "--span", span_ref, "--format", "machine", "--max-dim", "4"])
    assert code == PASS
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_exit_documents(name, capsys):
    assert build_exit_stdout(capsys, name) == golden(name)


def test_cone_simplex2_exit_document(tmp_path, capsys):
    span_path = write_span_documents(cone_span(standard_simplex(2)), str(tmp_path))
    assert build_exit_stdout(capsys, span_path) == golden("cone-simplex2")
