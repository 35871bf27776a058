"""Seeded mutation fuzz of the document parsers.

Each case emits a gallery span's documents, breaks one file in one
way, and reads the span back.  The reader must either return a span or
raise ParseError at a line that exists in the file it names; any other
exception is a parser bug.  Each span's cases come from one seeded
random.Random, so a failure reproduces exactly.

The same mutations then go through the span commands of the CLI, which
must end with an exit status, never an exception: a document the
reader refuses is an input error (2), and one it accepts is checked.

Wrong face counts are also built on purpose, on every face line of
every emitted .sset document and exit complex document, and each must
be refused with its own message at its own line.
"""

import contextlib
import os
import random

import pytest

from exitpath.cli import EXHAUSTED, FAIL, INPUT_ERROR, PASS, main
from exitpath.construction import build_exit
from exitpath.documents import (
    ParseError,
    parse_span_file,
    parse_sset,
    print_sset,
    write_span_documents,
)
from exitpath.gallery import GALLERY, load_span

# directive keys of the three grammars, and words no grammar accepts
KEYS = ["sset", "maxdim", "dim", "gen", "face", "smap", "domain", "codomain", "map",
        "span", "M", "L", "N", "pi", "iota"]
BAD_WORDS = ["(9)", "(0 0)", "(", ")", "()", "=", "::", "-1", "x", "9", "0"]


def _sset_names(docs: dict[str, str]) -> list[str]:
    return sorted(text.split("\n", 1)[0].split(None, 1)[1]
                  for fname, text in docs.items() if fname.endswith(".sset"))


def mutate(text: str, rng: random.Random, words: list[str]) -> str:
    """text with one line deleted, duplicated, truncated, given a swapped
    token or a junk neighbour, or with the whole file cut short."""
    lines = text.splitlines()
    kind = rng.randrange(6)
    if kind == 5 or not lines:
        return text[:rng.randrange(len(text) + 1)]
    at = rng.randrange(len(lines))
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[at])
    elif kind == 2:
        lines[at] = lines[at][:rng.randrange(len(lines[at]) + 1)]
    elif kind == 3:
        tokens = lines[at].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(words)
        lines[at] = " ".join(tokens)
    else:
        junk = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 4)))
        lines.insert(at, junk)
    return "\n".join(lines) + "\n"


def emitted(name: str, directory: str) -> tuple[str, dict[str, str]]:
    """The span file path and the text of every document it names."""
    span_path = write_span_documents(load_span(name), directory)
    docs = {}
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), encoding="utf-8") as fh:
            docs[fname] = fh.read()
    return span_path, docs


@contextlib.contextmanager
def mutated(span_path: str, docs: dict[str, str], rng: random.Random):
    """Mutate one document in place, yield the texts now on disk, restore."""
    directory = os.path.dirname(span_path)
    fname = rng.choice(sorted(docs))
    texts = dict(docs)
    texts[fname] = mutate(docs[fname], rng, KEYS + BAD_WORDS + _sset_names(docs))
    target = os.path.join(directory, fname)
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(texts[fname])
    try:
        yield texts
    finally:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(docs[fname])


def run_case(span_path: str, docs: dict[str, str], rng: random.Random):
    """Parse the span with one document mutated.

    Returns the span or the ParseError, and the texts that were read."""
    with mutated(span_path, docs, rng) as texts:
        try:
            return parse_span_file(span_path), texts
        except ParseError as e:
            return e, texts


CASES_PER_SPAN = 200


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_mutated_documents_parse_or_name_a_real_line(name, tmp_path):
    span_path, docs = emitted(name, str(tmp_path))
    rng = random.Random(f"documents-fuzz-{name}")
    outcomes = {"span": 0, "error": 0}
    for _ in range(CASES_PER_SPAN):
        result, texts = run_case(span_path, docs, rng)
        if isinstance(result, ParseError):
            outcomes["error"] += 1
            # slot documents are named by their path relative to the span file
            lines = texts[os.path.basename(result.path)].splitlines()
            assert 1 <= result.lineno <= max(1, len(lines)), str(result)
        else:
            outcomes["span"] += 1
    # the mutations reach both outcomes, so neither branch is vacuous
    assert outcomes["error"] > 0


CLI_COMMANDS = [["check-mono"], ["build-exit", "--stats"], ["verify-identities"],
                ["verify-qcat"], ["check-fibration", "--kind", "kan"]]
CLI_CASES_PER_SPAN = 40


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_mutated_documents_through_the_cli(name, tmp_path):
    span_path, docs = emitted(name, str(tmp_path))
    rng = random.Random(f"cli-fuzz-{name}")
    statuses = set()
    for _ in range(CLI_CASES_PER_SPAN):
        with mutated(span_path, docs, rng):
            for command in CLI_COMMANDS:
                statuses.add(main([*command, "--span", span_path, "--max-dim", "2"]))
    assert statuses <= {PASS, FAIL, INPUT_ERROR, EXHAUSTED}, statuses


def wrong_face_counts(lines: list[str]):
    """(lines, line number, message) of each wrong face count built from
    a printed .sset document: each face line i of each generator of
    dimension d >= 1 deleted, repeated, renumbered d + 1, or copied to
    right after its block's dim header."""
    for at, line in enumerate(lines):
        key, _, rest = line.strip().partition(" ")
        if key == "dim":
            header, d = at, int(rest)
        if key != "gen" or d == 0:
            continue
        label = rest.split("::")[0].strip()
        for i in range(d + 1):
            face = at + 1 + i
            assert lines[face].strip().startswith(f"face {i} = ")
            renumbered = lines[face].replace(f"face {i} =", f"face {d + 1} =")
            yield (lines[:face] + lines[face + 1:], at + 1,
                   f"generator {label!r} missing faces [{i}]")
            yield lines[:face + 1] + lines[face:], face + 2, f"face {i} of {label!r} given twice"
            yield (lines[:face] + [renumbered] + lines[face + 1:], face + 1,
                   f"face index {d + 1} outside 0..{d}")
            yield (lines[:header + 1] + [lines[face]] + lines[header + 1:], header + 2,
                   "face line outside a generator block")


def test_wrong_face_counts_are_refused_at_their_line(tmp_path):
    documents = []
    for name in sorted(GALLERY):
        _, docs = emitted(name, str(tmp_path / name))
        documents += [(fname, text) for fname, text in docs.items() if fname.endswith(".sset")]
        documents.append((f"{name}.Ex.sset", print_sset(build_exit(load_span(name), 3))))
    cases = 0
    for fname, text in documents:
        for lines, lineno, message in wrong_face_counts(text.splitlines()):
            with pytest.raises(ParseError) as e:
                parse_sset("\n".join(lines) + "\n", fname)
            assert str(e.value) == f"{fname}:{lineno}: {message}"
            cases += 1
    assert cases > 0
