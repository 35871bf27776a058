"""Document round-trips and parse diagnostics."""

import os
import random
import re

import pytest

from exitpath.construction import build_exit
from exitpath.documents import (
    ParseError,
    _check_label,
    parse_smap,
    parse_span_file,
    parse_sset,
    print_smap,
    print_span,
    print_sset,
    write_span_documents,
)
from exitpath.gallery import GALLERY, load_span
from exitpath.operators import Operator
from exitpath.simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    nondeg,
    standard_simplex,
)
from oracles import chain3, seeded_poset_spans


def same_sset(X, Y):
    assert X.name == Y.name
    assert X.gens == Y.gens
    assert X.faces == Y.faces
    assert X.notes == Y.notes


def test_sset_roundtrip():
    X = chain3()
    same_sset(X, parse_sset(print_sset(X)))


def test_sset_roundtrip_with_notes_and_spaces_in_name():
    X = SimplicialSet("two words")
    X.add_generator(0, "a", note="a vertex, annotated")
    Y = parse_sset(print_sset(X))
    assert Y.name == "two words"
    assert Y.notes["a"] == "a vertex, annotated"


def test_exit_complex_document_roundtrip():
    span = load_span("boundary-collar")
    ex = build_exit(span, 3)
    same_sset(ex, parse_sset(print_sset(ex)))


def test_smap_roundtrip():
    span = load_span("s0-defect")
    ssets = {X.name: X for X in (span.M, span.L, span.N)}
    pi = parse_smap(print_smap(span.pi), ssets)
    assert pi.name == "pi"
    assert pi.assignment == span.pi.assignment
    assert pi.domain is span.L and pi.codomain is span.M


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_span_roundtrip(name, tmp_path):
    span = load_span(name)
    path = write_span_documents(span, str(tmp_path))
    back = parse_span_file(path)
    assert back.name == span.name
    for mine, theirs in ((span.M, back.M), (span.L, back.L), (span.N, back.N)):
        assert mine.gens == theirs.gens
        assert mine.faces == theirs.faces
    assert back.pi.assignment == span.pi.assignment
    assert back.iota.assignment == span.iota.assignment
    # object sharing survives: L = N in the cone gives one shared sset
    if span.L is span.N:
        assert back.L is back.N


def test_span_name_must_be_a_plain_file_name(tmp_path):
    # the files are named after the span, and a .span document gives its
    # name; a name such as ../escape would write beside the target
    source = write_span_documents(load_span("s0-defect"), str(tmp_path / "source"))
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("span s0-defect\n")
    with open(source, "w", encoding="utf-8") as fh:
        fh.write(text.replace("span s0-defect", "span ../escape", 1))
    span = parse_span_file(source)
    before = sorted(tmp_path.rglob("*"))
    separated = [f"a{sep}b" for sep in (os.sep, os.altsep) if sep]
    for name in ["../escape", ".", "..", *separated]:
        span.name = name
        with pytest.raises(ValueError, match=rf"^span name {re.escape(repr(name))} is not a "
                                             r"plain file name$"):
            write_span_documents(span, str(tmp_path / "out" / "docs"))
    assert sorted(tmp_path.rglob("*")) == before
    for name in ("cone3", "sweep7", "..name", "a.b"):
        span.name = name
        path = write_span_documents(span, str(tmp_path / "out"))
        assert path == str(tmp_path / "out" / f"{name}.span")
        assert parse_span_file(path).name == name


def test_print_span_lists_slots():
    span = load_span("trivial")
    doc = print_span(span, {s: f"{s}.doc" for s in ("M", "L", "N", "pi", "iota")})
    assert doc.splitlines()[0] == "span trivial"
    assert "pi = pi.doc" in doc


def test_labels_unprintable():
    X = SimplicialSet("bad")
    X.add_generator(0, "a b")
    with pytest.raises(ValueError):
        print_sset(X)
    Y = SimplicialSet("with # comment")
    with pytest.raises(ValueError):
        print_sset(Y)


@pytest.mark.parametrize("label", ["a::b", "a=b", "=", "::"])
def test_labels_with_line_separators_are_unprintable(label):
    # 'gen a::b' would read back as label a with note b, and
    # 'map a=b = () c' splits at the first '='
    X = SimplicialSet("X")
    X.add_generator(0, label)
    with pytest.raises(ValueError, match="not representable"):
        print_sset(X)
    P = SimplicialSet("P")
    P.add_generator(0, "c")
    for f in (SimplicialMap("f", X, P, {label: nondeg("c", 0)}),
              SimplicialMap("g", P, X, {"c": nondeg(label, 0)})):
        with pytest.raises(ValueError, match="not representable"):
            print_smap(f)


@pytest.mark.parametrize("note", ["x # y", " pad ", "", "a\nb", "a\rb"])
def test_notes_that_would_not_read_back_are_unprintable(note):
    X = SimplicialSet("X")
    X.add_generator(0, "a", note=note)
    with pytest.raises(ValueError, match=re.escape(f"note {note!r} not representable")):
        print_sset(X)


def parse_err(text):
    with pytest.raises(ParseError) as e:
        parse_sset(text, "doc")
    return e.value


def test_parse_error_positions():
    e = parse_err("sset x\nmaxdim 0\nwat 1\n")
    assert e.lineno == 3 and "wat" in str(e)
    e = parse_err("sset x\nsset y\n")
    assert e.lineno == 2
    e = parse_err("maxdim 0\n")
    assert e.lineno == 1 and "must start" in str(e)
    e = parse_err("sset x\ngen a\n")
    assert e.lineno == 2 and "before any dim" in str(e)
    e = parse_err("sset x\nmaxdim 0\ndim 1\nface 0 = () a\n")
    assert e.lineno == 4 and "outside a generator" in str(e)


def test_parse_error_face_bookkeeping():
    base = "sset x\nmaxdim 1\ndim 0\ngen a\ndim 1\ngen e\n"
    e = parse_err(base + "face 0 = () a\n")
    assert "missing faces [1]" in str(e)
    e = parse_err(base + "face 0 = () a\nface 0 = () a\nface 1 = () a\n")
    assert "given twice" in str(e)
    e = parse_err(base + "face 0 = () a\nface 7 = () a\n")
    assert "outside 0..1" in str(e)
    e = parse_err(base + "face 0 = () a\nface 1 = (0 a\n")
    assert "unterminated" in str(e)
    e = parse_err(base + "face 0 = () a\nface 1 = (5) a\n")
    assert "bad degeneracy word" in str(e)
    e = parse_err(base + "face 0 = () a\nface 1 = () a b\n")
    assert "one label" in str(e)


def test_parse_error_descending_degeneracy_word():
    # (0 1) and (1 0) name the same surjection; only the ascending word
    # is read, so every document prints back as it was written
    doc = ("sset x\nmaxdim 3\ndim 0\ngen a\ndim 3\ngen t\n"
           "face 0 = ({}) a\nface 1 = (0 1) a\nface 2 = (0 1) a\nface 3 = (0 1) a\n")
    printed = print_sset(parse_sset(doc.format("0 1")))
    assert print_sset(parse_sset(printed)) == printed
    e = parse_err(doc.format("1 0"))
    assert e.lineno == 7 and "bad degeneracy word (1, 0)" in str(e)


@pytest.mark.parametrize("doc, old, new, lineno", [
    ("boundary-collar.N.sset", "face 0 = () 1", "face 0 = (x) 1", 8),
    ("boundary-collar.iota.smap", "map l = () 0", "map l = (x) 0", 4),
], ids=["sset", "smap"])
def test_cli_names_a_non_integer_degeneracy_word(tmp_path, capsys, doc, old, new, lineno):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("boundary-collar"), str(tmp_path))
    path = tmp_path / doc
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    assert capsys.readouterr().err.endswith(
        f"{doc}:{lineno}: bad degeneracy word (x): entries must be integers\n")


def test_parse_error_maxdim_mismatch():
    e = parse_err("sset x\nmaxdim 3\ndim 0\ngen a\n")
    assert "maxdim says 3" in str(e) and e.lineno == 2
    e = parse_err("sset x\ndim 0\ngen a\n")
    assert "missing maxdim" in str(e)


def test_parse_comments_and_blank_lines():
    X = parse_sset("# heading\nsset x\n\nmaxdim 0\ndim 0\ngen a # trailing\n")
    assert X.generators(0) == ["a"]


def test_parse_smap_errors():
    X = standard_simplex(1)
    ssets = {"simplex1": X}
    with pytest.raises(ParseError) as e:
        parse_smap("smap f\nmap 0 = () 0\n", ssets)
    assert "before domain" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_smap("smap f\ndomain nope\ncodomain simplex1\nmap 0 = () 0\n", ssets)
    assert "unknown sset" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_smap("smap f\ndomain simplex1\ncodomain simplex1\nmap zz = () 0\n", ssets)
    assert "unknown domain generator" in str(e.value)
    # a non-natural assignment is rejected when the map is assembled
    bad = ("smap f\ndomain simplex1\ncodomain simplex1\n"
           "map 0 = () 0\nmap 1 = () 1\nmap 0,1 = (0) 0\n")
    with pytest.raises(ParseError):
        parse_smap(bad, ssets)


def test_parse_span_file_errors(tmp_path):
    p = tmp_path / "broken.span"
    p.write_text("span x\nM = m.sset\n")
    with pytest.raises(ParseError) as e:
        parse_span_file(str(p))
    assert "missing slots" in str(e.value)

    q = tmp_path / "dup.span"
    (tmp_path / "one.sset").write_text("sset same\nmaxdim 0\ndim 0\ngen a\n")
    (tmp_path / "two.sset").write_text("sset same\nmaxdim 0\ndim 0\ngen a\n")
    q.write_text("span x\nM = one.sset\nL = two.sset\nN = one.sset\n"
                 "pi = p.smap\niota = i.smap\n")
    with pytest.raises(ParseError) as e:
        parse_span_file(str(q))
    # the L slot line, whose document repeats M's name
    assert "share the sset name" in str(e.value) and e.value.lineno == 3


def test_cli_names_the_line_of_an_unknown_smap_domain(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, main

    # trivial's L is empty, so its iota document has no map lines
    span_path = write_span_documents(load_span("trivial"), str(tmp_path))
    doc = tmp_path / "trivial.iota.smap"
    lines = doc.read_text().splitlines()
    assert lines[1].startswith("domain ") and not any(x.startswith("map") for x in lines)
    doc.write_text("\n".join([lines[0], "domain nope"] + lines[2:]) + "\n")
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    assert "trivial.iota.smap:2: unknown sset 'nope' as domain" in capsys.readouterr().err


def test_span_file_names_the_line_of_a_missing_document(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, main

    path = write_span_documents(load_span("trivial"), str(tmp_path))
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("N = trivial.N.sset", "N = missing.sset"))
    lineno = text.splitlines().index("N = trivial.N.sset") + 1
    with pytest.raises(ParseError) as e:
        parse_span_file(path)
    assert e.value.lineno == lineno
    assert main(["check-mono", "--span", path]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: cannot read N document 'missing.sset'" in err


@pytest.mark.parametrize("ref, where", [
    ("s0-defect.span", "s0-defect.span:1: unknown directive 'span'"),
    ("s0-defect.pi.smap", "s0-defect.pi.smap:1: unknown directive 'smap'"),
    (".", "{span}:2: cannot read M document '.'"),
], ids=["the-span-itself", "a-map-document", "a-directory"])
def test_an_m_slot_naming_another_document_is_an_input_error(tmp_path, capsys, ref, where):
    # a span file whose M names itself reads it as an sset once and is
    # refused at its first line: a reference cycle ends there
    from exitpath.cli import INPUT_ERROR, main

    path = write_span_documents(load_span("s0-defect"), str(tmp_path))
    with open(path) as fh:
        text = fh.read()
    assert text.splitlines()[1] == "M = s0-defect.M.sset"
    with open(path, "w") as fh:
        fh.write(text.replace("M = s0-defect.M.sset", f"M = {ref}"))
    assert main(["check-mono", "--span", path]) == INPUT_ERROR
    assert f"error: {where.format(span=path)}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["trivial.span", "trivial.N.sset"],
                         ids=["span-file", "referenced-document"])
def test_cli_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, name):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("trivial"), str(tmp_path))
    path = tmp_path / name
    # the span file is named as given, a document by its reference
    shown = span_path if name.endswith(".span") else name
    # CRLF line ends and a two-byte character ahead of the bad byte: lines
    # are counted as the parsers split them, the offset in bytes
    lines = [b"# caf\xc3\xa9"] + path.read_bytes().splitlines()
    head = b"\r\n".join(lines)
    # the bad byte on a line of its own, then after the text of the last line
    for bad, lineno in ((b"\r\n\xff", len(lines) + 1), (b" \xfe", len(lines))):
        path.write_bytes(head + bad + b"\r\n")
        offset = len(head) + len(bad) - 1
        with pytest.raises(ParseError) as e:
            parse_span_file(span_path)
        assert str(e.value) == (f"{shown}:{lineno}: not UTF-8: invalid start byte "
                                f"at byte offset {offset}")
        assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
        assert f"error: {e.value}" in capsys.readouterr().err


def test_parse_error_integer_headers():
    e = parse_err("sset x\nmaxdim x\ndim 0\ngen a\n")
    assert e.lineno == 2 and "maxdim needs an integer, got 'x'" in str(e)
    e = parse_err("sset x\nmaxdim 0\ndim one\ngen a\n")
    assert e.lineno == 3 and "dim needs an integer, got 'one'" in str(e)


def test_parse_error_generator_blocks():
    base = "sset x\nmaxdim 1\ndim 0\ngen a\n"
    e = parse_err(base + "dim 1\ngen e\nface 0 = () a\nface 1 = () zz\n")
    assert e.lineno == 6 and "face 1 of 'e' uses unknown generator 'zz'" in str(e)
    e = parse_err(base + "gen a\n")
    assert e.lineno == 5 and "duplicate generator 'a'" in str(e)
    edge = "gen e\nface 0 = () a\nface 1 = () a\n"
    e = parse_err(base + "dim 1\n" + edge + edge)
    assert e.lineno == 9 and "duplicate generator 'e'" in str(e)


def test_parse_error_incoherent_face_table():
    X = chain3()
    faces = X.faces["a,b,c"]
    X.faces["a,b,c"] = (faces[2],) + faces[1:]
    problems = X.audit()
    assert problems
    e = parse_err(print_sset(X))
    assert e.lineno == 1 and str(e) == "doc:1: " + "; ".join(problems)


def test_cli_names_the_document_line(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("trivial"), str(tmp_path))
    doc = tmp_path / "trivial.N.sset"
    doc.write_text(doc.read_text().replace("maxdim 2", "maxdim x"))
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    assert "trivial.N.sset:2: maxdim needs an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text, lineno, message", [
    ("sset x\nmaxdim 0\ndim 0\ngen\n", 4, "label '' not representable"),
    ("sset x\nmaxdim 0\ndim 0\ngen :: a note\n", 4, "label '' not representable"),
    ("sset x\nmaxdim 0\ndim 0\ngen a b\n", 4, "label 'a b' not representable"),
    ("sset x\nmaxdim 0\ndim 0\ngen a=b\n", 4, "label 'a=b' not representable"),
    ("sset x\nmaxdim 0\ndim 0\ngen a ::\n", 4, "note '' not representable"),
    ("# heading\nsset\nmaxdim 0\ndim 0\ngen a\n", 2, "name '' not representable"),
    ("sset x\nmaxdim 0\nmaxdim 0\ndim 0\ngen a\n", 3, "second maxdim header"),
    ("  bogus 1\nsset x\nmaxdim 0\n", 1, "unknown directive 'bogus'"),
], ids=["gen-no-label", "gen-note-no-label", "gen-two-words", "gen-equals", "gen-empty-note",
        "sset-no-name", "maxdim-twice", "unknown-first-directive"])
def test_parse_sset_rejects_what_it_cannot_print(text, lineno, message):
    e = parse_err(text)
    assert e.lineno == lineno and message in str(e)


SMAP_HEAD = "smap f\ndomain simplex1\ncodomain simplex1\n"
SMAP_BODY = "map 0 = () 0\nmap 1 = () 1\nmap 0,1 = () 0,1\n"


@pytest.mark.parametrize("text, lineno, message", [
    (SMAP_HEAD + SMAP_BODY + "map 1 = () 0\n", 7, "second map line for '1'"),
    (SMAP_HEAD + "map 0 = () 0\nmap 0 = () 1\n", 5, "second map line for '0'"),
    ("smap f\nsmap g\ndomain simplex1\ncodomain simplex1\n" + SMAP_BODY, 2,
     "second smap header"),
    (SMAP_HEAD + "domain simplex1\n" + SMAP_BODY, 4, "second domain header"),
    (SMAP_HEAD + SMAP_BODY + "codomain simplex1\n", 7, "second codomain header"),
    ("smap\ndomain simplex1\ncodomain simplex1\n" + SMAP_BODY, 1, "name '' not representable"),
], ids=["map-twice-last", "map-twice-first", "smap-twice", "domain-twice", "codomain-twice",
        "smap-no-name"])
def test_parse_smap_rejects_repeated_lines(text, lineno, message):
    ssets = {"simplex1": standard_simplex(1)}
    assert parse_smap(SMAP_HEAD + SMAP_BODY, ssets).name == "f"
    with pytest.raises(ParseError) as e:
        parse_smap(text, ssets, "f.smap")
    assert e.value.lineno == lineno and message in str(e.value)


@pytest.mark.parametrize("edit, lineno, message", [
    (lambda t: t + "span again\n", 7, "second span header"),
    (lambda t: t + "M = trivial.M.sset\n", 7, "second M line"),
    (lambda t: t.replace("iota = ", "pi = trivial.pi.smap\niota = "), 6, "second pi line"),
], ids=["span-twice", "M-twice", "pi-twice"])
def test_parse_span_file_rejects_repeated_lines(tmp_path, edit, lineno, message):
    path = write_span_documents(load_span("trivial"), str(tmp_path))
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))
    with pytest.raises(ParseError) as e:
        parse_span_file(path)
    assert e.value.lineno == lineno and message in str(e.value)


def test_cli_rejects_a_repeated_map_line(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, PASS, main

    span_path = write_span_documents(load_span("boundary-collar"), str(tmp_path))
    assert main(["check-mono", "--span", span_path]) == PASS
    doc = tmp_path / "boundary-collar.iota.smap"
    lines = doc.read_text().splitlines()
    doc.write_text("\n".join(lines + [lines[-1].replace("() 0", "() 1")]) + "\n")
    capsys.readouterr()
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert f"boundary-collar.iota.smap:{len(lines) + 1}: second map line for 'l'" in err


@pytest.mark.parametrize("image", ["zz", "0,1"], ids=["unknown-generator", "wrong-dimension"])
def test_cli_names_the_map_line_of_an_image_outside_the_codomain(tmp_path, capsys, image):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("boundary-collar"), str(tmp_path))
    doc = tmp_path / "boundary-collar.iota.smap"
    lines = doc.read_text().splitlines()
    assert lines[3].strip() == "map l = () 0"
    doc.write_text("\n".join(lines[:3] + [f"  map l = () {image}"]) + "\n")
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    assert "boundary-collar.iota.smap:4: image of 'l' not in collar" in capsys.readouterr().err


def test_cli_names_the_line_of_an_unrepresentable_label(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("boundary-collar"), str(tmp_path))
    doc = tmp_path / "boundary-collar.N.sset"
    doc.write_text(doc.read_text().replace("gen 1\n", "gen 1 x\n"))
    out = tmp_path / "ex.sset"
    assert main(["build-exit", "--span", span_path, "--out", str(out)]) == INPUT_ERROR
    assert "boundary-collar.N.sset:5: label '1 x' not representable" in capsys.readouterr().err
    assert not out.exists()


def test_cli_names_the_slot_line_of_a_map_between_the_wrong_documents(tmp_path, capsys):
    from exitpath.cli import INPUT_ERROR, main

    span_path = write_span_documents(load_span("trivial"), str(tmp_path))
    doc = tmp_path / "trivial.pi.smap"
    lines = doc.read_text().splitlines()
    assert lines[2] == "codomain emptyM"
    doc.write_text("\n".join(lines[:2] + ["codomain chain3"] + lines[3:]) + "\n")
    assert main(["check-mono", "--span", span_path]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert "trivial.span:5: pi must map the L document to the M document" in err



# -- integers, labels and repeated entries -----------------------------------------------

EDGE_DOC = ("sset x\nmaxdim {maxdim}\ndim {low}\ngen a\ndim {high}\ngen e\n"
            "face {i} = () a\nface 1 = () a\n")
TRIANGLE_DOC = ("sset x\nmaxdim 2\ndim 0\ngen a\ndim 1\ngen e\nface 0 = () a\n"
                "face 1 = () a\ndim 2\ngen t\nface 0 = () e\nface 1 = () e\n"
                "face 2 = ({word}) a\n")


def edge_doc(maxdim="1", low="0", high="1", i="0"):
    return EDGE_DOC.format(maxdim=maxdim, low=low, high=high, i=i)


@pytest.mark.parametrize("text, lineno, message", [
    (edge_doc(maxdim="0_1"), 2, "maxdim needs an integer, got '0_1'"),
    (edge_doc(maxdim="+1"), 2, "maxdim needs an integer, got '+1'"),
    (edge_doc(maxdim="\u0661"), 2, "maxdim needs an integer, got '\u0661'"),
    (edge_doc(low="+0"), 3, "dim needs an integer, got '+0'"),
    (edge_doc(low="0_0"), 3, "dim needs an integer, got '0_0'"),
    (edge_doc(high="\u0661"), 5, "dim needs an integer, got '\u0661'"),
    (edge_doc(i="0_0"), 7, "bad face index '0_0'"),
    (edge_doc(i="+0"), 7, "bad face index '+0'"),
    (edge_doc(i="\u0660"), 7, "bad face index '\u0660'"),
    (TRIANGLE_DOC.format(word="0_0"), 13, "bad degeneracy word (0_0): entries must be integers"),
    (TRIANGLE_DOC.format(word="+0"), 13, "bad degeneracy word (+0): entries must be integers"),
    (TRIANGLE_DOC.format(word="\u0660"), 13,
     "bad degeneracy word (\u0660): entries must be integers"),
    (edge_doc(low="-1"), 3, "negative dimension"),
    (edge_doc(maxdim="01"), 2, "maxdim needs an integer, got '01'"),
    (edge_doc(low="-0"), 3, "dim needs an integer, got '-0'"),
    (edge_doc(high="001"), 5, "dim needs an integer, got '001'"),
    (edge_doc(i="00"), 7, "bad face index '00'"),
    (TRIANGLE_DOC.format(word="01"), 13, "bad degeneracy word (01): entries must be integers"),
], ids=["maxdim-underscore", "maxdim-plus", "maxdim-arabic-indic", "dim-plus",
        "dim-underscore", "dim-arabic-indic", "face-underscore", "face-plus",
        "face-arabic-indic", "word-underscore", "word-plus", "word-arabic-indic",
        "dim-negative", "maxdim-leading-zero", "dim-minus-zero", "dim-leading-zeros",
        "face-leading-zero", "word-leading-zero"])
def test_integers_are_plain_decimal(text, lineno, message):
    # int() reads each of these spellings, and the printer would write
    # back a different one; a canonical negative is out of range instead
    e = parse_err(text)
    assert e.lineno == lineno and str(e) == f"doc:{lineno}: {message}"


def test_plain_decimal_documents_parse():
    assert parse_sset(edge_doc()).generators(1) == ["e"]
    X = parse_sset(TRIANGLE_DOC.format(word="0"))
    assert print_sset(X) == print_sset(parse_sset(print_sset(X)))


def per_character_label_rule(label):
    """_check_label's rule as first written, one character at a time."""
    return bool(label) and "::" not in label and \
        not any(c in "()#=" or c.isspace() for c in label)


def label_accepted(label):
    try:
        _check_label(label)
    except ValueError:
        return False
    return True


def test_check_label_agrees_with_the_per_character_rule():
    disagree = [hex(cp) for cp in range(0x110000)
                if label_accepted(chr(cp)) != per_character_label_rule(chr(cp))]
    assert disagree == []
    for label in ["", ":", "::", "a::b", ":a:", "a:b:c", "a:::", "a b", "a\u2028b", "ab"]:
        assert label_accepted(label) == per_character_label_rule(label), label


def test_a_bad_entry_is_reported_at_its_first_line():
    doc = ("sset x\nmaxdim 2\ndim 0\ngen a\ndim 1\ngen e\nface 0 = (0) a\n"
           "face 1 = (0) a\n")
    e = parse_err(doc)
    assert e.lineno == 7 and "bad degeneracy word (0,) for [0]" in str(e)
    # the same bad word under another label
    doc = ("sset x\nmaxdim 1\ndim 0\ngen a\ngen b\ndim 1\ngen e\nface 0 = (0) b\n"
           "face 1 = (0) a\n")
    e = parse_err(doc)
    assert str(e) == "doc:8: bad degeneracy word (0,) for [0]"


def test_an_entry_with_no_label_is_reported_after_its_word_was_read():
    # "(0)" is the text of a word already read at this dimension, but
    # an entry needs a label after it
    doc = ("sset x\nmaxdim 2\ndim 0\ngen a\ndim 2\ngen t\nface 0 = (0) a\n"
           "face 1 =(0)\nface 2 = (0) a\n")
    e = parse_err(doc)
    assert str(e) == "doc:8: expected one label after the word, got []"
    ssets = {"simplex2": standard_simplex(2)}
    doc = ("smap f\ndomain simplex2\ncodomain simplex2\nmap 0,1 = (0) 0\n"
           "map 0,2 =(0)\n")
    with pytest.raises(ParseError) as e:
        parse_smap(doc, ssets, "f.smap")
    assert str(e.value) == "f.smap:5: expected one label after the word, got []"


def test_a_repeated_entry_parses_to_equal_simplices():
    doc = ("sset x\nmaxdim 2\ndim 0\ngen a\ngen b\ndim 1\ngen e\nface 0 = () a\n"
           "face 1 = () a\ngen f\nface 0 = () b\nface 1 = () b\ndim 2\ngen t\n"
           "face 0 = (0) a\nface 1 = (0) a\nface 2 = (0) a\ngen u\nface 0 = () e\n"
           "face 1 = () e\nface 2 = (0) a\ngen v\nface 0 = (0) b\nface 1 = (0) b\n"
           "face 2 = (0) b\n")
    X = parse_sset(doc)
    degenerate = X.faces["t"][0]
    assert degenerate == FormalSimplex("a", Operator(1, 0, (0, 0)))
    assert list(X.faces["t"]) == [degenerate] * 3
    assert X.faces["u"][2] == degenerate
    assert X.faces["e"][0] == X.faces["e"][1] == nondeg("a", 0)
    # one word at one dimension is one values tuple, whatever its label
    assert X.faces["v"][0].values is degenerate.values
    assert X.faces["f"][0].values is X.faces["e"][0].values


def test_a_repeated_entry_text_is_read_again_at_another_dimension():
    # "(0) a" is s_0 a in dimension 1, and in dimension 2 a degenerate
    # edge on a generator that is a vertex
    doc = ("sset x\nmaxdim 3\ndim 0\ngen a\ndim 2\ngen t\nface 0 = (0) a\nface 1 = (0) a\n"
           "face 2 = (0) a\ndim 3\ngen T\nface 0 = (0) a\nface 1 = () t\nface 2 = () t\n"
           "face 3 = () t\n")
    e = parse_err(doc)
    assert e.lineno == 11 and str(e) == "doc:11: face 0 of 'T': 'a' has wrong dimension"


# -- every reader error with its exact position -------------------------------------------


def reader_error(kind, text, tmp_path):
    """The ParseError of reading text as a document of this kind; a
    span document is read from a file in tmp_path."""
    ssets = {"simplex1": standard_simplex(1)}
    with pytest.raises(ParseError) as e:
        if kind == "sset":
            parse_sset(text, "doc")
        elif kind == "smap":
            parse_smap(text, ssets, "doc")
        else:
            path = tmp_path / "doc"
            path.write_text(text)
            parse_span_file(str(path))
    return e.value


@pytest.mark.parametrize("kind, text, lineno, message", [
    ("sset", "", 1, "empty document"),
    ("sset", "# only a comment\n\n", 1, "empty document"),
    ("sset", "sset x\nmaxdim 1\ndim 0\ngen a\ndim 1\ngen e\nface 0 = a\n", 7,
     "expected '(word) label', got 'a'"),
    ("smap", "smap f\ndomain simplex1\ncodomain simplex1\nmap 0 = 0\n", 4,
     "expected '(word) label', got '0'"),
    ("span", "span x\nM m.sset\n", 2, "expected 'M = <path>'"),
    ("span", "span x\nM = m.sset\niota i = i.smap\n", 3, "expected 'iota = <path>'"),
    ("sset", "sset x\nmaxdim 1\ndim 0\ngen a\ndim 1\ngen e\nface 0 () a\n", 7,
     "face line needs '='"),
    ("smap", "smap f\ndomain simplex1\nmap 0 = () 0\n", 3, "map line before domain/codomain"),
    ("smap", "smap f\ncodomain simplex1\nmap 0 = () 0\n", 3, "map line before domain/codomain"),
    ("smap", "smap f\ndomain simplex1\ncodomain simplex1\nmap 0 () 0\n", 4,
     "map line needs '='"),
    ("smap", "", 1, "missing smap/domain/codomain header"),
    ("smap", "domain simplex1\ncodomain simplex1\n", 1, "missing smap/domain/codomain header"),
    ("smap", "smap f\ndomain simplex1\n", 1, "missing smap/domain/codomain header"),
    ("span", "", 1, "missing span header"),
    ("span", "M = m.sset\nL = m.sset\nN = m.sset\npi = p.smap\niota = i.smap\n", 1,
     "missing span header"),
    ("span", "span\n", 1, "name '' not representable in documents"),
], ids=["sset-empty", "sset-comment-only", "face-no-word", "map-no-word", "span-slot-no-equals",
        "span-slot-two-words", "face-no-equals", "map-before-codomain", "map-before-domain",
        "map-no-equals", "smap-empty", "smap-no-name", "smap-no-codomain", "span-empty",
        "span-no-name", "span-empty-name"])
def test_reader_errors_name_their_line(tmp_path, kind, text, lineno, message):
    e = reader_error(kind, text, tmp_path)
    assert e.lineno == lineno and str(e) == f"{e.path}:{lineno}: {message}"
    assert e.path == (str(tmp_path / "doc") if kind == "span" else "doc")


# -- round trips on the seeded family --------------------------------------------------------


def test_seeded_spans_round_trip(tmp_path):
    for span in seeded_poset_spans(random.Random(29), 30):
        back = parse_span_file(write_span_documents(span, str(tmp_path / span.name)))
        for mine, theirs in ((span.M, back.M), (span.L, back.L), (span.N, back.N)):
            same_sset(mine, theirs)
        assert back.pi.assignment == span.pi.assignment
        assert back.iota.assignment == span.iota.assignment
        doc = print_sset(build_exit(span, 3))
        assert print_sset(parse_sset(doc)) == doc, span.name


def test_unshared_face_entries_print_like_shared_ones():
    # the printer renders an entry once per object; equal entries that
    # are distinct objects must print the same bytes as one shared entry
    shared = build_exit(load_span("boundary-collar"), 3)
    twin = SimplicialSet(shared.name)
    for label in shared.generators():
        d = shared.gen_dims[label]
        faces = [FormalSimplex(f.gen, Operator(f.dim, f.gen_dim, f.values))
                 for f in shared.faces[label]] if d else None
        twin.add_generator(d, label, faces, shared.notes.get(label))
    entries = [f for faces in shared.faces.values() for f in faces]
    assert len({id(f) for f in entries}) < len(entries)
    assert len({id(f) for faces in twin.faces.values() for f in faces}) == len(entries)
    assert print_sset(twin) == print_sset(shared)
