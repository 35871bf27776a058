"""Plain-text documents for simplicial sets, maps, and spans.

One document per object.  The grammar is line-oriented; indentation is
cosmetic, comments run from '#' to end of line, labels are any
whitespace-free tokens without '(', ')', '#', '=' or '::'.  Degeneracy data is
written as the word of codegeneracy indices (ascending repeat
positions), '()' for nondegenerate.

    sset <name>
    maxdim <d>
    dim <k>
    gen <label> [:: <annotation...>]
    face <i> = (<i1> <i2> ...) <label>

    smap <name>
    domain <sset-name>
    codomain <sset-name>
    map <label> = (<word>) <label>

    span <name>
    M = <relative-path>          (likewise L, N, pi, iota)

Documents are UTF-8; parse_span_file refuses a file that is not with a
ParseError at the line of its first bad byte.  print_* and parse_*
round-trip exactly; parse errors carry line numbers.
_directives reads the lines of all three kinds, refusing an unknown or
repeated once-only key, and each parse function takes them in one loop,
the line that repeats most (face, map) first.  The reader keeps its
memos per document: parse_sset's face index text -> index and notes
already checked, and _parse_entry's (entry text, dimension) -> entry and
(word text, dimension) -> surjection; so it validates each word once per
dimension, builds each entry once and checks each distinct note once.
print_sset keeps its memos per call: id(entry) -> '(word) label', and
the notes already checked.
"""

from __future__ import annotations

import os
import re

from .construction import LinkedSpan
from .operators import Operator, degeneracy_word_values, surjection_from_word
from .simplicial import FormalSimplex, SimplicialMap, SimplicialSet


class ParseError(ValueError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


# '=' and '::' separate the parts of map and gen lines; on every code
# point \s agrees with str.isspace
_LABEL_BAD = re.compile(r"[()#=\s]|::")
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_SLOTS = ("M", "L", "N", "pi", "iota")


def _check_label(label: str):
    if not label or _LABEL_BAD.search(label):
        raise ValueError(f"label {label!r} not representable in documents")


def _integer(text: str) -> int | None:
    """text as an integer if it is one in canonical ASCII decimal: no
    leading zero, and '-' only before a nonzero number; else None.
    int() also takes '+', '_', '-0', leading zeros and other scripts'
    digits, which would not print back as written."""
    return int(text) if _INTEGER.fullmatch(text) else None


def _check_name(name: str, noun: str = "name"):
    # names and notes are rest-of-line tokens, read back stripped: not
    # empty, no comment, no line break (splitlines' sense) and no
    # whitespace at either end
    if name != name.strip() or "#" in name or name.splitlines() != [name]:
        raise ValueError(f"{noun} {name!r} not representable in documents")


def _entry_str(s: FormalSimplex) -> str:
    """'(word) label', the word read off the values."""
    word = " ".join(map(str, degeneracy_word_values(s.values)))
    return f"({word}) {s.gen}"


# -- printing ---------------------------------------------------------------


def print_sset(X: SimplicialSet) -> str:
    _check_name(X.name)
    lines = [f"sset {X.name}", f"maxdim {X.max_gen_dim}"]
    faces = X.faces
    # id(entry) -> '(word) label': every entry stays in X.faces for the
    # whole call, so no id is reused, and equal entries that are
    # distinct objects are each rendered once
    texts: dict[int, str] = {}
    notes: set[str] = set()  # the notes already checked
    for d in sorted(X.gens):
        lines.append(f"dim {d}")
        for g in X.gens[d]:
            _check_label(g)
            note = X.notes.get(g)
            if note is None:
                lines.append(f"  gen {g}")
            else:
                if note not in notes:
                    _check_name(note, "note")
                    notes.add(note)
                lines.append(f"  gen {g} :: {note}")
            for i, f in enumerate(faces[g]):
                text = texts.get(id(f))
                if text is None:
                    text = texts[id(f)] = _entry_str(f)
                lines.append(f"    face {i} = {text}")
    return "\n".join(lines) + "\n"


def print_smap(f: SimplicialMap) -> str:
    for name in (f.name, f.domain.name, f.codomain.name):
        _check_name(name)
    lines = [f"smap {f.name}", f"domain {f.domain.name}", f"codomain {f.codomain.name}"]
    for g in f.domain.generators():
        _check_label(g)
        _check_label(f.assignment[g].gen)
        lines.append(f"  map {g} = {_entry_str(f.assignment[g])}")
    return "\n".join(lines) + "\n"


def print_span(span: LinkedSpan, paths: dict[str, str]) -> str:
    """paths maps the five slots M, L, N, pi, iota to relative paths."""
    _check_name(span.name)
    lines = [f"span {span.name}"]
    for slot in _SLOTS:
        lines.append(f"{slot} = {paths[slot]}")
    return "\n".join(lines) + "\n"


# -- parsing ----------------------------------------------------------------


_SSET_GRAMMAR = {"sset": "header", "maxdim": "header", "dim": None, "gen": None,
                 "face": None}
_SMAP_GRAMMAR = {"smap": "header", "domain": "header", "codomain": "header", "map": None}
_SPAN_GRAMMAR = {"span": "header", **dict.fromkeys(_SLOTS, "line")}


def _directives(text: str, path: str, grammar: dict[str, str | None]):
    """(lineno, key, rest) for each line that holds more than a comment,
    rest stripped.  grammar maps each allowed key to the noun of a
    once-only directive ('header', 'line'), or to None for a key that
    may repeat; an unknown key or a second once-only key is refused."""
    seen: set[str] = set()  # the once-only keys read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # split skips leading blanks, so no line is stripped whole
        parts = raw.partition("#")[0].split(None, 1)
        if not parts:
            continue
        key = parts[0]
        if key not in grammar:
            raise ParseError(path, lineno, f"unknown directive {key!r}")
        noun = grammar[key]
        if noun is not None:
            if key in seen:
                raise ParseError(path, lineno, f"second {key} {noun}")
            seen.add(key)
        yield lineno, key, parts[1].rstrip() if len(parts) > 1 else ""


def _parse_entry(text: str, path: str, lineno: int, dim: int,
                 entries: dict[tuple[str, int], FormalSimplex],
                 words: dict[tuple[str, int], Operator]) -> FormalSimplex:
    """The entry '(word) label' of dimension dim.  entries maps (text,
    dim) to the entries one document has read so far, and words maps
    (word text, dim), the word with its parentheses, to its surjection,
    so one document builds each entry once and validates each word once
    per dimension.  A bad word is never stored, so it is reported at the
    first line that holds it: the caller reports the ValueError of
    surjection_from_word at lineno."""
    hit = entries.get((text, dim))
    if hit is not None:
        return hit
    rest = text.strip()
    if not rest.startswith("("):
        raise ParseError(path, lineno, f"expected '(word) label', got {rest!r}")
    close = rest.find(")")
    if close < 0:
        raise ParseError(path, lineno, "unterminated degeneracy word")
    word_text = rest[:close + 1]
    tail = rest[close + 1:].split()
    if len(tail) != 1:
        raise ParseError(path, lineno, f"expected one label after the word, got {tail}")
    op = words.get((word_text, dim))
    if op is None:
        word = tuple(map(_integer, word_text[1:-1].split()))
        if None in word:
            raise ParseError(path, lineno, f"bad degeneracy word {word_text}: "
                                           "entries must be integers")
        op = words[(word_text, dim)] = surjection_from_word(dim, word)
    hit = entries[(text, dim)] = FormalSimplex(tail[0], op)
    return hit


def _header_integer(path: str, lineno: int, key: str, rest: str) -> int:
    value = _integer(rest)
    if value is None:
        raise ParseError(path, lineno, f"{key} needs an integer, got {rest!r}")
    return value


def _add_block(X: SimplicialSet, path: str, gen_line: int, dim: int, label: str,
               faces: list[FormalSimplex | None], note: str | None):
    """Add the generator of a block once its face lines are read; its
    gen line answers for a missing face, a duplicate label or a bad face."""
    missing = [i for i, f in enumerate(faces) if f is None]
    if missing:
        raise ParseError(path, gen_line, f"generator {label!r} missing faces {missing}")
    try:
        X.add_generator(dim, label, faces, note)
    except ValueError as e:
        raise ParseError(path, gen_line, str(e)) from None


def parse_sset(text: str, path: str = "<sset>") -> SimplicialSet:
    X: SimplicialSet | None = None
    maxdim: int | None = None
    maxdim_line = 1
    cur_dim: int | None = None
    # the open generator block, of dimension cur_dim: its label, note,
    # gen line and the faces read so far; faces is None outside a block
    label: str | None = None
    note: str | None = None
    gen_line = 1
    faces: list[FormalSimplex | None] | None = None
    indices: dict[str, int] = {}  # face index text -> index
    entries: dict[tuple[str, int], FormalSimplex] = {}
    words: dict[tuple[str, int], Operator] = {}
    notes: set[str] = set()  # the notes already checked
    at = 1  # the line a ValueError from the model is reported at

    try:
        for lineno, key, rest in _directives(text, path, _SSET_GRAMMAR):
            at = lineno
            if key == "face":
                if faces is None:
                    raise ParseError(path, lineno, "face line outside a generator block"
                                     if X is not None else
                                     "document must start with 'sset <name>'")
                index_text, eq, entry_text = rest.partition("=")
                if not eq:
                    raise ParseError(path, lineno, "face line needs '='")
                i = indices.get(index_text)
                if i is None:
                    i = _integer(index_text.strip())
                    if i is None:
                        raise ParseError(path, lineno,
                                         f"bad face index {index_text.strip()!r}")
                    indices[index_text] = i
                if not 0 <= i <= cur_dim:
                    raise ParseError(path, lineno, f"face index {i} outside 0..{cur_dim}")
                if faces[i] is not None:
                    raise ParseError(path, lineno, f"face {i} of {label!r} given twice")
                faces[i] = _parse_entry(entry_text, path, lineno, cur_dim - 1, entries, words)
                continue
            if key == "sset":
                _check_name(rest)
                X = SimplicialSet(rest)
                continue
            if X is None:
                raise ParseError(path, lineno, "document must start with 'sset <name>'")
            if key == "maxdim":
                maxdim, maxdim_line = _header_integer(path, lineno, key, rest), lineno
                continue
            if faces is not None:
                _add_block(X, path, gen_line, cur_dim, label, faces, note)
                faces = None
            if key == "dim":
                cur_dim = _header_integer(path, lineno, key, rest)
                if cur_dim < 0:
                    raise ParseError(path, lineno, "negative dimension")
                continue
            if cur_dim is None:
                raise ParseError(path, lineno, "gen before any dim header")
            if "::" in rest:
                label, note = rest.split("::", 1)
                label, note = label.strip(), note.strip()
            else:
                label, note = rest.strip(), None
            _check_label(label)
            if note is not None and note not in notes:
                _check_name(note, "note")
                notes.add(note)
            if cur_dim == 0:
                X.add_generator(0, label, None, note)
            else:
                faces, gen_line = [None] * (cur_dim + 1), lineno
        if X is None:
            raise ParseError(path, 1, "empty document")
        if faces is not None:
            _add_block(X, path, gen_line, cur_dim, label, faces, note)
        if maxdim is None:
            raise ParseError(path, 1, "missing maxdim header")
        if maxdim != X.max_gen_dim:
            raise ParseError(path, maxdim_line,
                             f"maxdim says {maxdim} but generators reach {X.max_gen_dim}")
        at = 1
        X.assert_coherent()
    except ParseError:
        raise
    except ValueError as e:
        raise ParseError(path, at, str(e)) from None
    return X


def parse_smap(text: str, ssets: dict[str, SimplicialSet],
               path: str = "<smap>") -> SimplicialMap:
    head: dict[str, str] = {}
    # the domain and codomain, resolved at their header lines
    dom: SimplicialSet | None = None
    cod: SimplicialSet | None = None
    assignment: dict[str, FormalSimplex] = {}
    entries: dict[tuple[str, int], FormalSimplex] = {}
    words: dict[tuple[str, int], Operator] = {}
    at = 1  # the line a ValueError from the model is reported at
    try:
        for lineno, key, rest in _directives(text, path, _SMAP_GRAMMAR):
            at = lineno
            if key == "map":
                if dom is None or cod is None:
                    raise ParseError(path, lineno, "map line before domain/codomain")
                g, eq, entry_text = rest.partition("=")
                if not eq:
                    raise ParseError(path, lineno, "map line needs '='")
                g = g.strip()
                d = dom.gen_dims.get(g)
                if d is None:
                    raise ParseError(path, lineno, f"unknown domain generator {g!r}")
                if g in assignment:
                    raise ParseError(path, lineno, f"second map line for {g!r}")
                image = assignment[g] = _parse_entry(entry_text, path, lineno, d, entries,
                                                     words)
                if not cod.has_simplex(image):
                    raise ParseError(path, lineno,
                                     f"image of {g!r} not in {head['codomain']}")
                continue
            _check_name(rest)
            if key != "smap":
                if rest not in ssets:
                    raise ParseError(path, lineno, f"unknown sset {rest!r} as {key}")
                if key == "domain":
                    dom = ssets[rest]
                else:
                    cod = ssets[rest]
            head[key] = rest
        if len(head) < 3:
            raise ParseError(path, 1, "missing smap/domain/codomain header")
        at = 1
        return SimplicialMap(head["smap"], dom, cod, assignment)
    except ParseError:
        raise
    except ValueError as e:
        raise ParseError(path, at, str(e)) from None


def _read_text(path: str, shown: str) -> str:
    """The text of the file at path, decoded as UTF-8.  A file that is
    not UTF-8 is refused by a ParseError that names it as shown, at the
    line of its first bad byte."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            # read() decodes the whole file in one call, so e.object holds
            # every byte of it and e.start is the offset of the first bad
            # one; the parsers' splitlines counts the line it starts or
            # continues once the text before it ends in a character
            head = e.object[:e.start].decode("utf-8")
            raise ParseError(shown, len((head + "x").splitlines()),
                             f"not UTF-8: {e.reason} at byte offset {e.start}") from None


def parse_span_file(path: str) -> LinkedSpan:
    """Read a span document and the five documents it references."""
    text = _read_text(path, path)
    name = None
    slots: dict[str, tuple[str, int]] = {}
    for lineno, key, rest in _directives(text, path, _SPAN_GRAMMAR):
        if key == "span":
            try:
                _check_name(rest)
            except ValueError as e:
                raise ParseError(path, lineno, str(e)) from None
            name = rest
            continue
        lhs, eq, ref = rest.partition("=")
        if not eq or lhs.strip():
            raise ParseError(path, lineno, f"expected '{key} = <path>'")
        slots[key] = (ref.strip(), lineno)
    if name is None:
        raise ParseError(path, 1, "missing span header")
    missing = [k for k in _SLOTS if k not in slots]
    if missing:
        raise ParseError(path, 1, f"span document missing slots {missing}")
    base = os.path.dirname(os.path.abspath(path))

    def read(slot: str) -> str:
        ref, lineno = slots[slot]
        try:
            return _read_text(os.path.join(base, ref), ref)
        except OSError as e:
            raise ParseError(path, lineno,
                             f"cannot read {slot} document {ref!r}: {e.strerror}") from None

    ssets: dict[str, SimplicialSet] = {}
    cache: dict[str, SimplicialSet] = {}
    for slot in ("M", "L", "N"):
        ref, lineno = slots[slot]
        if ref not in cache:
            X = parse_sset(read(slot), ref)
            if X.name in ssets:
                raise ParseError(path, lineno,
                                 f"two distinct documents share the sset name {X.name!r}")
            ssets[X.name] = cache[ref] = X
    M, L, N = (cache[slots[slot][0]] for slot in ("M", "L", "N"))
    pi = parse_smap(read("pi"), ssets, slots["pi"][0])
    iota = parse_smap(read("iota"), ssets, slots["iota"][0])
    for slot, f, letter, target in (("pi", pi, "M", M), ("iota", iota, "N", N)):
        if f.domain is not L or f.codomain is not target:
            raise ParseError(path, slots[slot][1],
                             f"{slot} must map the L document to the {letter} document")
    return LinkedSpan(name, M, L, N, pi, iota)


def write_span_documents(span: LinkedSpan, directory: str) -> str:
    """Write the documents for a span; returns the span file path.

    Slots referring to the same object (a span with L = N, say) share
    one file so the reader reconstructs the sharing.  The file names
    start with the span's name, which must be a plain file name."""
    prefix = span.name
    if prefix in (".", "..") or any(sep and sep in prefix for sep in (os.sep, os.altsep)):
        raise ValueError(f"span name {prefix!r} is not a plain file name")
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, str] = {}
    seen: dict[int, str] = {}
    for slot, obj, content in (("M", span.M, None), ("L", span.L, None),
                               ("N", span.N, None),
                               ("pi", span.pi, print_smap(span.pi)),
                               ("iota", span.iota, print_smap(span.iota))):
        if id(obj) in seen:
            paths[slot] = seen[id(obj)]
            continue
        fname = f"{prefix}.{slot}." + ("smap" if content else "sset")
        body = content if content else print_sset(obj)
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(body)
        paths[slot] = fname
        seen[id(obj)] = fname
    span_path = os.path.join(directory, f"{prefix}.span")
    with open(span_path, "w", encoding="utf-8") as fh:
        fh.write(print_span(span, paths))
    return span_path
