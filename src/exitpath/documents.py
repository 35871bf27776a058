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

print_* and parse_* round-trip exactly; parse errors carry line numbers.
"""

from __future__ import annotations

import os
import re

from .construction import LinkedSpan
from .operators import degeneracy_word_values, surjection_from_word
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


def _at_line(path: str, lineno: int, call, *args):
    """call(*args), with a ValueError from the model reported at lineno."""
    try:
        return call(*args)
    except ValueError as e:
        raise ParseError(path, lineno, str(e)) from None


def _entry_str(s: FormalSimplex) -> str:
    """'(word) label', the word read off the values."""
    word = " ".join(map(str, degeneracy_word_values(s.degeneracy.values)))
    return f"({word}) {s.gen}"


# -- printing ---------------------------------------------------------------


def print_sset(X: SimplicialSet) -> str:
    _check_name(X.name)
    lines = [f"sset {X.name}", f"maxdim {X.max_gen_dim}"]
    for d in sorted(X.gens):
        lines.append(f"dim {d}")
        for g in X.gens[d]:
            _check_label(g)
            note = X.notes.get(g)
            if note is not None:
                _check_name(note, "note")
            lines.append(f"  gen {g}" + (f" :: {note}" if note is not None else ""))
            for i in range(d + 1) if d >= 1 else []:
                lines.append(f"    face {i} = {_entry_str(X.face_table[(g, i)])}")
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
    """(lineno, key, rest) for each line left once comments are stripped.

    grammar maps each allowed key to the noun of a once-only directive
    ('header', 'line'), or to None for a key that may repeat."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        if key not in grammar:
            raise ParseError(path, lineno, f"unknown directive {key!r}")
        noun = grammar[key]
        if noun is not None:
            if key in seen:
                raise ParseError(path, lineno, f"second {key} {noun}")
            seen.add(key)
        yield lineno, key, (parts[1] if len(parts) > 1 else "")


def _parse_entry(text: str, path: str, lineno: int, dim: int,
                 memo: dict[tuple[str, int], FormalSimplex]) -> FormalSimplex:
    """The entry '(word) label' of dimension dim.  memo maps (text, dim)
    to the entries one document has read so far, so a repeated entry is
    read once; a bad entry is never stored, so it is reported at the
    first line that holds it."""
    hit = memo.get((text, dim))
    if hit is not None:
        return hit
    rest = text.strip()
    if not rest.startswith("("):
        raise ParseError(path, lineno, f"expected '(word) label', got {rest!r}")
    close = rest.find(")")
    if close < 0:
        raise ParseError(path, lineno, "unterminated degeneracy word")
    word_part = rest[1:close].split()
    tail = rest[close + 1:].split()
    if len(tail) != 1:
        raise ParseError(path, lineno, f"expected one label after the word, got {tail}")
    word = tuple(map(_integer, word_part))
    if None in word:
        raise ParseError(path, lineno, f"bad degeneracy word {rest[:close + 1]}: "
                                       "entries must be integers")
    hit = memo[(text, dim)] = FormalSimplex(
        tail[0], _at_line(path, lineno, surjection_from_word, dim, word))
    return hit


def parse_sset(text: str, path: str = "<sset>") -> SimplicialSet:
    X: SimplicialSet | None = None
    maxdim: int | None = None
    maxdim_line = 1
    cur_dim: int | None = None
    pending: tuple[str, int, list[FormalSimplex | None], str | None, int] | None = None
    entries: dict[tuple[str, int], FormalSimplex] = {}

    def integer(lineno: int, key: str, rest: str) -> int:
        value = _integer(rest)
        if value is None:
            raise ParseError(path, lineno, f"{key} needs an integer, got {rest!r}")
        return value

    def flush():
        # the gen line answers for a duplicate label or a bad face entry
        nonlocal pending
        if pending is None:
            return
        label, d, faces, note, at = pending
        missing = [i for i, f in enumerate(faces) if f is None]
        if missing:
            raise ParseError(path, at, f"generator {label!r} missing faces {missing}")
        _at_line(path, at, X.add_generator, d, label, faces, note)
        pending = None

    for lineno, key, rest in _directives(text, path, _SSET_GRAMMAR):
        if key == "sset":
            _at_line(path, lineno, _check_name, rest)
            X = SimplicialSet(rest)
        elif X is None:
            raise ParseError(path, lineno, "document must start with 'sset <name>'")
        elif key == "maxdim":
            maxdim, maxdim_line = integer(lineno, key, rest), lineno
        elif key == "dim":
            flush()
            cur_dim = integer(lineno, key, rest)
            if cur_dim < 0:
                raise ParseError(path, lineno, "negative dimension")
        elif key == "gen":
            flush()
            if cur_dim is None:
                raise ParseError(path, lineno, "gen before any dim header")
            if "::" in rest:
                label, note = (p.strip() for p in rest.split("::", 1))
            else:
                label, note = rest.strip(), None
            _at_line(path, lineno, _check_label, label)
            if note is not None:
                _at_line(path, lineno, _check_name, note, "note")
            if cur_dim == 0:
                _at_line(path, lineno, X.add_generator, 0, label, None, note)
            else:
                pending = (label, cur_dim, [None] * (cur_dim + 1), note, lineno)
        else:
            if pending is None:
                raise ParseError(path, lineno, "face line outside a generator block")
            eq = rest.split("=", 1)
            if len(eq) != 2:
                raise ParseError(path, lineno, "face line needs '='")
            i = _integer(eq[0].strip())
            if i is None:
                raise ParseError(path, lineno, f"bad face index {eq[0].strip()!r}")
            label, d, faces, note, at = pending
            if not 0 <= i <= d:
                raise ParseError(path, lineno, f"face index {i} outside 0..{d}")
            if faces[i] is not None:
                raise ParseError(path, lineno, f"face {i} of {label!r} given twice")
            faces[i] = _parse_entry(eq[1], path, lineno, d - 1, entries)
    if X is None:
        raise ParseError(path, 1, "empty document")
    flush()
    if maxdim is None:
        raise ParseError(path, 1, "missing maxdim header")
    if maxdim != X.max_gen_dim:
        raise ParseError(path, maxdim_line,
                         f"maxdim says {maxdim} but generators reach {X.max_gen_dim}")
    _at_line(path, 1, X.assert_coherent)
    return X


def parse_smap(text: str, ssets: dict[str, SimplicialSet],
               path: str = "<smap>") -> SimplicialMap:
    head: dict[str, str] = {}
    assignment: dict[str, FormalSimplex] = {}
    entries: dict[tuple[str, int], FormalSimplex] = {}
    for lineno, key, rest in _directives(text, path, _SMAP_GRAMMAR):
        if key != "map":
            _at_line(path, lineno, _check_name, rest)
            if key != "smap" and rest not in ssets:
                raise ParseError(path, lineno, f"unknown sset {rest!r} as {key}")
            head[key] = rest
            continue
        domain, codomain = head.get("domain"), head.get("codomain")
        if domain is None or codomain is None:
            raise ParseError(path, lineno, "map line before domain/codomain")
        eq = rest.split("=", 1)
        if len(eq) != 2:
            raise ParseError(path, lineno, "map line needs '='")
        g = eq[0].strip()
        dom = ssets[domain]
        if g not in dom.gen_dims:
            raise ParseError(path, lineno, f"unknown domain generator {g!r}")
        if g in assignment:
            raise ParseError(path, lineno, f"second map line for {g!r}")
        image = assignment[g] = _parse_entry(eq[1], path, lineno, dom.gen_dims[g], entries)
        if not ssets[codomain].has_simplex(image):
            raise ParseError(path, lineno, f"image of {g!r} not in {codomain}")
    if len(head) < 3:
        raise ParseError(path, 1, "missing smap/domain/codomain header")
    return _at_line(path, 1, SimplicialMap, head["smap"], ssets[head["domain"]],
                    ssets[head["codomain"]], assignment)


def parse_span_file(path: str) -> LinkedSpan:
    """Read a span document and the five documents it references."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    name = None
    slots: dict[str, tuple[str, int]] = {}
    for lineno, key, rest in _directives(text, path, _SPAN_GRAMMAR):
        if key == "span":
            _at_line(path, lineno, _check_name, rest)
            name = rest
            continue
        eq = rest.split("=", 1)
        if len(eq) != 2 or eq[0].strip():
            raise ParseError(path, lineno, f"expected '{key} = <path>'")
        slots[key] = (eq[1].strip(), lineno)
    if name is None:
        raise ParseError(path, 1, "missing span header")
    missing = [k for k in _SLOTS if k not in slots]
    if missing:
        raise ParseError(path, 1, f"span document missing slots {missing}")
    base = os.path.dirname(os.path.abspath(path))

    def read(slot: str) -> str:
        ref, lineno = slots[slot]
        try:
            with open(os.path.join(base, ref), encoding="utf-8") as fh:
                return fh.read()
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
    one file so the reader reconstructs the sharing."""
    os.makedirs(directory, exist_ok=True)
    prefix = span.name
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
