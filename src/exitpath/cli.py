"""Command-line front end.

    exitpath shuffle-table --k 3
    exitpath flat-sharp-table --k 5
    exitpath build-exit --span point-cone --max-dim 6 --stats
    exitpath verify-identities --span s0-defect --max-dim 4
    exitpath verify-qcat --span boundary-collar --max-dim 3
    exitpath check-fibration --span broken --max-dim 2 --kind right
    exitpath check-mono --span trivial --max-dim 4
    exitpath examples list
    exitpath stats --span broken --max-dim 3

--span takes a gallery name or a path to a .span document.  Exit
status: 0 all checks passed, 1 a check failed, 2 input error, 3 a
search budget was exhausted (fail wins over exhaustion when both
happen).  Output is deterministic; --format machine emits json with
sorted keys.

Each cmd_* returns (status, payload, text) and prints nothing; main
prints text, or the machine json of payload, and returns the status.
COMMANDS holds each command's arguments.  When the command line starts
with a command name, main builds the argument parser of that command
alone; otherwise (-h, a typo, no command) it builds the full tree, whose
usage lists every command.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .construction import (
    IotaNotMono,
    LinkedSpan,
    SpanIntegrityError,
    build_exit,
)
from .documents import parse_span_file, print_sset, write_span_documents
from .gallery import GALLERY, load_span
from .shuffles import (
    UndefinedFlat,
    collapse,
    exit_shuffle,
    flat,
    sharp,
)
from .simplicial import SimplicialSet
from .verify import (
    check_fibration,
    machine_json,
    verify_quasicategory,
    verify_simplicial_identities,
)

PASS, FAIL, INPUT_ERROR, EXHAUSTED = 0, 1, 2, 3
DEFAULT_BUDGET = 100000
Output = tuple[int, object, str]  # (status, payload, text)


def _resolve_span(ref: str) -> LinkedSpan:
    if ref in GALLERY:
        return load_span(ref)
    if os.path.exists(ref):
        return parse_span_file(ref)
    raise ValueError(f"--span {ref!r} is neither a gallery name nor a file; "
                     f"gallery: {', '.join(sorted(GALLERY))}")


def _exit_complex(args) -> tuple[LinkedSpan, SimplicialSet]:
    """The span named by --span and its exit complex through --max-dim;
    build_exit checks iota mono first."""
    span = _resolve_span(args.span)
    return span, build_exit(span, args.max_dim)


def _report(report) -> Output:
    if report.failed:
        status = FAIL
    elif report.inconclusive:
        status = EXHAUSTED
    else:
        status = PASS
    return status, report.payload(), report.to_text()


def cmd_shuffle_table(args) -> Output:
    k = args.k
    rows = []
    lines = [f"exit shuffles and collapses, k = {k}"]
    for j in range(1, k + 1):
        S = exit_shuffle(k, j)
        C = collapse(k, j)
        rows.append({
            "j": j,
            "shuffle": [list(p) for p in S.points],
            "collapse_low": list(C.low.values),
            "collapse_high": list(C.high.values),
        })
        pts = " ".join(f"{i}->({lv},{pos})" for i, (lv, pos) in enumerate(S.points))
        lines.append(f"S_{j}: {pts}")
        low = " ".join(f"(0,{i})->{v}" for i, v in enumerate(C.low.values))
        high = " ".join(f"(1,{i})->{v}" for i, v in enumerate(C.high.values))
        lines.append(f"C_{j}: {low} | {high}")
    return PASS, {"k": k, "tables": rows}, "\n".join(lines)


def cmd_flat_sharp_table(args) -> Output:
    k = args.k
    flats = {}
    sharps = {}
    for j in range(1, k + 1):
        frow = []
        for i in range(k + 1):
            try:
                frow.append(flat(k, j, i))
            except UndefinedFlat:
                frow.append(None)
        flats[j] = frow
        sharps[j] = [sharp(k, j, i) for i in range(k + 1)]
    lines = []
    for name, data in (("flat", flats), ("sharp", sharps)):
        lines.append(f"{name}(k={k}, j, i); rows j = 1..{k}, columns i = 0..{k}")
        lines.append("j\\i " + " ".join(f"{i:>2d}" for i in range(k + 1)))
        for j in range(1, k + 1):
            cells = " ".join(" -" if v is None else f"{v:>2d}" for v in data[j])
            lines.append(f"{j:>3d} {cells}")
    payload = {"k": k,
               "flat": {str(j): v for j, v in flats.items()},
               "sharp": {str(j): v for j, v in sharps.items()}}
    return PASS, payload, "\n".join(lines)


def cmd_build_exit(args) -> Output:
    span, ex = _exit_complex(args)
    # rendered only to be written or printed
    doc = print_sset(ex) if args.out or not args.stats else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    if args.stats:
        return _stats(span, ex, args)
    text = f"wrote {args.out}" if args.out else doc.removesuffix("\n")
    return PASS, {"name": ex.name, "document": doc}, text


def _stats(span, ex, args) -> Output:
    # Ex_k is M_k, the exit paths of degree k, and N_k, disjointly
    rows = []
    lines = [f"exit complex of {span.name}, degrees 0..{args.max_dim}",
             "degree  low  exit  upper  total  generators"]
    for k in range(args.max_dim + 1):
        low, upper, total = span.M.count_at(k), span.N.count_at(k), ex.count_at(k)
        r = {
            "degree": k,
            "low": low,
            "exit": total - low - upper,
            "upper": upper,
            "total": total,
            "generators": len(ex.gens.get(k, [])),
        }
        rows.append(r)
        lines.append(f"{r['degree']:>6d} {r['low']:>4d} {r['exit']:>5d} {r['upper']:>6d} "
                     f"{r['total']:>6d} {r['generators']:>11d}")
    payload = {"span": span.name, "max_dim": args.max_dim, "degrees": rows}
    return PASS, payload, "\n".join(lines)


def cmd_stats(args) -> Output:
    span, ex = _exit_complex(args)
    return _stats(span, ex, args)


def cmd_verify_identities(args) -> Output:
    _, ex = _exit_complex(args)
    return _report(verify_simplicial_identities(ex, args.max_dim))


def cmd_verify_qcat(args) -> Output:
    _, ex = _exit_complex(args)
    return _report(verify_quasicategory(ex, args.max_dim, args.budget))


def cmd_check_fibration(args) -> Output:
    span = _resolve_span(args.span)
    report = check_fibration(span.pi, args.max_dim, kind=args.kind, budget=args.budget)
    return _report(report)


def cmd_check_mono(args) -> Output:
    span = _resolve_span(args.span)
    ok, witness = span.iota.is_mono(args.max_dim)
    verdict = "PASS" if ok else "FAIL"
    text = (f"{verdict}: {span.iota.name} levelwise injective through "
            f"degree {args.max_dim}" + (f"  [{witness}]" if witness else ""))
    payload = {"map": span.iota.name, "mono_through": args.max_dim,
               "ok": ok, "witness": witness}
    return (PASS if ok else FAIL), payload, text


def cmd_examples(args) -> Output:
    if args.action == "list":
        payload = {name: e.summary for name, e in GALLERY.items()}
        text = "\n".join(f"{name:<16s} {GALLERY[name].summary}" for name in sorted(GALLERY))
        return PASS, payload, text
    # emit
    name = args.name
    if name not in GALLERY:
        what = "examples emit needs a span name" if name is None else f"unknown example {name!r}"
        raise ValueError(f"{what}; gallery: {', '.join(sorted(GALLERY))}")
    path = write_span_documents(load_span(name), args.dir)
    return PASS, {"name": name, "span": path}, f"wrote {path}"


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _arg(*flags, **kwargs):
    """One add_argument call, as its (flags, kwargs)."""
    return flags, kwargs


_FORMAT = _arg("--format", choices=["text", "machine"], default="text",
               help="output style; machine is json with sorted keys")
_SPAN_ARGS = (_FORMAT,
              _arg("--span", required=True, help="gallery name or path to a .span document"),
              _arg("--max-dim", type=_at_least(0), default=3,
                   help="degree bound for the check (default 3)"))
_BUDGET = _arg("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
               help=f"search nodes allowed per horn subproblem (default {DEFAULT_BUDGET})")

# name -> (help, handler, arguments in the order their help lists them)
COMMANDS = {
    "shuffle-table": ("print exit shuffles and collapses", cmd_shuffle_table,
                      (_arg("--k", type=_at_least(1), required=True), _FORMAT)),
    "flat-sharp-table": ("print the flat/sharp index tables", cmd_flat_sharp_table,
                         # flat needs k >= 2
                         (_arg("--k", type=_at_least(2), required=True), _FORMAT)),
    "build-exit": ("materialize the exit complex", cmd_build_exit,
                   (*_SPAN_ARGS,
                    _arg("--stats", action="store_true", help="print per-degree counts"),
                    _arg("--out", help="write the sset document here"))),
    "verify-identities": ("simplicial identities on the exit complex",
                          cmd_verify_identities, _SPAN_ARGS),
    "verify-qcat": ("inner-horn filling on the exit complex", cmd_verify_qcat,
                    (*_SPAN_ARGS, _BUDGET)),
    "check-fibration": ("horn-lifting checks for pi", cmd_check_fibration,
                        (*_SPAN_ARGS, _BUDGET,
                         _arg("--kind", choices=["right", "inner", "kan"], default="right"))),
    "check-mono": ("levelwise injectivity of iota", cmd_check_mono, _SPAN_ARGS),
    "examples": ("list or emit the gallery spans", cmd_examples,
                 (_arg("action", choices=["list", "emit"]),
                  _arg("name", nargs="?", help="span to emit"),
                  _arg("--dir", default=".", help="directory for emitted documents"),
                  _FORMAT)),
    "stats": ("per-degree counts of the exit complex", cmd_stats, _SPAN_ARGS),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, fn, arguments = COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(fn=fn)
    return parser


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, for the arguments after its name; with
    no command, the full tree: the top level and a subparser per command,
    for a command line that does not start with a command name (-h, a
    typo, nothing).  Each is built once per process, since parse_args
    leaves a parser unchanged."""
    if command is not None:
        return _add_command(argparse.ArgumentParser(prog=f"exitpath {command}"), command)
    parser = argparse.ArgumentParser(
        prog="exitpath",
        description="exit-path simplicial sets of linked spans: build and verify")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=summary), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        status, payload, text = args.fn(args)
        print(machine_json(payload) if args.format == "machine" else text)
    except (ValueError, OSError, IotaNotMono, SpanIntegrityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
