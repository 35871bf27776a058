"""CLI behaviour: exit codes, determinism, output shapes."""

import json

import pytest

from exitpath.cli import EXHAUSTED, FAIL, INPUT_ERROR, PASS, main
from exitpath.construction import exit_simplices
from exitpath.gallery import GALLERY, load_span


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flat_sharp_table(capsys):
    code, out, _ = run(capsys, "flat-sharp-table", "--k", "5")
    assert code == PASS
    lines = out.splitlines()
    # row j = 2 of the flat table, and the undefined (5, 5) cell
    assert "  2  1  1  2  2  2  2" in lines
    assert any(line.startswith("  5") and line.rstrip().endswith("-") for line in lines)
    assert "sharp(k=5, j, i)" in out


def test_shuffle_table(capsys):
    code, out, _ = run(capsys, "shuffle-table", "--k", "2")
    assert code == PASS
    assert "S_1: 0->(0,0) 1->(1,0) 2->(1,1)" in out
    assert "C_2: (0,0)->0 (0,1)->1 | (1,0)->2 (1,1)->2" in out


def test_shuffle_table_machine_is_deterministic(capsys):
    _, out1, _ = run(capsys, "shuffle-table", "--k", "3", "--format", "machine")
    _, out2, _ = run(capsys, "shuffle-table", "--k", "3", "--format", "machine")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["k"] == 3 and len(payload["tables"]) == 3


def test_build_exit_stats(capsys):
    code, out, _ = run(capsys, "build-exit", "--span", "point-cone",
                       "--max-dim", "5", "--stats")
    assert code == PASS
    totals = [int(line.split()[4]) for line in out.splitlines()[2:]]
    assert totals == [k + 2 for k in range(6)]


def test_build_exit_document_output(capsys, tmp_path):
    out_file = tmp_path / "collar.sset"
    code, out, _ = run(capsys, "build-exit", "--span", "boundary-collar",
                       "--max-dim", "2", "--out", str(out_file))
    assert code == PASS and str(out_file) in out
    doc = out_file.read_text()
    assert doc.startswith("sset Ex(boundary-collar)<=2\n")
    assert "gen P.0,1+s0@1 :: exit@1" in doc

    from exitpath.documents import parse_sset

    parse_sset(doc)  # the emitted document is well formed and coherent


def test_build_exit_renders_the_document_only_to_write_or_print(capsys, tmp_path,
                                                                 monkeypatch):
    from exitpath import cli

    rendered = []
    print_sset = cli.print_sset
    monkeypatch.setattr(cli, "print_sset", lambda X: rendered.append(X) or print_sset(X))
    out_file = str(tmp_path / "ex.sset")
    for flags, renders in [((), 1), (("--stats",), 0), (("--out", out_file), 1),
                           (("--stats", "--out", out_file), 1)]:
        rendered.clear()
        code, _, _ = run(capsys, "build-exit", "--span", "s0-defect", "--max-dim", "2", *flags)
        assert (code, len(rendered)) == (PASS, renders), flags


def test_build_exit_machine_deterministic(capsys):
    args = ("build-exit", "--span", "s0-defect", "--max-dim", "3",
            "--format", "machine")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities", "--span", "s0-defect",
                       "--max-dim", "3")
    assert code == PASS
    assert "result: PASS (5 checks)" in out


def test_verify_qcat_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify-qcat", "--span", "trivial", "--max-dim", "3")
    assert code == PASS and "result: PASS" in out
    code, out, _ = run(capsys, "verify-qcat", "--span", "broken", "--max-dim", "2")
    assert code == FAIL
    assert "no filler for Lambda^2_1" in out


def test_verify_qcat_budget_exhaustion(capsys):
    code, out, _ = run(capsys, "verify-qcat", "--span", "trivial",
                       "--max-dim", "2", "--budget", "1")
    assert code == EXHAUSTED
    assert "INCONCLUSIVE" in out


def test_search_commands_deterministic(capsys):
    for command in ("verify-qcat", "check-fibration"):
        argv = (command, "--span", "boundary-collar", "--max-dim", "3",
                "--format", "machine")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second and first[0] == PASS
    # the thread-count option is gone: argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main(["verify-qcat", "--span", "trivial", "--workers", "4"])
    assert exc.value.code == 2


SPAN_COMMANDS = ("build-exit", "stats", "verify-identities", "verify-qcat",
                 "check-fibration", "check-mono")


@pytest.mark.parametrize("argv, message", [
    *[((command, "--span", "trivial", "--max-dim", "-1"), "--max-dim: must be at least 0")
      for command in SPAN_COMMANDS],
    (("check-fibration", "--span", "trivial", "--max-dim", "-2"), "--max-dim: must be at least 0"),
    (("check-mono", "--span", "trivial", "--max-dim", "-3"), "--max-dim: must be at least 0"),
    (("verify-qcat", "--span", "trivial", "--budget", "-5"), "--budget: must be at least 0"),
    (("check-fibration", "--span", "trivial", "--budget", "-1"), "--budget: must be at least 0"),
    (("shuffle-table", "--k", "-1"), "--k: must be at least 1"),
    (("shuffle-table", "--k", "0"), "--k: must be at least 1"),
    (("flat-sharp-table", "--k", "-1"), "--k: must be at least 2"),
    (("flat-sharp-table", "--k", "1"), "--k: must be at least 2"),
    (("verify-qcat", "--span", "trivial", "--max-dim", "two"), "invalid int value: 'two'"),
])
def test_bad_integer_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: exitpath") and message in err


def test_smallest_integer_arguments_are_accepted(capsys):
    assert run(capsys, "shuffle-table", "--k", "1")[0] == PASS
    assert run(capsys, "flat-sharp-table", "--k", "2")[0] == PASS
    assert run(capsys, "check-mono", "--span", "trivial", "--max-dim", "0")[0] == PASS
    code, out, _ = run(capsys, "verify-qcat", "--span", "trivial", "--max-dim", "2",
                       "--budget", "0")
    assert code == EXHAUSTED and "INCONCLUSIVE" in out


def test_defaults_do_not_leak_between_calls(capsys):
    # main() reuses one parser per process; a --budget given to one call
    # must not become the default of the next
    argv = ("verify-qcat", "--span", "trivial", "--max-dim", "2")
    code, _, _ = run(capsys, *argv, "--budget", "1")
    assert code == EXHAUSTED
    code, _, _ = run(capsys, *argv)
    assert code == PASS


def test_check_fibration(capsys):
    code, out, _ = run(capsys, "check-fibration", "--span", "broken",
                       "--max-dim", "2", "--kind", "right")
    assert code == FAIL and "no lift" in out
    code, out, _ = run(capsys, "check-fibration", "--span", "broken",
                       "--max-dim", "2", "--kind", "inner")
    assert code == PASS
    code, out, _ = run(capsys, "check-fibration", "--span", "s0-defect",
                       "--max-dim", "2")
    assert code == PASS


def merged_span(tmp_path) -> str:
    """A span document whose iota merges the two link vertices onto one."""
    (tmp_path / "L.sset").write_text("sset L\nmaxdim 0\ndim 0\ngen l1\ngen l2\n")
    (tmp_path / "P.sset").write_text("sset P\nmaxdim 0\ndim 0\ngen p\n")
    (tmp_path / "pi.smap").write_text(
        "smap pi\ndomain L\ncodomain P\nmap l1 = () p\nmap l2 = () p\n")
    (tmp_path / "iota.smap").write_text(
        "smap iota\ndomain L\ncodomain P\nmap l1 = () p\nmap l2 = () p\n")
    span_file = tmp_path / "merged.span"
    span_file.write_text("span merged\nM = P.sset\nL = L.sset\nN = P.sset\n"
                         "pi = pi.smap\niota = iota.smap\n")
    return str(span_file)


def test_check_mono(capsys, tmp_path):
    code, out, _ = run(capsys, "check-mono", "--span", "trivial", "--max-dim", "4")
    assert code == PASS and out.startswith("PASS")

    code, out, _ = run(capsys, "check-mono", "--span", merged_span(tmp_path))
    assert code == FAIL and out.startswith("FAIL") and "degree 0" in out


def test_check_mono_lists_at_most_the_witness_degree(capsys, tmp_path, monkeypatch):
    # injectivity is decided from the generators; only a failure lists
    # L_n, at the one degree that names the witness (0 for merged)
    from exitpath.simplicial import SimplicialSet

    listing = SimplicialSet.simplices_at

    def witness_degree_only(self, n):
        if n != 0:
            raise AssertionError(f"listed {self.name} at degree {n}")
        return listing(self, n)

    monkeypatch.setattr(SimplicialSet, "simplices_at", witness_degree_only)
    for name in ("point-cone", "s0-defect"):
        code, out, _ = run(capsys, "check-mono", "--span", name, "--max-dim", "1000",
                           "--format", "machine")
        assert code == PASS
        assert json.loads(out) == {"map": "iota", "mono_through": 1000, "ok": True,
                                   "witness": None}
    code, out, _ = run(capsys, "check-mono", "--span", merged_span(tmp_path), "--max-dim", "1000")
    assert code == FAIL
    assert out == ("FAIL: iota levelwise injective through degree 1000  "
                   "[degree 0: l1 and l2 both map to p]\n")


@pytest.mark.parametrize("command", ["build-exit", "stats", "verify-identities",
                                     "verify-qcat"])
def test_non_mono_iota_is_an_input_error(capsys, tmp_path, command):
    code, out, err = run(capsys, command, "--span", merged_span(tmp_path))
    assert code == INPUT_ERROR and out == ""
    assert err.startswith("error: merged: iota is not mono: degree 0")


def clash_span(tmp_path, link) -> str:
    """A span document whose N has vertices x, y and an edge labelled
    x+s0 from y to x; L = M holds the vertices named in link, and pi
    and iota send each to itself."""
    (tmp_path / "N.sset").write_text(
        "sset N\nmaxdim 1\ndim 0\ngen x\ngen y\ndim 1\ngen x+s0\n"
        "face 0 = () x\nface 1 = () y\n")
    (tmp_path / "L.sset").write_text(
        "sset L\nmaxdim 0\ndim 0\n" + "".join(f"gen {v}\n" for v in link))
    for name, codomain in (("pi", "L"), ("iota", "N")):
        (tmp_path / f"{name}.smap").write_text(
            f"smap {name}\ndomain L\ncodomain {codomain}\n"
            + "".join(f"map {v} = () {v}\n" for v in link))
    span_file = tmp_path / "clash.span"
    span_file.write_text("span clash\nM = L.sset\nL = L.sset\nN = N.sset\n"
                         "pi = pi.smap\niota = iota.smap\n")
    return str(span_file)


def test_an_exit_label_clash_is_an_input_error(capsys, tmp_path):
    # both s_0 x at index 1 and the edge x+s0 at index 1 are labelled
    # P.x+s0@1 once the edge's vertex 0, y, lifts through iota
    code, out, err = run(capsys, "build-exit", "--span", clash_span(tmp_path, "xy"),
                         "--max-dim", "2")
    assert (code, out, err) == (INPUT_ERROR, "",
                                "error: Ex(clash)<=2: exit paths (s_0 x, 1) and (x+s0, 1) "
                                "are both labelled 'P.x+s0@1'; rename N's generator 'x+s0'\n")
    code, out, _ = run(capsys, "build-exit", "--span", clash_span(tmp_path, "x"),
                       "--max-dim", "2")
    assert code == PASS
    assert [line.split()[1] for line in out.splitlines()
            if line.lstrip().startswith("gen P.")] == ["P.x+s0@1"]


def test_span_integrity_error_is_an_input_error(capsys, monkeypatch):
    from exitpath import cli
    from exitpath.construction import SpanIntegrityError

    def corrupt(span, depth):
        raise SpanIntegrityError("low face has no lift")

    monkeypatch.setattr(cli, "build_exit", corrupt)
    code, _, err = run(capsys, "verify-qcat", "--span", "broken")
    assert code == INPUT_ERROR and err == "error: low face has no lift\n"


def test_internal_key_error_is_not_an_input_error(capsys, monkeypatch):
    # only input errors exit 2; a failed lookup inside the program is a bug
    from exitpath import cli

    def lookup_bug(span, depth):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "build_exit", lookup_bug)
    with pytest.raises(KeyError):
        main(["verify-qcat", "--span", "broken"])
    assert capsys.readouterr().err == ""


def test_examples_list_and_emit(capsys, tmp_path):
    code, out, _ = run(capsys, "examples", "list")
    assert code == PASS
    assert out.splitlines()[0].startswith("boundary-collar")

    code, out, _ = run(capsys, "examples", "emit", "boundary-collar",
                       "--dir", str(tmp_path))
    assert code == PASS
    span_path = str(tmp_path / "boundary-collar.span")
    assert span_path in out

    code, out, _ = run(capsys, "examples", "emit", "boundary-collar",
                       "--dir", str(tmp_path), "--format", "machine")
    assert code == PASS
    assert json.loads(out) == {"name": "boundary-collar", "span": span_path}

    code, out, err = run(capsys, "examples", "emit")
    assert code == INPUT_ERROR and out == ""
    assert err.startswith("error: examples emit needs a span name; gallery: ")

    # the emitted documents feed straight back into --span
    code, out, _ = run(capsys, "stats", "--span", span_path, "--max-dim", "2")
    assert code == PASS
    totals = [int(line.split()[4]) for line in out.splitlines()[2:]]
    assert totals == [3, 6, 10]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_stats_exit_column_counts_exit_paths(capsys, name):
    code, out, _ = run(capsys, "stats", "--span", name, "--max-dim", "4",
                       "--format", "machine")
    assert code == PASS
    span = load_span(name)
    exits = [row["exit"] for row in json.loads(out)["degrees"]]
    assert exits == [0] + [len(exit_simplices(span, k)) for k in range(1, 5)]


def test_stats_matches_build_exit_stats(capsys):
    _, out1, _ = run(capsys, "stats", "--span", "broken", "--max-dim", "3")
    _, out2, _ = run(capsys, "build-exit", "--span", "broken", "--max-dim", "3",
                     "--stats")
    assert out1 == out2


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify-qcat", "--span", "no-such-span")
    assert code == INPUT_ERROR and "gallery" in err

    bad = tmp_path / "garbage.span"
    bad.write_text("span x\nM =\n")
    code, _, err = run(capsys, "build-exit", "--span", str(bad))
    assert code == INPUT_ERROR and "garbage.span" in err

    code, _, err = run(capsys, "examples", "emit", "nope")
    assert code == INPUT_ERROR


def test_console_entry_point_is_wired():
    import pathlib

    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'exitpath = "exitpath.cli:main"' in pyproject.read_text()


COMMAND_NAMES = ("shuffle-table,flat-sharp-table,build-exit,verify-identities,verify-qcat,"
                 "check-fibration,check-mono,examples,stats")


@pytest.mark.parametrize("argv, err", [
    (("verify-qcat", "--span", "trivial", "--foo"),
     "usage: exitpath verify-qcat [-h] [--format {text,machine}] --span SPAN\n"
     "                            [--max-dim MAX_DIM] [--budget BUDGET]\n"
     "exitpath verify-qcat: error: unrecognized arguments: --foo\n"),
    (("examples", "emit", "trivial", "extra"),
     "usage: exitpath examples [-h] [--dir DIR] [--format {text,machine}]\n"
     "                         {list,emit} [name]\n"
     "exitpath examples: error: unrecognized arguments: extra\n"),
], ids=["verify-qcat", "examples"])
def test_an_unrecognized_argument_prints_its_command_usage(argv, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, code, message", [
    ((), 2, "exitpath: error: the following arguments are required: command\n"),
    (("foo",), 2, "exitpath: error: argument command: invalid choice: 'foo'"),
    (("-h",), 0, "exit-path simplicial sets of linked spans: build and verify"),
], ids=["nothing", "foo", "-h"])
def test_no_command_prints_the_usage_of_every_command(argv, code, message, capsys,
                                                       monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code
    out, err = capsys.readouterr()
    text = out if code == 0 else err
    assert text.startswith("usage: exitpath [-h]\n")
    assert "{" + COMMAND_NAMES + "}" in text and message in text


def test_a_command_line_builds_only_the_parser_of_its_command(capsys, monkeypatch):
    from exitpath import cli

    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    argv = ("check-mono", "--span", "trivial", "--max-dim", "1")
    assert run(capsys, *argv)[0] == PASS
    assert built == ["exitpath check-mono"]
    assert run(capsys, *argv)[0] == PASS
    assert built == ["exitpath check-mono"]
