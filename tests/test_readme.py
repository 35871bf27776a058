"""The README's examples, run as written.

The Quickstart block is executed and its printed lines compared with
its `# ...` comments.  Each `$ exitpath ...` command in a plain fenced
block is run through cli.main and its stdout compared with the lines
below it, where a line `...` stands for any run of lines.
"""

import contextlib
import io
import os
import re
import shlex

import pytest

from exitpath import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def fenced_blocks():
    """(info string, lines) of each fenced block, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [(m.group(1), m.group(2).splitlines())
            for m in re.finditer(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)]


def commands():
    """(command line, expected stdout lines) for each `$ exitpath` line."""
    out = []
    for info, lines in fenced_blocks():
        if info or not lines or not lines[0].startswith("$ exitpath "):
            continue
        for line in lines:
            if line.startswith("$ exitpath "):
                out.append((line[2:], []))
            else:
                out[-1][1].append(line)
    # a blank line separates a command's output from the next command
    return [(cmd, expected[:-1] if expected and not expected[-1] else expected)
            for cmd, expected in out]


def stdout_of(fn) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue()


def test_quickstart_prints_its_comments():
    (code,) = [lines for info, lines in fenced_blocks() if info == "python"]
    expected = [line[2:] for line in code if line.startswith("# ")]
    namespace = {}
    printed = stdout_of(lambda: exec("\n".join(code), namespace))
    assert expected and printed.splitlines() == expected


COMMANDS = commands()


def test_every_command_block_is_found():
    assert len(COMMANDS) == 5


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_prints_its_block(command, expected):
    printed = stdout_of(lambda: cli.main(shlex.split(command)[1:]))
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
                      for line in expected)
    assert re.fullmatch(pattern, printed), printed
