"""The README's examples, run as written.

The library example must execute, the example records must be what
``format_certificate`` prints (the README shows each tab as two spaces),
and every command-line example must run and print what its comment says.
"""

import re
import shlex
from pathlib import Path

import pytest

from kendallcodes import certify, format_certificate
from kendallcodes.cli import EXIT_INCONCLUSIVE, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"

pytestmark = pytest.mark.skipif(not README.is_file(), reason="README.md is absent")

# a claim in a command's comment, and what it is checked against
CLAIMS = {
    r"(\d+) permutations": lambda out, code: int(out),
    r"(\d+) records": lambda out, code: len(out.splitlines()),
    r"exit (\d+)": lambda out, code: code,
}


def first_block(heading: str) -> str:
    """The first fenced code block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"^{re.escape(heading)}\n.*?^```\w*\n(.*?)^```", text, re.M | re.S)
    assert found, heading
    return found.group(1)


def test_library_example_runs():
    exec(compile(first_block("## Library example"), str(README), "exec"), {})


def test_example_records_are_printed_records():
    lines = first_block("### Record format (v2)").splitlines()
    assert len(lines) == 3
    for line in lines:
        n, t = re.match(r"n=(\d+)  t=(\d+)  ", line).groups()
        assert line == format_certificate(certify(int(n), int(t))).replace("\t", "  ")


def test_command_line_examples_print_what_their_comments_say(capsys):
    checked = []
    for line in first_block("## Command line").splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "kendallcodes", line
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE), line
        for pattern, measure in CLAIMS.items():
            for claim in re.findall(pattern, comment):
                assert measure(out, code) == int(claim), line
                checked.append(int(claim))
    assert {351, 441, 30} <= set(checked)
