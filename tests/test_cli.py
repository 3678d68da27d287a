"""Command-line interface, driven in-process through main(argv).

Output lines and exit codes are frozen; records printed by certify/scan
must parse back into the exact certificates the library produces.
"""

import contextlib
import io
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kendallcodes
from kendallcodes import certifier, cli, mahonian, oracle
from kendallcodes.certifier import INCONCLUSIVE, NONEXISTENT_NOT_DIVIDING
from kendallcodes.checker import check_certificate, parse_certificate
from kendallcodes.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from kendallcodes.mahonian import MAX_TABLE_N, ball_count
from kendallcodes.table import sphere_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_outcome(parse, argv):
    """What parsing argv gives: the Namespace's fields or the exit code,
    then what it printed on stdout and on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_sphere_values(capsys):
    assert run_cli(capsys, "sphere", "--n", "5", "--i", "5") == (EXIT_OK, "22\n", "")
    assert run_cli(capsys, "sphere", "--n", "13", "--i", "3") == (EXIT_OK, "351\n", "")
    assert run_cli(capsys, "sphere", "--n", "4", "--i", "9") == (EXIT_OK, "0\n", "")
    assert run_cli(capsys, "sphere", "--n", "4", "--i", "-1") == (EXIT_OK, "0\n", "")
    assert run_cli(capsys, "sphere", "--n", "2", "--i", "0") == (EXIT_OK, "1\n", "")


def test_sphere_table_route_and_cap(capsys, table150):
    code, out, err = run_cli(capsys, "sphere", "--n", "20", "--i", "10")
    assert code == EXIT_OK
    assert out.strip() == str(sphere_size(table150, 20, 10))

    code, out, _ = run_cli(capsys, "sphere", "--n", "140", "--i", "10")
    assert code == EXIT_OK
    assert out.strip() == str(sphere_size(table150, 140, 10))

    for i in ("3", "-1"):
        code, out, err = run_cli(capsys, "sphere", "--n", "10001", "--i", i)
        assert (code, out) == (EXIT_VALIDATION, ""), i
        assert err.startswith("error:") and "between 2 and 10000" in err, i


def test_sphere_folds_past_the_midpoint(capsys):
    # S(n, i) = S(n, D - i): folded, S(200, 19899) is S(200, 1), two
    # pentagonal balls where the unfolded pair would subtract from 200!
    assert run_cli(capsys, "sphere", "--n", "200", "--i", "19899") == (EXIT_OK, "199\n", "")
    for n, i in ((13, 40), (13, 75), (13, 78), (20, 150)):
        unfolded = ball_count(n, i) - ball_count(n, i - 1)
        assert run_cli(capsys, "sphere", "--n", str(n), "--i", str(i)) == (
            EXIT_OK,
            f"{unfolded}\n",
            "",
        ), (n, i)


def test_a_folded_sphere_refusal_names_the_distance_asked_for(capsys):
    # D(200) = 19900: distance 14698 folds to radius 5202, past the bound,
    # while distance 5202 is refused under its own name
    for i, head in (("14698", "distance 14698: radius 5202"), ("5202", "radius 5202")):
        code, out, err = run_cli(capsys, "sphere", "--n", "200", "--i", i)
        assert (code, out) == (EXIT_VALIDATION, ""), i
        assert err.startswith(f"error: {head} at n=200 expands") and "past the bound" in err, i


def test_sphere_rejects_tiny_group(capsys):
    code, _, err = run_cli(capsys, "sphere", "--n", "1", "--i", "0")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")


def test_ball_values(capsys, table150):
    assert run_cli(capsys, "ball", "--n", "13", "--r", "3") == (EXIT_OK, "441\n", "")
    assert run_cli(capsys, "ball", "--n", "13", "--r", "4") == (EXIT_OK, "1715\n", "")
    assert run_cli(capsys, "ball", "--n", "2", "--r", "0") == (EXIT_OK, "1\n", "")
    assert run_cli(capsys, "ball", "--n", "6", "--r", "7") == (EXIT_OK, "360\n", "")

    code, out, _ = run_cli(capsys, "ball", "--n", "140", "--r", "7")
    assert code == EXIT_OK
    assert out.strip() == str(sum(table150.row(140)[:8]))


def test_ball_serves_group_sizes_up_to_10000_only(capsys):
    # at n = 10^900 a radius-5 ball would be too long to print
    for n in ("10001", str(10**900)):
        code, out, err = run_cli(capsys, "ball", "--n", n, "--r", "5")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error:") and "between 2 and 10000" in err
        assert "digits" not in err
    code, out, err = run_cli(capsys, "ball", "--n", "10000", "--r", "1019")
    assert (code, err) == (EXIT_OK, "")
    assert out == f"{ball_count(10000, 1019)}\n"
    assert sys.get_int_max_str_digits() == 4300


def test_certify_nonexistent_exits_zero(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", "13", "--t", "3")
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "n=13\tt=3\tball=441\tfactorization=3^2 * 7^2"
        "\tverdict=NONEXISTENT_NOT_DIVIDING\twitness=7\twitness_exponents=2,1\n"
    )
    assert parse_certificate(out.strip()) == certifier.certify(13, 3)


def test_certify_inconclusive_exits_three(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "4", "--t", "6")
    assert code == EXIT_INCONCLUSIVE
    assert out.endswith("verdict=INCONCLUSIVE\twitness=\twitness_exponents=\n")


# Before record format v2, an INCONCLUSIVE record stored n!/B, which has more
# than 4300 digits from n = 1561 on: Python refused to print it.


def test_certify_past_the_int_printing_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "certify", "--n", "2000", "--t", "2")
    assert (code, err) == (EXIT_INCONCLUSIVE, "")
    cert = parse_certificate(out)
    assert (cert.n, cert.t, cert.verdict) == (2000, 2, INCONCLUSIVE)
    assert check_certificate(cert)
    for t in (2, 3, 4, 5):
        code, out, err = run_cli(capsys, "certify", "--n", "10000", "--t", str(t))
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE) and err == "", t
        assert check_certificate(parse_certificate(out)), t
    assert sys.get_int_max_str_digits() == limit == 4300


def test_scan_across_the_int_printing_limit(capsys):
    code, out, err = run_cli(capsys, "scan", "--t", "2", "--from", "1555", "--to", "1570")
    assert err == ""
    certs = [parse_certificate(line) for line in out.splitlines()]
    assert [c.n for c in certs] == list(range(1555, 1571))
    assert all(check_certificate(c) for c in certs)
    assert code == (
        EXIT_INCONCLUSIVE if any(c.verdict == INCONCLUSIVE for c in certs) else EXIT_OK
    )
    assert sys.get_int_max_str_digits() == 4300


def test_certify_validation_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--n", "1", "--t", "3")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")


def test_scan_records(capsys):
    code, out, _ = run_cli(capsys, "scan", "--t", "3", "--from", "4", "--to", "33")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 30
    certs = [parse_certificate(line) for line in lines]
    assert [c.n for c in certs] == list(range(4, 34))
    assert all(c.verdict != INCONCLUSIVE for c in certs)
    assert [c.n for c in certs if c.verdict == NONEXISTENT_NOT_DIVIDING] == [13, 26]


def test_scan_single_tiny_group(capsys):
    code, out, _ = run_cli(capsys, "scan", "--t", "2", "--from", "2", "--to", "2")
    assert code == EXIT_INCONCLUSIVE
    lines = out.splitlines()
    assert len(lines) == 1
    cert = parse_certificate(lines[0])
    assert (cert.n, cert.t, cert.ball, cert.verdict) == (2, 2, 2, INCONCLUSIVE)


@pytest.mark.parametrize("fmt", ["records", "tsv", "pretty"])
def test_scan_writes_each_record_before_making_the_next(monkeypatch, fmt):
    events = []
    certify = certifier.certify

    def logged_certify(n, t):
        events.append("certify")
        return certify(n, t)

    class Sink:
        def write(self, text):
            events.append("write")
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(certifier, "certify", logged_certify)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["scan", "--t", "3", "--from", "4", "--to", "12", "--format", fmt]) == EXIT_OK
    assert events.count("certify") == 9
    assert "certify certify" not in " ".join(events)
    assert events[-1] == "write"


@pytest.mark.parametrize("fmt", ["records", "tsv", "pretty"])
@pytest.mark.parametrize(
    ("argv", "records"),
    [(("certify", "--n", "13", "--t", "3"), 1), (("scan", "--t", "3", "--from", "4", "--to", "12"), 9)],
    ids=["certify", "scan"],
)
def test_certify_and_scan_make_one_write_per_output_line(monkeypatch, capsys, argv, records, fmt):
    # a pipe's reader pays per write, so each record, TSV row or header and
    # each pretty block goes out whole, with its newline, in one write
    assert main([*argv, "--format", fmt]) == EXIT_OK
    expected = capsys.readouterr().out
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main([*argv, "--format", fmt]) == EXIT_OK
    assert "".join(writes) == expected
    assert len(writes) == records + (fmt == "tsv")
    if fmt != "pretty":
        assert all(text.count("\n") == 1 and text.endswith("\n") for text in writes)


def test_importing_the_cli_loads_no_process_pool():
    src = str(Path(kendallcodes.__file__).resolve().parents[1])
    probe = (
        "import sys, kendallcodes.cli;"
        " print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_scan_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--t", "3", "--from", "13", "--to", "13", "--format", "tsv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n\tt\tball\tfactorization\tverdict\twitness\twitness_exponents"
    assert lines[1] == "13\t3\t441\t3^2 * 7^2\tNONEXISTENT_NOT_DIVIDING\t7\t2,1"
    assert len(lines) == 2


def test_pretty_format(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--n", "13", "--t", "3", "--format", "pretty"
    )
    assert code == EXIT_OK
    assert "ball size 441, 13-smooth part 3^2 * 7^2, cofactor 1" in out
    assert "polynomial factors n+1 and n^2+2n-6" in out

    code, out, _ = run_cli(
        capsys, "scan", "--t", "3", "--from", "13", "--to", "14", "--format", "pretty"
    )
    assert code == EXIT_OK
    assert "\n\n" in out  # blocks separated by a blank line


def test_scan_validation_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--t", "3", "--from", "9", "--to", "4")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")


def test_table_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "2")
    assert code == EXIT_OK
    assert out == "n\ti\tsphere\tball\n2\t0\t1\t1\n2\t1\t1\t2\n"

    code, out, _ = run_cli(capsys, "table", "--max-n", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1 + 2 + 4 + 7
    assert lines[-1] == "4\t6\t1\t24"

    code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--max-r", "1")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + 2 + 2 + 2


def test_table_respects_cap(capsys):
    code, out, err = run_cli(capsys, "table", "--max-n", "257")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error:") and str(MAX_TABLE_N) in err


class LineSink:
    """Stdout stand-in that keeps only a length and a CRC-32 of what is
    written, and every write that is not exactly one whole line."""

    def __init__(self) -> None:
        self.length = 0
        self.crc = 0
        self.odd_writes: list[str] = []

    def write(self, text: str) -> int:
        if not text.endswith("\n") or "\n" in text[:-1]:
            self.odd_writes.append(text)
        self.length += len(text)
        self.crc = zlib.crc32(text.encode(), self.crc)
        return len(text)

    def flush(self) -> None:
        pass


def run_table(*argv):
    sink = LineSink()
    saved, sys.stdout = sys.stdout, sink
    try:
        code = main(["table", *argv])
    finally:
        sys.stdout = saved
    return code, sink


@pytest.mark.parametrize(
    "argv, length, crc",
    [
        # n <= 60 meets every residue of n mod 4, so diameters of both parities
        (("--max-n", "60"), 3_861_313, 1617663676),
        (("--max-n", "60", "--max-r", "7"), 7_055, 3104440629),
        (("--max-n", str(MAX_TABLE_N), "--max-r", "5"), 26_367, 2923335161),
    ],
)
def test_table_bytes_are_pinned(argv, length, crc):
    code, sink = run_table(*argv)
    assert code == EXIT_OK
    assert (sink.length, sink.crc) == (length, crc)


def test_table_streams_one_line_per_write(monkeypatch):
    def no_table(max_n):
        raise AssertionError("the export builds no table")

    monkeypatch.setattr(mahonian, "build_table", no_table)
    code, sink = run_table("--max-n", "30")
    assert code == EXIT_OK
    assert sink.length > 0 and sink.odd_writes == []


def test_table_refusals_write_nothing(capsys):
    for argv in (("--max-n", "1"), ("--max-n", "257"), ("--max-n", "5", "--max-r", "-1")):
        code, sink = run_table(*argv)
        assert (code, sink.length) == (EXIT_VALIDATION, 0), argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_verify_passes_small_groups(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "OK verify n=5"
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert not any(line.startswith("FAIL") for line in lines)

    code, out, _ = run_cli(capsys, "verify", "--n", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "OK verify n=6"
    assert sum(line.startswith("PASS") for line in lines) == 4  # search stops at n=5


def test_verify_check_counts_and_one_histogram(capsys, monkeypatch):
    # five checks up to n = 5, where the search stops, and four past it; the
    # benchmark's verify_checks expects these counts up to n = 8
    for n in range(2, 10):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n))
        lines = out.splitlines()
        assert code == EXIT_OK, n
        assert lines[-1] == f"OK verify n={n}", n
        assert sum(line.startswith("PASS") for line in lines) == (5 if n <= 5 else 4), n

    # S_n is enumerated once: every center's census is the one histogram
    calls = []
    real = oracle.inversion_histogram

    def counted(n, *center):
        calls.append(n)
        return real(n, *center)

    monkeypatch.setattr(oracle, "inversion_histogram", counted)
    code, out, _ = run_cli(capsys, "verify", "--n", "8")
    assert code == EXIT_OK
    assert calls == [8]


def test_verify_exits_one_when_a_check_fails(capsys, monkeypatch):
    real = oracle.inversion_histogram

    def miscounted(n):
        counts = real(n)
        return counts[:-1] + (counts[-1] + 1,)

    monkeypatch.setattr(oracle, "inversion_histogram", miscounted)
    code, out, err = run_cli(capsys, "verify", "--n", "4")
    assert code == EXIT_CHECK_FAILED == 1
    lines = out.splitlines()
    assert "FAIL distance distribution of S_4 matches the recurrence row" in lines
    assert lines[-1] == "FAILED verify n=4"
    assert err == ""


def test_verify_checks_the_censuses_against_the_ball_engine(capsys, monkeypatch):
    real = mahonian.ball_count

    def off_at_the_diameter(n, r):
        return real(n, r) + (r == mahonian.max_distance(n))

    monkeypatch.setattr(mahonian, "ball_count", off_at_the_diameter)
    code, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    assert "FAIL ball census matches ball_count at all r" in lines
    assert sum(line.startswith("PASS") for line in lines) == 4


def test_verify_rejects_large_groups(capsys):
    # the histogram's own range check refuses n before verify prints a line
    code, out, err = run_cli(capsys, "verify", "--n", "11")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error:") and "2 <= n <= 10, got 11" in err


@pytest.mark.parametrize("n", [0, 1])
def test_verify_rejects_groups_below_two(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--n", str(n))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error:") and f"2 <= n <= 10, got {n}" in err


@pytest.mark.parametrize(
    "argv",
    [("table", "--max-n", "60"), ("scan", "--t", "3", "--from", "2", "--to", "3000")],
)
def test_a_reader_closing_early_exits_141_silently(argv):
    # both write far more than a pipe holds, so the writer meets the closed end
    src = str(Path(kendallcodes.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "kendallcodes.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (EXIT_BROKEN_PIPE, b"")
    assert EXIT_BROKEN_PIPE == 141


def test_the_package_runs_as_the_cli_module():
    src = str(Path(kendallcodes.__file__).resolve().parents[1])
    for argv in (("verify", "--n", "2"), ("certify", "--n", "7", "--t", "3")):
        package, module = (
            subprocess.run(
                [sys.executable, "-m", name, *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src),
                timeout=60,
            )
            for name in ("kendallcodes", "kendallcodes.cli")
        )
        assert module.stdout
        assert (package.returncode, package.stdout) == (module.returncode, module.stdout)


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["sphere", "--n", "5"])  # --i is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:  # verdicts need no factoring budget
        main(["certify", "--n", "5", "--t", "2", "--factor-budget", "0"])
    assert info.value.code == 2


def test_options_belong_to_the_subcommands_that_read_them(capsys):
    ignored = [
        ["ball", "--n", "5", "--r", "3", "--jobs", "7"],
        ["ball", "--n", "5", "--r", "3", "--search-budget", "9"],
        ["ball", "--n", "5", "--r", "3", "--format", "pretty"],
        ["sphere", "--n", "5", "--i", "3", "--format", "tsv"],
        ["table", "--max-n", "4", "--format", "pretty"],
        ["certify", "--n", "5", "--t", "2", "--jobs", "2"],
        ["certify", "--n", "5", "--t", "2", "--search-budget", "9"],
        ["scan", "--t", "2", "--from", "4", "--to", "6", "--search-budget", "9"],
        ["verify", "--n", "4", "--format", "records"],
        ["verify", "--n", "4", "--jobs", "2"],
        ["verify", "--n", "4", "--search-budget", "9"],
        ["scan", "--t", "3", "--from", "4", "--to", "6", "--jobs", "2"],
    ]
    for argv in ignored:
        full = parse_outcome(build_parser().parse_args, argv)
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        # byte for byte what the full parser prints, whatever the Python version
        assert (info.value.code, out, err) == full, argv
        assert (info.value.code, out) == (2, ""), argv
        assert err.startswith("usage: kendallcodes [-h] "), argv
        unknown = " ".join(argv[-2:])
        assert err.endswith(f"\nkendallcodes: error: unrecognized arguments: {unknown}\n"), argv
    read = [
        ["certify", "--n", "5", "--t", "2", "--format", "tsv"],
        ["scan", "--t", "3", "--from", "4", "--to", "6", "--format", "pretty"],
        ["verify", "--n", "4"],
    ]
    for argv in read:
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()


def test_repeated_calls_print_identical_bytes(capsys):
    argv = ("certify", "--n", "13", "--t", "3")
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as info:
        main(["sphere", "--n", "5"])
    assert info.value.code == 2
    failed = capsys.readouterr()
    assert run_cli(capsys, *argv) == first
    with pytest.raises(SystemExit):
        main(["sphere", "--n", "5"])
    assert capsys.readouterr() == failed


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()


def test_table_options_take_argparse_names():
    args = build_parser().parse_args(["table", "--max-n", "5", "--max-r", "2"])
    assert (args.max_n, args.max_r) == (5, 2)
    assert build_parser().parse_args(["table", "--max-n", "5"]).max_r is None


REQUIRED = {
    "sphere": ("--n", "--i"),
    "ball": ("--n", "--r"),
    "certify": ("--n", "--t"),
    "scan": ("--t", "--from", "--to"),
    "table": ("--max-n",),
    "verify": ("--n",),
}
COMMANDS = tuple(REQUIRED)
# numbers (one negative), then spellings at the table reader's edges:
# ASCII digits it reads itself, int() spellings it leaves to argparse, and
# an empty value and one digit past the int-to-str limit, which argparse refuses
NUMBERS = ("5", "-3", "0", "05", "-0", "+5", "1_0", "\u0663", "", "1" * 4301)
# every option string of every subcommand, an abbreviation, the choices,
# numbers and tokens no parser knows
TOKENS = (
    *COMMANDS,
    *("--n", "--i", "--r", "--t", "--from", "--to", "--max-n", "--max-r", "--format"),
    *("--fo", "--n=5", "-h", "--help", "--", "tsv", "pretty", "records"),
    *NUMBERS,
    *("--jobs", "x"),
)
ARGV = st.lists(st.sampled_from(TOKENS), max_size=8)
# an option with its value: a second --n or --format repeats one, --max-r
# is table's one optional int, and xml is no format
OPTION_PIECES = st.one_of(
    st.tuples(st.sampled_from(("--n", "--max-r")), st.sampled_from(NUMBERS)),
    st.tuples(st.just("--format"), st.sampled_from(("tsv", "records", "pretty", "xml"))),
)


@st.composite
def command_lines(draw):
    """A subcommand's required options, each with a number, up to two
    more options with values, and a few tokens, in any order after the
    subcommand's name."""
    name = draw(st.sampled_from(COMMANDS))
    pieces = [[option, draw(st.sampled_from(NUMBERS))] for option in REQUIRED[name]]
    pieces += [list(piece) for piece in draw(st.lists(OPTION_PIECES, max_size=2))]
    pieces += [[token] for token in draw(st.lists(st.sampled_from(TOKENS), max_size=3))]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(ARGV, command_lines()))
def test_dispatch_parses_as_the_full_parser_does(argv):
    # parsing only: no command runs
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


@st.composite
def well_formed_lines(draw):
    """A subcommand's required options and some of its others, each once,
    with an ASCII integer or one of its choices, in any order."""
    name, _, _, options = draw(st.sampled_from(cli._GRAMMAR))
    integers = st.from_regex(r"-?[0-9]+", fullmatch=True)
    pieces = [
        [flag, draw(integers if kind is int else st.sampled_from(kind))]
        for flag, _, required, kind, _, _ in options
        if required or draw(st.booleans())
    ]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=200, deadline=None)
@given(well_formed_lines())
@example(["ball", "--n", "9" * 4300, "--r", "-0"])
@example(["table", "--max-r", "007", "--max-n", "5"])
def test_the_table_reader_takes_every_well_formed_line(argv):
    args = cli._read_args(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "13", "--t", "3", "--format", "xml"],
        ["certify", "--n", "13", "--t", "3", "--format", "tsv", "--format", "pretty"],
        ["certify", "--n", "13", "--t", "3", "--n", "5"],
        ["certify", "--n=13", "--t=3"],
        ["certify", "--fo", "tsv", "--n", "13", "--t", "3"],
        ["certify", "--n", "13"],
        ["certify", "--n", "13", "--t"],
        ["certify", "--n", "--t", "--t", "3"],
        ["certify", "--", "--n", "13", "--t", "3"],
        ["certify", "--n", "13", "--t", "3", "-h"],
        ["certify", "--n", "13", "--t", "3", "--jobs", "2"],
        ["ball", "--n", "+13", "--r", "3"],
        ["ball", "--n", "1_3", "--r", "3"],
        ["ball", "--n", "\u0661\u0663", "--r", "3"],
        ["ball", "--n", " 13", "--r", "3"],
        ["ball", "--n", "--13", "--r", "3"],
        ["ball", "--n", "", "--r", "3"],
        ["ball", "--n", "1" * 4301, "--r", "3"],
        ["table", "--max-n", "4", "--max-r", "x"],
        ["ball", "--format", "tsv", "--n", "5", "--r", "3"],
        ["Ball", "--n", "5", "--r", "3"],
        ["--n", "5"],
        [],
    ],
)
def test_the_table_reader_leaves_every_other_line_to_argparse(argv):
    assert cli._read_args(argv) is None
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


def test_subcommands_skip_the_top_level_pass(monkeypatch):
    parser = build_parser()
    calls = []
    full_pass = parser.parse_known_args

    def counted(*args, **kwargs):
        calls.append(args)
        return full_pass(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    for argv in (
        ["certify", "--n", "13", "--t", "3"],
        ["scan", "--t", "3", "--from", "4", "--to", "6"],
        ["ball", "--n", "5", "--r", "3"],
        ["sphere", "--n", "5", "--i", "3"],
        ["table", "--max-n", "3"],
        ["verify", "--n", "3"],
    ):
        assert main(argv) == EXIT_OK, argv
    assert calls == []
    for argv in ([], ["-h"], ["no-such-command"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert len(calls) == 3
