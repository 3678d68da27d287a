"""Command-line interface, driven in-process through main(argv).

Output lines and exit codes are frozen; records printed by certify/scan
must parse back into the exact certificates the library produces.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import kendallcodes
from kendallcodes import certifier, mahonian, oracle
from kendallcodes.certifier import (
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    check_certificate,
    parse_certificate,
)
from kendallcodes.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from kendallcodes.mahonian import MAX_TABLE_N, ball_count, sphere_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # S(n, i) = S(n, D - i): unfolded, i = 19899 at n = 200 takes 3979800
    # steps, past the bound, while S(200, 1) takes one
    assert run_cli(capsys, "sphere", "--n", "200", "--i", "19899") == (EXIT_OK, "199\n", "")
    for n, i in ((13, 40), (13, 75), (13, 78), (20, 150)):
        unfolded = ball_count(n, i) - ball_count(n, i - 1)
        assert run_cli(capsys, "sphere", "--n", str(n), "--i", str(i)) == (
            EXIT_OK,
            f"{unfolded}\n",
            "",
        ), (n, i)


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
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
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
