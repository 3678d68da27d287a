"""Command-line interface, driven in-process through main(argv).

Output lines and exit codes are frozen; records printed by certify/scan
must parse back into the exact certificates the library produces.
"""

import sys

import pytest

from kendallcodes import certifier
from kendallcodes.certifier import (
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    RECORD_FIELDS,
    check_certificate,
    parse_certificate,
)
from kendallcodes.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from kendallcodes.mahonian import sphere_size


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

    code, _, err = run_cli(capsys, "sphere", "--n", "140", "--i", "10")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")

    code, out, _ = run_cli(
        capsys, "sphere", "--n", "140", "--i", "10", "--table-cap", "140"
    )
    assert code == EXIT_OK
    assert out.strip() == str(sphere_size(table150, 140, 10))


def test_sphere_rejects_tiny_group(capsys):
    code, _, err = run_cli(capsys, "sphere", "--n", "1", "--i", "0")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")


def test_ball_values(capsys, table150):
    assert run_cli(capsys, "ball", "--n", "13", "--r", "3") == (EXIT_OK, "441\n", "")
    assert run_cli(capsys, "ball", "--n", "13", "--r", "4") == (EXIT_OK, "1715\n", "")
    assert run_cli(capsys, "ball", "--n", "2", "--r", "0") == (EXIT_OK, "1\n", "")
    assert run_cli(capsys, "ball", "--n", "6", "--r", "7") == (EXIT_OK, "360\n", "")

    code, _, _ = run_cli(capsys, "ball", "--n", "140", "--r", "7")
    assert code == EXIT_VALIDATION
    code, out, _ = run_cli(capsys, "ball", "--n", "140", "--r", "7", "--table-cap", "140")
    assert code == EXIT_OK
    assert out.strip() == str(sum(table150.row(140)[:8]))


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


def test_scan_parallel_output_matches_serial(capsys):
    _, serial, _ = run_cli(capsys, "scan", "--t", "3", "--from", "4", "--to", "12")
    _, parallel, _ = run_cli(
        capsys, "scan", "--t", "3", "--from", "4", "--to", "12", "--jobs", "2"
    )
    assert parallel == serial


def test_scan_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--t", "3", "--from", "13", "--to", "13", "--format", "tsv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "\t".join(RECORD_FIELDS)
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
    code, _, err = run_cli(capsys, "table", "--max-n", "200")
    assert code == EXIT_VALIDATION
    assert "table-cap" in err


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

    code, out, _ = run_cli(capsys, "verify", "--n", "9")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 3  # census stops at n=8


def test_verify_skips_search_on_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--search-budget", "1")
    assert code == EXIT_OK
    assert any(line.startswith("SKIP") for line in out.splitlines())
    assert "OK verify n=5" in out


def test_verify_refuses_a_nonpositive_budget_before_any_output(capsys):
    for n in ("4", "9"):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--search-budget", "0")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:") and "budget" in err


def test_verify_rejects_large_groups(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "11")
    assert code == EXIT_VALIDATION
    assert err.startswith("error:")


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
