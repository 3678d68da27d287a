"""Command-line interface.

Subcommands
-----------
sphere    exact count of permutations at one distance from a center
ball      exact count of permutations within one distance of a center
certify   divisibility verdict on a perfect t-code in S_n
scan      certify a whole range of group sizes at one radius
table     stream sphere and ball sizes as TSV
verify    cross-check the recurrence against brute-force enumeration

Exit codes: 0 success (including proven nonexistence), 1 a failed
``verify`` check, 2 validation error, 3 inconclusive verdict.  All
numeric output is exact decimal; records (format v2) are stable
byte-for-byte for fixed inputs, so they can be diffed and archived.
Verdicts come from the n-smooth split of the ball, which always
completes, so no budget can leave a verdict open.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import factorial
from typing import Optional, Sequence

from . import certifier, mahonian, oracle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kendallcodes",
        description=(
            "Exact sphere and ball sizes in the symmetric group under the "
            "Kendall tau metric, and divisibility certificates against "
            "perfect permutation codes."
        ),
        epilog=(
            f"Balls are served for 2 <= n <= {certifier.MAX_GROUP_N} while"
            f" min(n, r)*r <= {certifier.MAX_BALL_WORK}, r clamped at the diameter."
        ),
    )
    records = argparse.ArgumentParser(add_help=False)
    records.add_argument(
        "--format",
        choices=("tsv", "records", "pretty"),
        default="records",
        help="output style (default: records)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", help="count permutations at distance i")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--i", type=int, required=True, help="distance (out of range gives 0)")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("ball", help="count permutations within distance r")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--r", type=int, required=True, help="radius (clamps at the diameter)")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("certify", parents=[records], help="divisibility verdict for one (n, t)")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--t", type=int, required=True, help="error-correction radius")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", parents=[records], help="certify a range of group sizes")
    p.add_argument("--t", type=int, required=True, help="error-correction radius")
    p.add_argument("--from", dest="n_from", type=int, required=True, help="first group size")
    p.add_argument("--to", dest="n_to", type=int, required=True, help="last group size")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="stream sphere/ball sizes as TSV")
    p.add_argument(
        "--max-n",
        dest="max_n",
        type=int,
        required=True,
        help=f"largest group size (at most {mahonian.MAX_TABLE_N})",
    )
    p.add_argument(
        "--max-r", dest="max_r", type=int, default=None, help="largest distance per group size"
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="brute-force cross-checks for one n")
    p.add_argument("--n", type=int, required=True, help="group size (at most 10)")
    p.set_defaults(func=cmd_verify)
    return parser


def cmd_sphere(args: argparse.Namespace) -> int:
    n, i = args.n, args.i
    if 2 <= n <= certifier.MAX_GROUP_N and not 0 <= i <= mahonian.max_distance(n):
        print(0)
        return EXIT_OK
    ball = certifier.ball_value(n, i)
    print(ball - (certifier.ball_value(n, i - 1) if i else 0))
    return EXIT_OK


def cmd_ball(args: argparse.Namespace) -> int:
    print(certifier.ball_value(args.n, args.r))
    return EXIT_OK


def _emit_certificates(certs: list[certifier.Certificate], fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(certifier.RECORD_FIELDS))
        for cert in certs:
            values = certifier.certificate_values(cert)
            print("\t".join(values[name] for name in certifier.RECORD_FIELDS))
    elif fmt == "pretty":
        blocks = [certifier.format_certificate_pretty(cert) for cert in certs]
        print("\n\n".join(blocks))
    else:
        for cert in certs:
            print(certifier.format_certificate(cert))


def _certificates_exit_code(certs: list[certifier.Certificate]) -> int:
    if any(c.verdict == certifier.INCONCLUSIVE for c in certs):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    cert = certifier.certify(args.n, args.t)
    _emit_certificates([cert], args.format)
    return _certificates_exit_code([cert])


def cmd_scan(args: argparse.Namespace) -> int:
    certs = certifier.scan(args.t, args.n_from, args.n_to, jobs=args.jobs)
    _emit_certificates(certs, args.format)
    return _certificates_exit_code(certs)


def cmd_table(args: argparse.Namespace) -> int:
    # checked here, so a refused table writes nothing; one write per line
    # keeps the output streaming (one full row is over 16 MB at n = 256)
    lines = mahonian.table_tsv_lines(args.max_n, args.max_r)
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    if not 2 <= n <= oracle.MAX_HISTOGRAM_N:
        raise ValueError(
            f"verify enumerates all of S_n and supports 2 <= n <= {oracle.MAX_HISTOGRAM_N}, got {n}"
        )
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    histogram = oracle.inversion_histogram(n)
    table = mahonian.build_table(n)
    row = table.row(n)
    report(f"distance distribution of S_{n} matches the recurrence row", histogram.counts == row)
    report(f"row sums to {n}!", sum(row) == factorial(n))
    report("row is symmetric end to end", row == row[::-1])
    if n <= oracle.MAX_CENSUS_N:
        # one distance count per center (the identity's is the histogram);
        # its prefix sums are the ball censuses
        reversal = tuple(range(n, 0, -1))
        counts = (histogram.counts, oracle.inversion_histogram(n, reversal).counts)
        ok = all(
            sum(census[: r + 1]) == mahonian.ball_size(table, n, r).value
            for census in counts
            for r in range(0, min(3, mahonian.max_distance(n)) + 1)
        )
        report("ball censuses around two centers match row prefix sums", ok)
    if n <= oracle.MAX_SEARCH_N - 1:
        found = oracle.search_perfect_code(n, 1).outcome == oracle.FOUND
        consistent = not (found and certifier.certify(n, 1).verdict != certifier.INCONCLUSIVE)
        report("exhaustive single-error code search agrees with the certificate", consistent)
    print(("OK" if failures == 0 else "FAILED") + f" verify n={n}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
