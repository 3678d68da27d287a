"""Command-line interface.

Subcommands
-----------
sphere    exact count of permutations at one distance from a center
ball      exact count of permutations within one distance of a center
certify   divisibility verdict on a perfect t-code in S_n
scan      certify a whole range of group sizes at one radius
table     stream sphere and ball sizes as TSV
verify    cross-check the recurrence against brute-force enumeration

Exit codes: 0 success (including proven nonexistence), 2 validation error,
3 inconclusive verdict.  All numeric output is exact decimal; records
(format v2) are stable byte-for-byte for fixed inputs, so they can be
diffed and archived.  Verdicts come from the n-smooth split of the ball,
which always completes, so no budget can leave a verdict open.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import certifier, mahonian, oracle
from .numtheory import factorial

EXIT_OK = 0
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
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("tsv", "records", "pretty"),
        default=None,
        help="output style where applicable (default: records for certify/scan, tsv for table)",
    )
    common.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for scan (default 1)"
    )
    common.add_argument(
        "--search-budget",
        type=int,
        default=oracle.DEFAULT_SEARCH_BUDGET,
        help="node budget for exhaustive code searches in verify",
    )
    common.add_argument(
        "--table-cap",
        type=int,
        default=certifier.DEFAULT_TABLE_CAP,
        help="largest group size for table, and for radii beyond the closed forms (above 5)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", parents=[common], help="count permutations at distance i")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--i", type=int, required=True, help="distance (out of range gives 0)")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("ball", parents=[common], help="count permutations within distance r")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--r", type=int, required=True, help="radius (clamps at the diameter)")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("certify", parents=[common], help="divisibility verdict for one (n, t)")
    p.add_argument("--n", type=int, required=True, help="group size")
    p.add_argument("--t", type=int, required=True, help="error-correction radius")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", parents=[common], help="certify a range of group sizes")
    p.add_argument("--t", type=int, required=True, help="error-correction radius")
    p.add_argument("--from", dest="n_from", type=int, required=True, help="first group size")
    p.add_argument("--to", dest="n_to", type=int, required=True, help="last group size")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", parents=[common], help="stream sphere/ball sizes as TSV")
    p.add_argument("--max-n", dest="max_n", type=int, required=True, help="largest group size")
    p.add_argument(
        "--max-r", dest="max_r", type=int, default=None, help="largest distance per group size"
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[common], help="brute-force cross-checks for one n")
    p.add_argument("--n", type=int, required=True, help="group size (at most 10)")
    p.set_defaults(func=cmd_verify)
    return parser


def cmd_sphere(args: argparse.Namespace) -> int:
    n, i = args.n, args.i
    if n >= 2 and not 0 <= i <= mahonian.max_distance(n):
        print(0)
        return EXIT_OK
    ball = certifier.ball_value(n, i, args.table_cap)
    print(ball - (certifier.ball_value(n, i - 1, args.table_cap) if i else 0))
    return EXIT_OK


def cmd_ball(args: argparse.Namespace) -> int:
    print(certifier.ball_value(args.n, args.r, args.table_cap))
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
    cert = certifier.certify(args.n, args.t, table_cap=args.table_cap)
    _emit_certificates([cert], args.format or "records")
    return _certificates_exit_code([cert])


def cmd_scan(args: argparse.Namespace) -> int:
    certs = certifier.scan(
        args.t,
        args.n_from,
        args.n_to,
        table_cap=args.table_cap,
        jobs=args.jobs,
    )
    _emit_certificates(certs, args.format or "records")
    return _certificates_exit_code(certs)


def cmd_table(args: argparse.Namespace) -> int:
    if args.max_n > args.table_cap:
        raise ValueError(
            f"table up to n={args.max_n} exceeds the cap {args.table_cap}; "
            "raise --table-cap if you mean it"
        )
    table = mahonian.build_table(args.max_n)
    for line in mahonian.table_tsv_lines(table, max_r=args.max_r):
        print(line)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    if not 2 <= n <= oracle.MAX_HISTOGRAM_N:
        raise ValueError(
            f"verify enumerates all of S_n and supports 2 <= n <= {oracle.MAX_HISTOGRAM_N}, got {n}"
        )
    if args.search_budget < 1:
        raise ValueError(f"search budget must be positive, got {args.search_budget}")
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
        result = oracle.search_perfect_code(n, 1, node_budget=args.search_budget)
        cert = certifier.certify(n, 1, table_cap=args.table_cap)
        if result.outcome == oracle.ABORTED_BUDGET:
            print(f"SKIP perfect single-error code search hit the node budget at n={n}")
        else:
            consistent = not (
                result.outcome == oracle.FOUND
                and cert.verdict != certifier.INCONCLUSIVE
            )
            report("exhaustive single-error code search agrees with the certificate", consistent)
    print(("OK" if failures == 0 else "FAILED") + f" verify n={n}")
    return EXIT_OK if failures == 0 else 1


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
