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
``verify`` check, 2 validation error, 3 inconclusive verdict, 141 the
reader closed standard output early (``| head``).  All
numeric output is exact decimal; records (format v2) are stable
byte-for-byte for fixed inputs, so they can be diffed and archived.
Verdicts come from the n-smooth split of the ball, which always
completes, so no budget can leave a verdict open.  An argv that starts
with a subcommand's name is parsed by that subcommand's parser alone,
with the same result, messages and exit codes as the full parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from gettext import gettext
from itertools import accumulate
from math import factorial
from typing import Iterable, Optional, Sequence

from . import certifier, mahonian

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what shells report


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    # parsing leaves the parsers unchanged, so one build serves every call
    parser = argparse.ArgumentParser(
        prog="kendallcodes",
        description=(
            "Exact sphere and ball sizes in the symmetric group under the "
            "Kendall tau metric, and divisibility certificates against "
            "perfect permutation codes."
        ),
        epilog=(
            f"Balls are served for 2 <= n <= {certifier.MAX_GROUP_N} while min(n, r)*r <="
            f" {certifier.MAX_BALL_WORK}, r = min(t, max(D - 1 - t, n)) with D = n(n-1)/2."
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
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="stream sphere/ball sizes as TSV")
    largest = f"largest group size (at most {mahonian.MAX_TABLE_N})"
    p.add_argument("--max-n", type=int, required=True, help=largest)
    p.add_argument("--max-r", type=int, help="largest distance per group size")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="brute-force cross-checks for one n")
    p.add_argument("--n", type=int, required=True, help="group size (at most 10)")
    p.set_defaults(func=cmd_verify)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command line's full grammar, built once per process."""
    return _parsers()[0]


# A call that names its subcommand first goes straight to that
# subcommand's parser: the top-level parser's nested pass over the same
# tokens cost more than the certificate the call prints.  The full parser
# stays the single grammar; the subcommand parsers are its own, and every
# other argv (empty, -h, --, an unknown command) is parsed by it whole.
def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def cmd_sphere(args: argparse.Namespace) -> int:
    n, i = args.n, args.i
    if 2 <= n <= certifier.MAX_GROUP_N:
        top = mahonian.max_distance(n)
        if not 0 <= i <= top:
            print(0)
            return EXIT_OK
        # reversal maps distance i to D - i; the nearer end's two balls
        # measure no more than the farther end's, so it is never refused
        # where the farther is not
        i = min(i, top - i)
    try:
        ball = certifier.ball_value(n, i)
    except ValueError as exc:
        if i == args.i:
            raise
        raise ValueError(f"distance {args.i}: {exc}") from None
    print(ball - (certifier.ball_value(n, i - 1) if i else 0))
    return EXIT_OK


def cmd_ball(args: argparse.Namespace) -> int:
    print(certifier.ball_value(args.n, args.r))
    return EXIT_OK


def _emit_certificates(certs: Iterable[certifier.Certificate], fmt: str) -> int:
    """Print each certificate as soon as it is made; 3 if any verdict is INCONCLUSIVE."""
    if fmt == "tsv":
        print("\t".join(certifier.RECORD_FIELDS))
    code = EXIT_OK
    for i, cert in enumerate(certs):
        if fmt == "tsv":
            print("\t".join(certifier.certificate_values(cert)))
        elif fmt == "pretty":
            # a blank line between blocks
            print(("\n" if i else "") + certifier.format_certificate_pretty(cert))
        else:
            print(certifier.format_certificate(cert))
        if cert.verdict == certifier.INCONCLUSIVE:
            code = EXIT_INCONCLUSIVE
    return code


def cmd_certify(args: argparse.Namespace) -> int:
    return _emit_certificates([certifier.certify(args.n, args.t)], args.format)


def cmd_scan(args: argparse.Namespace) -> int:
    return _emit_certificates(certifier.scan(args.t, args.n_from, args.n_to), args.format)


def cmd_table(args: argparse.Namespace) -> int:
    # checked here, so a refused table writes nothing; the lines come joined
    # column by column a row at a time, and one write per line keeps the
    # output streaming (one full row is over 16 MB at n = 256)
    lines = mahonian.table_tsv_lines(args.max_n, args.max_r)
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here: no other subcommand needs the brute force, and a
    # one-shot process should not pay for loading it
    from . import oracle

    n = args.n
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    histogram = oracle.inversion_histogram(n)  # refuses n outside 2..10 before any output
    row = mahonian.build_table(n).row(n)
    report(f"distance distribution of S_{n} matches the recurrence row", histogram == row)
    report(f"row sums to {n}!", sum(row) == factorial(n))
    report("row is symmetric end to end", row == row[::-1])
    # the histogram's prefix sums are every center's ball censuses, checked
    # against the serving engine
    balls = [mahonian.ball_count(n, r) for r in range(mahonian.max_distance(n) + 1)]
    report("ball census matches ball_count at all r", list(accumulate(histogram)) == balls)
    # n <= 5 only: perfbench/workloads.verify_checks counts these PASS lines
    # for the `oracle` workload's verify --n 2..8, so searching (6, 1) here
    # as well waits for a change to the benchmark
    if n <= oracle.MAX_SEARCH_N - 1:
        found = oracle.search_perfect_code(n, 1).outcome == oracle.FOUND
        consistent = not (found and certifier.certify(n, 1).verdict != certifier.INCONCLUSIVE)
        report("exhaustive single-error code search agrees with the certificate", consistent)
    print(("OK" if failures == 0 else "FAILED") + f" verify n={n}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (``| head``); point stdout at /dev/null so
        # the interpreter's last flush of what is still buffered is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
