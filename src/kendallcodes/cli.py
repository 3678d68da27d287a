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
completes, so no budget can leave a verdict open.  One table,
``_GRAMMAR``, states every subcommand and option.  An argv made of a
subcommand's name and then pairs of one of its flags, spelled out and
given once, and a value (an ASCII integer within the int-to-str digit
limit, or one of the flag's choices), with every required flag present,
is read from that table directly.  Every other argv (help, ``--``,
``--n=5``, abbreviations, repeats, other spellings of an integer, a
missing option or an unknown token) goes to argparse, imported and
built from the same table only then, so its messages and exit codes are
argparse's own.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import accumulate
from math import factorial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import certifier, mahonian

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what shells report

if TYPE_CHECKING:
    import argparse
    from typing import Union

    # what a command reads: the table reader's namespace or argparse's
    Args = Union[SimpleNamespace, argparse.Namespace]


def cmd_sphere(args: Args) -> int:
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


def cmd_ball(args: Args) -> int:
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


def cmd_certify(args: Args) -> int:
    return _emit_certificates([certifier.certify(args.n, args.t)], args.format)


def cmd_scan(args: Args) -> int:
    return _emit_certificates(certifier.scan(args.t, args.n_from, args.n_to), args.format)


def cmd_table(args: Args) -> int:
    # imported here, as no other one-shot command needs the table module.
    # Checked at the call, so a refused table writes nothing; the lines come
    # joined column by column a row at a time, and one write per line keeps
    # the output streaming (one full row is over 16 MB at n = 256).
    from .table import table_tsv_lines

    lines = table_tsv_lines(args.max_n, args.max_r)
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")
    return EXIT_OK


def cmd_verify(args: Args) -> int:
    # imported here: no other subcommand needs the brute force, and a
    # one-shot process should not pay for loading it.  The table module
    # loads on the first read of mahonian.build_table below, which stays
    # there because the benchmark's tracer counts table cells at that site
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


_FORMAT = (
    "--format",
    "format",
    False,
    ("tsv", "records", "pretty"),
    "records",
    "output style (default: records)",
)

# The command line's one grammar, which _read_args and build_parser both
# read.  A subcommand is (name, help, function, options), and an option is
# (flag, dest, required, int or its choices, default, help), in the order
# argparse lists them.
_GRAMMAR = (
    (
        "sphere",
        "count permutations at distance i",
        cmd_sphere,
        (
            ("--n", "n", True, int, None, "group size"),
            ("--i", "i", True, int, None, "distance (out of range gives 0)"),
        ),
    ),
    (
        "ball",
        "count permutations within distance r",
        cmd_ball,
        (
            ("--n", "n", True, int, None, "group size"),
            ("--r", "r", True, int, None, "radius (clamps at the diameter)"),
        ),
    ),
    (
        "certify",
        "divisibility verdict for one (n, t)",
        cmd_certify,
        (
            _FORMAT,
            ("--n", "n", True, int, None, "group size"),
            ("--t", "t", True, int, None, "error-correction radius"),
        ),
    ),
    (
        "scan",
        "certify a range of group sizes",
        cmd_scan,
        (
            _FORMAT,
            ("--t", "t", True, int, None, "error-correction radius"),
            ("--from", "n_from", True, int, None, "first group size"),
            ("--to", "n_to", True, int, None, "last group size"),
        ),
    ),
    (
        "table",
        "stream sphere/ball sizes as TSV",
        cmd_table,
        (
            (
                "--max-n",
                "max_n",
                True,
                int,
                None,
                f"largest group size (at most {mahonian.MAX_TABLE_N})",
            ),
            ("--max-r", "max_r", False, int, None, "largest distance per group size"),
        ),
    ),
    (
        "verify",
        "brute-force cross-checks for one n",
        cmd_verify,
        (("--n", "n", True, int, None, "group size (at most 10)"),),
    ),
)

# for each subcommand: its function, each flag's dest and kind, the dests
# it requires and every dest's default
_READER = {
    name: (
        func,
        {flag: (dest, kind) for flag, dest, _, kind, _, _ in options},
        frozenset(dest for _, dest, required, _, _, _ in options if required),
        {dest: default for _, dest, _, _, default, _ in options},
    )
    for name, _, func, options in _GRAMMAR
}


def _read_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """argv's namespace if it is ``<command> (--flag value)*`` as _GRAMMAR
    spells it, else None.

    Each flag must be one of the subcommand's, spelled out and given
    once, each int ``-?[0-9]+`` in ASCII within the int-to-str digit
    limit, each choice one of its choices, and every required flag
    present.  The namespace's ``vars()`` are then argparse's for the same
    argv: ``command``, ``func`` and every dest, with its default if not
    given.  Nothing is printed or refused here.
    """
    if len(argv) % 2 == 0 or argv[0] not in _READER:
        return None
    func, options, required, defaults = _READER[argv[0]]
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in options:
            return None
        dest, kind = options[flag]
        if dest in values:
            return None
        if kind is int:
            digits = text.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(text)
            except ValueError:  # more digits than int() converts
                return None
        elif text in kind:
            value = text
        else:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **{**defaults, **values}, func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's full grammar as argparse, built from _GRAMMAR once per process."""
    # imported here: a well-formed argv never needs it, and importing and
    # building it costs a one-shot process more than its answer
    import argparse

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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, options in _GRAMMAR:
        p = sub.add_parser(name, help=text)
        for flag, dest, required, kind, default, line in options:
            typed = {"type": int} if kind is int else {"choices": kind}
            p.add_argument(flag, dest=dest, required=required, default=default, help=line, **typed)
        p.set_defaults(func=func)
    return parser


# The table reader answers the argv that scripts and sweeps send; argparse
# reads the rest whole, with the top-level parser, so its help, usage lines,
# messages and exit codes are its own.  It is imported and built only then.
def _parse_args(argv: Optional[Sequence[str]]) -> Args:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    return build_parser().parse_args(argv) if args is None else args


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
