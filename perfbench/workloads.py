"""Workloads of the kendallcodes benchmark and the checks on their outputs.

A workload is one *pass*: a seeded list of operations, each a CLI
invocation (``kendallcodes.cli.main(argv)``) or one library call.  The
benchmark repeats the same pass until its time is up.  Every operation
says what it must produce, and the checks here decide that from the
benchmark's own arithmetic, never from the package's:

* ball sizes come from rows of the inversion-count recurrence cut at
  column t (O(n*t) additions, no closed forms, no full table);
* the verdict class comes from n! mod B: a perfect t-code is ruled out
  by divisibility exactly when B does not divide n!;
* the ``table`` TSV is compared by CRC-32 and length with the same text
  generated from the benchmark's own full rows.

Why each workload exists:

* ``closed-form``: radii 2..5 over n in 2..10000, where balls are O(1)
  polynomials and the time goes to n!, trial division and serialization.
  It bypasses the recurrence table.  It reaches past n = 1561, where
  INCONCLUSIVE records stop serializing (their quotient n!/B has more
  than 4300 digits, Python's int-to-str limit); those records count as
  failed and are not hidden.
* ``recurrence``: radii beyond the closed forms at n <= 128, the default
  table cap.  The time goes to building inversion tables (``certify``
  and again in ``check_certificate`` for every record), to Brent rho on
  30-45 digit balls, and to 97 MB of TSV.  n! is tiny here.
* ``oracle``: brute-force cross-checks (``verify``) and the exhaustive
  perfect-code search, the only place where ``oracle`` and ``perms`` do
  the work; plus one certificate per (n, t) in the same small groups so
  the search has verdicts to agree with.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

CERTIFY_MAX_N = 10_000
TABLE_CAP = 128
INT_STR_DIGITS = 4300  # CPython's default int <-> str limit


@dataclass
class Op:
    """One timed operation of a pass.

    ``kind`` is ``records`` (certify/scan: ``expect`` lists the (n, t) of
    every record it must print), ``table`` (``expect`` is max_n),
    ``verify`` (``expect`` is n) or ``search`` (a library call of
    ``search_perfect_code(*expect)``, no argv).
    """

    kind: str
    argv: tuple[str, ...]
    expect: object


@dataclass
class Outcome:
    """What the checks made of one operation's output."""

    attempted: int = 0
    verified: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)

    def fail(self, reason: str, wrong: Optional[str] = None) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if wrong is not None:
            self.wrong.append(wrong)


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one drawn uniformly from each of k equal slices.

    Stratifying keeps the mix of sizes (and so the share of records past
    the serialization threshold) nearly the same from seed to seed.
    """
    width = (hi - lo + 1) / k
    return [lo + int(i * width + rng.random() * width) for i in range(k)]


def _certify(n: int, t: int) -> Op:
    return Op("records", ("certify", "--n", str(n), "--t", str(t)), [(n, t)])


def _scan(t: int, n_from: int, n_to: int) -> Op:
    argv = ("scan", "--t", str(t), "--from", str(n_from), "--to", str(n_to))
    return Op("records", argv, [(n, t) for n in range(n_from, n_to + 1)])


def closed_form_pass(rng: random.Random, tiny: bool) -> list[Op]:
    certifies, blocks, block_len = (3, 2, 4) if tiny else (200, 20, 5)
    ops = []
    for t in range(2, 6):
        ops += [_certify(n, t) for n in _strata(rng, 2, CERTIFY_MAX_N, certifies)]
        starts = _strata(rng, 2, CERTIFY_MAX_N - block_len + 1, blocks)
        ops += [_scan(t, s, s + block_len - 1) for s in starts]
    rng.shuffle(ops)
    return ops


def recurrence_pass(rng: random.Random, tiny: bool) -> list[Op]:
    """A fixed Latin design of ``certify`` calls, the two scans and the table,
    in seeded order.

    The i-th call has n at the middle of the i-th of equal slices of
    2..max_n and t = 6 + 7i mod 25, so each radius comes up equally often
    and every size of n meets a spread of radii.  The design is not drawn
    from the seed: certify's cost climbs steeply with n and jumps with the
    factors of the ball, so with drawn (n, t) the median operation moved
    by 15 % from seed to seed.
    """
    max_n, certifies = (12, 4) if tiny else (TABLE_CAP, 100)
    width = (max_n - 1) / certifies
    ops = [_certify(2 + int((i + 0.5) * width), 6 + 7 * i % 25) for i in range(certifies)]
    ops += [_scan(6, 2, max_n), _scan(30, 2, max_n)]
    ops.append(Op("table", ("table", "--max-n", str(max_n)), max_n))
    rng.shuffle(ops)
    return ops


def oracle_pass(rng: random.Random, tiny: bool) -> list[Op]:
    max_n = 5 if tiny else 8
    ops = [Op("verify", ("verify", "--n", str(n)), n) for n in range(2, max_n + 1)]
    ops.append(Op("search", (), (6, 1)))
    ops += [
        _certify(n, t) for n in range(2, max_n + 1) for t in range(math.comb(n, 2) + 1)
    ]
    rng.shuffle(ops)
    return ops


PASSES = {
    "closed-form": closed_form_pass,
    "recurrence": recurrence_pass,
    "oracle": oracle_pass,
}


class Expectations:
    """The benchmark's own answers, computed lazily and cached per process."""

    def __init__(self) -> None:
        self._balls: dict[int, list[int]] = {}
        self._verdicts: dict[tuple[int, int], bool] = {}
        self._tsv: dict[int, tuple[int, int]] = {}

    def ball(self, n: int, t: int) -> int:
        """B(n, t) from recurrence rows truncated at column t."""
        balls = self._balls.get(t)
        if balls is None or len(balls) <= n:
            balls = _truncated_balls(t, max(n, CERTIFY_MAX_N if t <= 5 else TABLE_CAP))
            self._balls[t] = balls
        return balls[n]

    def nonexistent(self, n: int, t: int) -> bool:
        """Whether divisibility rules out a perfect t-code: B(n, t) does not divide n!."""
        key = (n, t)
        if key not in self._verdicts:
            ball = self.ball(n, t)
            residue = 1
            for k in range(2, n + 1):
                residue = residue * k % ball
            self._verdicts[key] = residue != 0
        return self._verdicts[key]

    def unserializable(self, n: int, t: int) -> bool:
        """INCONCLUSIVE with a quotient n!/B longer than the int-to-str limit."""
        if self.nonexistent(n, t):
            return False
        return math.factorial(n) // self.ball(n, t) >= 10**INT_STR_DIGITS

    def tsv(self, max_n: int) -> tuple[int, int]:
        """(length, CRC-32) of ``table --max-n max_n`` output, from the benchmark's rows."""
        if max_n not in self._tsv:
            self._tsv[max_n] = _tsv_digest(max_n)
        return self._tsv[max_n]


def _next_row(row: list[int], n: int, width: int) -> list[int]:
    """Counts S(n, i) for i < width from row n - 1 (possibly cut short).

    S(n, i) = sum of S(n-1, j) for i-n < j <= i needs no column of row
    n - 1 beyond i, so a row cut at column t yields the next row cut at t.
    """
    prefix = list(accumulate(row))
    top = len(row) - 1
    return [prefix[min(i, top)] - (prefix[i - n] if i >= n else 0) for i in range(width)]


def _truncated_balls(t: int, n_max: int) -> list[int]:
    """[B(n, t) for n in 0..n_max] from rows cut at column t; index 0 is unused."""
    row = [1] + [0] * t  # n = 1
    balls = [0, 1]
    for n in range(2, n_max + 1):
        row = _next_row(row, n, t + 1)
        balls.append(sum(row))
    return balls


def _tsv_digest(max_n: int) -> tuple[int, int]:
    text = b"n\ti\tsphere\tball\n"
    length, crc = len(text), zlib.crc32(text)
    row = [1]
    for n in range(2, max_n + 1):
        row = _next_row(row, n, n * (n - 1) // 2 + 1)
        text = "".join(
            f"{n}\t{i}\t{count}\t{ball}\n"
            for i, (count, ball) in enumerate(zip(row, accumulate(row)))
        ).encode()
        length += len(text)
        crc = zlib.crc32(text, crc)
    return length, crc


VERDICT_NONEXISTENT = ("NONEXISTENT_PRIME_FACTOR", "NONEXISTENT_NOT_DIVIDING")


def check_records(
    expect: list[tuple[int, int]],
    certs: list,
    exit_code: Optional[int],
    stderr: str,
    oracle: Expectations,
) -> Outcome:
    """Judge the records of one certify/scan invocation.

    ``certs`` holds, per printed line in order, the parsed certificate and
    whether ``check_certificate`` accepted it (None for a line that did
    not parse).  A record fails when it is missing, unparsable, rejected
    by the checker, or disagrees with the benchmark's ball or verdict
    class; all but a missing record are wrong output.  A missing record is
    classified: ``unserializable`` (INCONCLUSIVE with a quotient over the
    int-to-str limit, which aborts the invocation), ``after_unserializable``
    (later in the same scan, never printed because of it) or ``missing``.
    """
    out = Outcome(attempted=len(expect))
    by_key = {}
    for index, (cert, accepted) in enumerate(certs):
        if cert is None:
            out.fail("unparsable", f"line {index} does not parse")
            continue
        key = (cert.n, cert.t)
        if key not in expect or key in by_key:
            out.fail("unexpected", f"unexpected record n={cert.n} t={cert.t}")
            continue
        by_key[key] = (cert, accepted)
    aborted = False
    for n, t in expect:
        found = by_key.get((n, t))
        if found is None:
            if aborted:
                out.fail("after_unserializable")
            elif _hit_str_limit(oracle, n, t, stderr):
                aborted = True
                out.fail("unserializable")
            else:
                said = stderr.strip().splitlines()[-1:]
                out.fail("missing", f"record n={n} t={t} missing (exit {exit_code}) {said}")
            continue
        cert, accepted = found
        if not accepted:
            out.fail("rejected", f"check_certificate rejects n={n} t={t}")
        elif cert.ball != oracle.ball(n, t):
            out.fail("wrong_ball", f"ball of n={n} t={t} is {cert.ball}")
        elif (cert.verdict in VERDICT_NONEXISTENT) != oracle.nonexistent(n, t):
            out.fail("wrong_verdict", f"verdict of n={n} t={t} is {cert.verdict}")
        else:
            out.verified += 1
    if out.verified == out.attempted:
        inconclusive = any(not oracle.nonexistent(n, t) for n, t in expect)
        if exit_code != (3 if inconclusive else 0):
            out.wrong.append(f"exit code {exit_code} after {len(expect)} good records")
    return out


def _hit_str_limit(oracle: Expectations, n: int, t: int, stderr: str) -> bool:
    """The known int-to-str defect: the record cannot be printed, and the CLI said so."""
    return "integer string conversion" in stderr and oracle.unserializable(n, t)


def verify_checks(n: int) -> int:
    """Number of PASS lines ``verify --n n`` prints when every check holds."""
    return 3 + (n <= 8) + (n <= 5)


def check_verify(n: int, text: str, exit_code: Optional[int]) -> Outcome:
    """All of ``verify --n n``'s checks pass, followed by its OK line."""
    out = Outcome(attempted=verify_checks(n))
    lines = text.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    others = [line for line in lines if not line.startswith("PASS ")]
    if exit_code == 0 and len(passed) == out.attempted and others == [f"OK verify n={n}"]:
        out.verified = out.attempted
    else:
        out.failures["verify"] = out.attempted
        out.wrong.append(f"verify --n {n} exit {exit_code}: {others}")
    return out


def check_search(result) -> Outcome:
    """No perfect single-error-correcting code exists in S_6.

    Divisibility cannot show it (6 divides 720); the exhaustive search
    must, and Buzaglo and Etzion (IEEE T-IT 2015) report none for
    4 <= n <= 10.
    """
    out = Outcome(attempted=1)
    if result is not None and result.outcome == "EXHAUSTED_NONE":
        out.verified = 1
    else:
        outcome = None if result is None else result.outcome
        out.fail("search", f"search_perfect_code(6, 1) gave {outcome}")
    return out


def check_table(
    max_n: int, length: int, crc: int, exit_code: Optional[int], oracle: Expectations
) -> Outcome:
    """The whole TSV matches the benchmark's own, byte for byte (by length and CRC-32)."""
    out = Outcome(attempted=1)
    if (length, crc) == oracle.tsv(max_n) and exit_code == 0:
        out.verified = 1
    else:
        out.fail("table", f"table --max-n {max_n}: {length} bytes, exit {exit_code}")
    return out
