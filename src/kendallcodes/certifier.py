"""Nonexistence certificates for perfect codes under the Kendall tau metric.

A perfect t-error-correcting code in S_n is a set of permutations whose
radius-t balls partition the whole group, so its existence forces the ball
size B(n, t) to divide n!.  Only primes up to n divide n!, so the verdict
rests on the n-smooth split of B: its factorization over the primes up to
n, and the n-rough cofactor that remains.

* a cofactor above 1 cannot divide n!, because none of its prime factors
  is at most n (NONEXISTENT_PRIME_FACTOR, witnessed by the cofactor);
* otherwise B is n-smooth, and a prime may divide B more often than it
  divides n! (NONEXISTENT_NOT_DIVIDING, witnessed by the smallest such
  prime and its two exponents);
* otherwise B divides n! and divisibility alone decides nothing
  (INCONCLUSIVE).

Neither n! nor a factorization of the cofactor is ever computed, and
primality is read from a sieve, so no step rests on an unproven test.  A
checker recomputes the ball and re-verifies its split from (n, t) alone,
without trusting any intermediate computation, and then accepts only the
verdict and witness that the one verdict rule, shared with `certify`,
derives from that split.

Certificates serialize to one flat key=value record per line with a fixed
field order (record format v2), so scan output is byte-stable and
diffable.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from .mahonian import BALL_FORM_FACTORS, BALL_FORM_MIN_N, ball_count, max_distance

# Not used here: the benchmark's per-layer tracer wraps these names at this
# site, so they stay importable from here but are in no __all__.
from math import factorial  # noqa: F401
from .mahonian import ball_closed_form, ball_size, build_table  # noqa: F401
from .numtheory import divides_factorial  # noqa: F401
from .numtheory import (
    MAX_GROUP_N,
    Factorization,
    factorial_valuation,
    factorize,
    format_factorization,
    is_probable_prime,
    is_rough,
    parse_factorization,
)

__all__ = [
    "Certificate",
    "INCONCLUSIVE",
    "NONEXISTENT_NOT_DIVIDING",
    "NONEXISTENT_PRIME_FACTOR",
    "ball_value",
    "certify",
    "check_certificate",
    "format_certificate",
    "format_certificate_pretty",
    "parse_certificate",
    "scan",
]

NONEXISTENT_PRIME_FACTOR = "NONEXISTENT_PRIME_FACTOR"
NONEXISTENT_NOT_DIVIDING = "NONEXISTENT_NOT_DIVIDING"
INCONCLUSIVE = "INCONCLUSIVE"

VERDICTS = (NONEXISTENT_PRIME_FACTOR, NONEXISTENT_NOT_DIVIDING, INCONCLUSIVE)

# A ceiling on min(n, r) * r with r = min(t, D), at its value for the
# diameter of S_128; it keeps the served range where 0.11.x put it.  Past
# r = n it counts ball_count's product steps, about 0.1 s at the edges
# (128, 8128), (200, 5201) and (1019, 1020).  For r <= n, where ball_count
# sums O(sqrt(r)) binomials, it caps r at 1019, and so bounds the ball's
# digits (1,474 at n = 10000) and the cost of its n-smooth split.
MAX_BALL_WORK = 128 * max_distance(128)


class Certificate(NamedTuple):
    """Self-contained divisibility verdict for one (n, t) pair.

    ``factorization`` is the n-smooth part of the ball.  ``witness`` is
    the n-rough cofactor for NONEXISTENT_PRIME_FACTOR and the offending
    prime for NONEXISTENT_NOT_DIVIDING, whose ``witness_exponents`` are
    its exponents in the ball and in n!.  A named tuple: immutable, and
    equal to the plain tuple of its seven fields.
    """

    n: int
    t: int
    ball: int
    factorization: Factorization
    verdict: str
    witness: Optional[int] = None
    witness_exponents: Optional[tuple[int, int]] = None
    # Always False: every ball splits completely, so no certificate rests on
    # partial evidence.  Kept readable for the benchmark's tracer; without
    # an annotation it is a class attribute, not an eighth field.
    degraded = False

    @property
    def cofactor(self) -> Optional[int]:
        """The n-rough part of the ball: the witness of a prime-factor verdict, else 1."""
        return self.witness if self.verdict == NONEXISTENT_PRIME_FACTOR else 1


def _check_served(n: int, t: int) -> None:
    """Refuse a ball outside the served range, before any work on it.

    The range bounds min(n, r) * r for r = min(t, D) by MAX_BALL_WORK:
    ``ball_count``'s steps for r > n, and for r <= n a cap on r that
    bounds the ball's digits and the cost of its split.
    """
    if not 2 <= n <= MAX_GROUP_N:
        raise ValueError(f"group size must be between 2 and {MAX_GROUP_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    r = min(t, max_distance(n))
    work = min(n, r) * r
    if work > MAX_BALL_WORK:
        raise ValueError(
            f"radius {t} at n={n} gives min(n, r)*r = {work}, past the bound of {MAX_BALL_WORK}"
        )


def ball_value(n: int, t: int) -> int:
    """B(n, t) by :func:`~kendallcodes.mahonian.ball_count`, within the served range.

    That range is 2 <= n <= MAX_GROUP_N, t >= 0 and min(n, r) * r <=
    MAX_BALL_WORK with r = min(t, D), a bound on the ball's digits and
    on the work of making and splitting it; radii beyond the diameter D
    clamp to the whole group.
    """
    _check_served(n, t)
    return ball_count(n, t)


def _verdict(
    n: int, smooth: Factorization, cofactor: int
) -> tuple[str, Optional[int], Optional[tuple[int, int]]]:
    """``(verdict, witness, witness_exponents)`` for the n-smooth split of a ball.

    A cofactor above 1 is its own witness; otherwise the witness is the
    smallest prime dividing the smooth part more often than n!, if any.
    """
    if cofactor > 1:
        return NONEXISTENT_PRIME_FACTOR, cofactor, None
    for p, in_ball in smooth:
        allowed = factorial_valuation(n, p)
        if in_ball > allowed:
            return NONEXISTENT_NOT_DIVIDING, p, (in_ball, allowed)
    return INCONCLUSIVE, None, None


def certify(n: int, t: int) -> Certificate:
    """Decide by divisibility whether a perfect t-code in S_n is ruled out."""
    ball = ball_value(n, t)
    smooth, cofactor = factorize(ball, n)
    return Certificate(n, t, ball, smooth, *_verdict(n, smooth, cofactor))


def scan(t: int, n_from: int, n_to: int) -> Iterator[Certificate]:
    """One certificate per n in [n_from, n_to], in order, each made as it is consumed.

    Range problems are rejected at the call, before any work.  The bounded
    measure of a ball, min(n, r) * r with r = min(t, D(n)), never
    decreases as n grows, so the range is served when (n_to, t) is, and
    no certificate of an accepted range is refused partway through.
    """
    if n_from < 2:
        raise ValueError(f"scan starts at group size 2, got {n_from}")
    if n_to < n_from:
        raise ValueError(f"empty scan range [{n_from}, {n_to}]")
    _check_served(n_to, t)
    return (certify(n, t) for n in range(n_from, n_to + 1))


def check_certificate(cert: Certificate) -> bool:
    """Recompute every claim in a certificate from (n, t); False on any mismatch.

    Validates the ball value and its split: smooth primes are primes up
    to n with exponents the ball can hold, the smooth part times the
    cofactor is the ball, and a cofactor above 1 exceeds n and has no
    prime factor up to min(n, sqrt(cofactor)), by
    :func:`~kendallcodes.numtheory.is_rough`: one gcd with the product of
    the sieve's full blocks of primes below that bound and trial division
    by the few primes past them, not :func:`factorize`'s block skipping.
    The verdict and witness must then be the ones :func:`certify` derives
    from that split.  n! is never built.

    A record outside the range :func:`ball_value` serves is rejected
    unrecomputed: :func:`certify` never makes one, nor one of another
    shape: ``factorization`` a tuple of pairs, ``witness_exponents`` None
    or a pair, and every number an exact int (a float or bool equals the
    int it stands for but prints otherwise).
    """
    n, smooth, exponents = cert.n, cert.factorization, cert.witness_exponents
    if type(smooth) is not tuple:
        return False
    pairs = smooth if exponents is None else (*smooth, exponents)
    if any(type(pair) is not tuple or len(pair) != 2 for pair in pairs):
        return False
    numbers = [n, cert.t, cert.ball, *chain.from_iterable(pairs)]
    if cert.witness is not None:
        numbers.append(cert.witness)
    if set(map(type, numbers)) != {int}:
        return False
    try:
        ball = ball_value(n, cert.t)
    except ValueError:
        return False
    if cert.ball != ball:
        return False
    primes = [p for p, _ in smooth]
    if primes != sorted(set(primes)):
        return False
    # p ** e with e past the ball's bit length cannot divide it; refuse it unbuilt
    if any(not 1 <= e <= ball.bit_length() for _, e in smooth):
        return False
    if any(p > n or not is_probable_prime(p) for p in primes):
        return False
    cofactor = cert.cofactor
    if cofactor is None or math.prod(p**e for p, e in smooth) * cofactor != ball:
        return False
    if cofactor > 1 and not (cofactor > n and is_rough(cofactor, min(n, math.isqrt(cofactor)))):
        return False
    return (cert.verdict, cert.witness, cert.witness_exponents) == _verdict(n, smooth, cofactor)


RECORD_FIELDS = Certificate._fields


def certificate_values(cert: Certificate) -> tuple[str, ...]:
    """Field values in serialization form, in RECORD_FIELDS order."""
    n, t, ball, factorization, verdict, witness, exponents = cert
    return (
        str(n),
        str(t),
        str(ball),
        format_factorization(factorization),
        verdict,
        "" if witness is None else str(witness),
        "" if exponents is None else f"{exponents[0]},{exponents[1]}",
    )


_RECORD_TEMPLATE = "\t".join(f"{name}=%s" for name in RECORD_FIELDS)


def format_certificate(cert: Certificate) -> str:
    """One tab-separated key=value record; absent fields serialize empty."""
    return _RECORD_TEMPLATE % certificate_values(cert)


def parse_certificate(line: str) -> Certificate:
    """Rebuild a certificate from its record line.

    The line must hold exactly the RECORD_FIELDS, in order, each once, and
    be the canonical record :func:`format_certificate` prints for what it
    holds, so each certificate has one byte form.  One trailing newline,
    the line's terminator, is dropped; a second one is not.
    """
    line = line.removesuffix("\n")
    names, values = [], []
    for part in line.split("\t"):
        name, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed record field {part!r}")
        names.append(name)
        values.append(value)
    if tuple(names) != RECORD_FIELDS:
        raise ValueError(f"record fields {names} are not {list(RECORD_FIELDS)}")
    n, t, ball, factorization, verdict, witness, exponents_text = values
    if verdict not in VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r}")
    exponents: Optional[tuple[int, int]] = None
    if exponents_text:
        first, sep, second = exponents_text.partition(",")
        if not sep:
            raise ValueError(f"malformed exponent pair {exponents_text!r}")
        exponents = (int(first), int(second))
    cert = Certificate(
        int(n),
        int(t),
        int(ball),
        parse_factorization(factorization),
        verdict,
        int(witness) if witness else None,
        exponents,
    )
    # int() also reads "013", "+13", "1_3" and other digits; with the names
    # in order, equal values mean format_certificate prints the line back
    if certificate_values(cert) != tuple(values):
        raise ValueError(f"record {line!r} is not in canonical form")
    return cert


def witness_factor_families(cert: Certificate) -> list[str]:
    """Which polynomial factors of the closed-form ball share a prime with the witness.

    The factors are the ``BALL_FORM_FACTORS`` of radius t, read only where
    their product is the ball (n at least ``BALL_FORM_MIN_N[t]``); empty
    otherwise, and without a witness.
    """
    n, t = cert.n, cert.t
    if cert.witness is None or t not in BALL_FORM_FACTORS or n < BALL_FORM_MIN_N[t]:
        return []
    return [name for name, poly in BALL_FORM_FACTORS[t] if math.gcd(poly(n), cert.witness) > 1]


def format_certificate_pretty(cert: Certificate) -> str:
    """Multi-line human-readable rendering of one certificate."""
    lines = [
        f"S_{cert.n}, radius {cert.t}: ball size {cert.ball},"
        f" {cert.n}-smooth part {format_factorization(cert.factorization)},"
        f" cofactor {cert.cofactor}"
    ]
    if cert.verdict == NONEXISTENT_PRIME_FACTOR:
        lines.append(
            f"  no perfect {cert.t}-error-correcting code exists in S_{cert.n}:"
            f" the cofactor {cert.witness} divides the ball size"
            f" but has no prime factor up to n = {cert.n}, so it cannot divide {cert.n}!"
        )
    elif cert.verdict == NONEXISTENT_NOT_DIVIDING:
        in_ball, allowed = cert.witness_exponents
        lines.append(
            f"  no perfect {cert.t}-error-correcting code exists in S_{cert.n}:"
            f" prime {cert.witness} divides the ball size {in_ball}"
            f" times but {cert.n}! only {allowed} times"
        )
    else:
        lines.append(
            f"  divisibility does not decide: the ball size divides {cert.n}!"
        )
    families = witness_factor_families(cert)
    if families:
        plural = "factors" if len(families) > 1 else "factor"
        lines.append(
            f"  witness {cert.witness} shares a prime with the polynomial {plural}"
            f" {' and '.join(families)} of the ball size"
        )
    return "\n".join(lines)
