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
primality is read from a sieve, so no step rests on an unproven test.

Certificates serialize to one flat key=value record per line with a fixed
field order (record format v2), so scan output is byte-stable and
diffable.  This module writes that text.  Reading a record back and
re-checking a certificate from (n, t) alone is
:mod:`kendallcodes.checker`'s work, which a process that only prints
records never needs, so it loads on first use.

This module keeps some names only for the benchmark, which reads them
here and whose tracer wraps them here; none is in its ``__all__``.  Those
of the checker and the table are forwarded as the package forwards its
lazy exports.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional

from .mahonian import ball_count, max_distance

# Not used here: the benchmark's tracer wraps them at this site.
from math import factorial  # noqa: F401
from .numtheory import divides_factorial, factorial_valuation, is_probable_prime  # noqa: F401
from .numtheory import MAX_GROUP_N, Factorization, factorize, legendre_exponent

__all__ = [
    "Certificate",
    "INCONCLUSIVE",
    "NONEXISTENT_NOT_DIVIDING",
    "NONEXISTENT_PRIME_FACTOR",
    "ball_value",
    "certify",
    "format_certificate",
    "format_certificate_pretty",
    "format_factorization",
    "scan",
]

# the checker's and the table's names that the benchmark reads here
_LAZY_HOMES = {
    "check_certificate": "checker",
    "parse_certificate": "checker",
    "parse_factorization": "checker",
    "ball_closed_form": "table",
    "ball_size": "table",
    "build_table": "table",
}


def __getattr__(name: str):
    home = _LAZY_HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
    return value


NONEXISTENT_PRIME_FACTOR = "NONEXISTENT_PRIME_FACTOR"
NONEXISTENT_NOT_DIVIDING = "NONEXISTENT_NOT_DIVIDING"
INCONCLUSIVE = "INCONCLUSIVE"

# Each verdict's pretty sentence, keyed in the order certify tries them; the
# verdict list, and with it the record grammar's alternation, is its keys.
_VERDICT_SENTENCES = {
    NONEXISTENT_PRIME_FACTOR: "no perfect {t}-error-correcting code exists in S_{n}:"
    " the cofactor {witness} divides the ball size"
    " but has no prime factor up to n = {n}, so it cannot divide {n}!",
    NONEXISTENT_NOT_DIVIDING: "no perfect {t}-error-correcting code exists in S_{n}:"
    " prime {witness} divides the ball size {witness_exponents[0]}"
    " times but {n}! only {witness_exponents[1]} times",
    INCONCLUSIVE: "divisibility does not decide: the ball size divides {n}!",
}
VERDICTS = tuple(_VERDICT_SENTENCES)

# A ceiling on min(n, r) * r with r = min(t, max(D - 1 - t, n)), the
# radius ball_count expands (see _check_served); its value is
# 128 * D(128).  It bounds the product loop's n * r steps, about 0.1 s at
# the edges (200, 5201) and (200, 14698); from the midpoint on, the digits
# of n! by n <= 1019 (2,625 digits); and for r <= n it caps r at 1019,
# which bounds the ball's digits (1,474 at n = 10000) and the cost of its
# n-smooth split.
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

    The range bounds min(n, r) * r by MAX_BALL_WORK, with
    r = min(t, max(D - 1 - t, n)): the radius ``ball_count`` expands, t
    below the midpoint and the reflected radius D - 1 - t from it on,
    floored at n because such a ball has the digits of n!.  That bounds
    the product loop's steps for r > n, and for r <= n it caps r, which
    bounds the ball's digits and the cost of its split.

    n and t must be exact ints, and this is the one such rule for them:
    a bool or float equals the int it stands for but prints otherwise,
    so :func:`certify` would make a record that :func:`parse_certificate`
    refuses.  :func:`check_certificate` rejects such a record through
    this refusal.
    """
    if type(n) is not int or type(t) is not int:
        raise ValueError(f"group size and radius must be ints, got n={n!r}, t={t!r}")
    if not 2 <= n <= MAX_GROUP_N:
        raise ValueError(f"group size must be between 2 and {MAX_GROUP_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    r = min(t, max(max_distance(n) - 1 - t, n))
    work = min(n, r) * r
    if work > MAX_BALL_WORK:
        raise ValueError(
            f"radius {t} at n={n} expands radius {r}: min(n, r)*r = {work},"
            f" past the bound of {MAX_BALL_WORK}"
        )


def ball_value(n: int, t: int) -> int:
    """B(n, t) by :func:`~kendallcodes.mahonian.ball_count`, within the served range.

    That range is 2 <= n <= MAX_GROUP_N, t >= 0 and min(n, r) * r <=
    MAX_BALL_WORK with r = min(t, max(D - 1 - t, n)), the radius
    ``ball_count`` expands: a bound on the ball's digits and on the work
    of making and splitting it.  Radii at or beyond the diameter D give
    the whole group, n!, served for n <= 1019.
    """
    _check_served(n, t)
    return ball_count(n, t)


def _verdict(
    n: int, smooth: Factorization, cofactor: int
) -> tuple[str, Optional[int], Optional[tuple[int, int]]]:
    """``(verdict, witness, witness_exponents)`` for the n-smooth split of a ball.

    A cofactor above 1 is its own witness; otherwise the witness is the
    smallest prime dividing the smooth part more often than n!, if any.
    The smooth primes must already be known prime (from the sieve, or
    tested by the checker): their valuations in n! are not re-tested.
    """
    if cofactor > 1:
        return NONEXISTENT_PRIME_FACTOR, cofactor, None
    for p, in_ball in smooth:
        allowed = legendre_exponent(n, p)
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

    Range problems are rejected at the call, before any work.  n_from
    and n_to must be exact ints, as n and t must be for :func:`certify`,
    before they are compared.  Checking (n_to, t) alone is then enough,
    so no certificate of an accepted range is refused partway through: n
    and D grow with n, so the measured radius
    r = min(t, max(D - 1 - t, n)) does too, and so does min(n, r) * r.
    """
    if type(n_from) is not int:
        raise ValueError(f"first group size must be an int, got n_from={n_from!r}")
    if type(n_to) is not int:
        raise ValueError(f"last group size must be an int, got n_to={n_to!r}")
    if n_from < 2:
        raise ValueError(f"scan starts at group size 2, got {n_from}")
    if n_to < n_from:
        raise ValueError(f"empty scan range [{n_from}, {n_to}]")
    _check_served(n_to, t)
    return (certify(n, t) for n in range(n_from, n_to + 1))


RECORD_FIELDS = Certificate._fields


def format_factorization(factors: Iterable[tuple[int, int]]) -> str:
    """Render as ``p^e * p^e`` with primes ascending; the empty product is ``1``."""
    parts = [f"{p}^{e}" for p, e in factors]
    return " * ".join(parts) if parts else "1"


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


def witness_factor_families(cert: Certificate) -> list[str]:
    """Which polynomial factors of the closed-form ball share a prime with the witness.

    The factors are the ``BALL_FORM_FACTORS`` of radius t, read only where
    their product is the ball (n at least ``BALL_FORM_MIN_N[t]``); empty
    otherwise, and without a witness.  They are the table module's, which
    loads here on the first call.
    """
    from .table import BALL_FORM_FACTORS, BALL_FORM_MIN_N

    n, t = cert.n, cert.t
    if cert.witness is None or t not in BALL_FORM_FACTORS or n < BALL_FORM_MIN_N[t]:
        return []
    return [name for name, poly in BALL_FORM_FACTORS[t] if math.gcd(poly(n), cert.witness) > 1]


def format_certificate_pretty(cert: Certificate) -> str:
    """Multi-line human-readable rendering of one certificate.

    The verdict's line is its sentence from the one table that lists the
    verdicts, so a verdict outside ``VERDICTS`` raises KeyError.
    """
    lines = [
        f"S_{cert.n}, radius {cert.t}: ball size {cert.ball},"
        f" {cert.n}-smooth part {format_factorization(cert.factorization)},"
        f" cofactor {cert.cofactor}",
        "  " + _VERDICT_SENTENCES[cert.verdict].format_map(cert._asdict()),
    ]
    families = witness_factor_families(cert)
    if families:
        plural = "factors" if len(families) > 1 else "factor"
        lines.append(
            f"  witness {cert.witness} shares a prime with the polynomial {plural}"
            f" {' and '.join(families)} of the ball size"
        )
    return "\n".join(lines)
