"""Read certificate records back, and re-check certificates from (n, t).

:func:`parse_certificate` reads a record line only in the one canonical
byte form that ``certifier.format_certificate`` prints, which one
regular expression of the whole line states field by field.
:func:`check_certificate` re-verifies a certificate from (n, t) alone.
It checks the n-smooth split independently of how ``certify`` found it,
and accepts only the verdict and witness that the one verdict rule,
shared with ``certify``, derives from that split.  The ball it does not
derive on its own: it takes it from the engine that ``certify`` used,
``ball_count``, whose routes the tests pin against the recurrence table
and a reference expansion of the product.

The v2 record text has two modules: ``certifier`` writes it, and this
one reads it.  A process that only prints records runs none of this, so
it loads on first use (see the package's docstring), and only a process
that reads a record compiles the record and factorization patterns.
"""

from __future__ import annotations

import math
import re

from . import certifier, numtheory
from .certifier import RECORD_FIELDS, VERDICTS, Certificate, _verdict
from .numtheory import Factorization, is_rough

__all__ = ["check_certificate", "parse_certificate"]

# Each field's canonical text, the only one format_certificate prints for
# it: int() also reads "013", "+13", "1_3", " 13" and non-ASCII digits,
# which would give one certificate many byte forms.  The factorization is
# any text without a tab here; parse_factorization alone decides it.
_INT = "0|-?[1-9][0-9]*"
_FIELD_GRAMMAR = {
    "n": _INT,
    "t": _INT,
    "ball": _INT,
    "factorization": r"[^\t]*",
    "verdict": "|".join(VERDICTS),
    "witness": f"(?:{_INT})?",
    "witness_exponents": f"(?:(?:{_INT}),(?:{_INT}))?",
}

# The canonical record line.  No field's grammar holds a group of its own,
# so the groups are the seven values in order.
_RECORD_PATTERN = re.compile(
    "\t".join(f"{name}=({_FIELD_GRAMMAR[name]})" for name in RECORD_FIELDS) + "\n?"
)

# Every text format_factorization prints but ``1``.  Positive bases and
# exponents only: no sign, zero padding, `_`, other digits or spaces, all
# of which int() would also read.
_FACTOR = r"[1-9][0-9]*\^[1-9][0-9]*"
_FACTORIZATION_PATTERN = re.compile(rf"{_FACTOR}(?: \* {_FACTOR})*")


def parse_factorization(text: str) -> Factorization:
    """Read back what ``certifier.format_factorization`` prints; no primality test.

    The text must be exactly ``1``, or ``p^e`` factors joined by
    ``" * "`` with each base and exponent a positive integer without
    leading zeros; this is the only check of a record's factorization
    field.  Raises ValueError saying the text is ``not in canonical
    form`` for any other text, and for an integer with more digits than
    ``int()`` converts (see :func:`sys.set_int_max_str_digits`); and
    ``primes must be at least 2 and ascending`` for a first base of 1 or
    a base not above the one before it.
    """
    if text == "1":
        return ()
    if _FACTORIZATION_PATTERN.fullmatch(text) is None:
        raise ValueError(f"factorization {text!r} is not in canonical form")
    factors = []
    previous = 1
    for factor in text.split(" * "):
        base, _, exponent = factor.partition("^")
        try:
            p, e = int(base), int(exponent)
        except ValueError:  # more digits than int() converts, which no factorization prints
            raise ValueError(f"factorization {text!r} is not in canonical form") from None
        if p <= previous:
            raise ValueError(f"primes must be at least 2 and ascending in {text!r}")
        factors.append((p, e))
        previous = p
    return tuple(factors)


def parse_certificate(line: str) -> Certificate:
    """Rebuild a certificate from its record line.

    The line must hold exactly the RECORD_FIELDS, in order, each once, and
    be the canonical record ``format_certificate`` prints for what it
    holds, so each certificate has one byte form: integers ``0`` or
    ``-?[1-9][0-9]*``, the factorization ``1`` or ``p^e * p^e ...`` (what
    :func:`parse_factorization` reads), one of the three verdicts, and an
    empty or integer witness and an empty or ``a,b`` exponent pair.  One
    pattern of the whole line checks the form of every field but the
    factorization, which ``parse_factorization`` checks, and yields the
    seven values.  One trailing newline, the line's terminator, is
    dropped; a second one is not.

    Raises ValueError naming the ``record fields`` when the names or
    their order are wrong, and saying the record or its factorization is
    ``not in canonical form`` for any other departure from that grammar,
    and for an integer with more digits than ``int()`` converts (see
    :func:`sys.set_int_max_str_digits`), which ``format_certificate``
    could not have printed.  A factorization whose first base is 1 or
    whose primes do not ascend is refused by ``parse_factorization``:
    ``primes must be at least 2 and ascending``.
    """
    match = _RECORD_PATTERN.fullmatch(line)
    if match is None:
        names = [field.partition("=")[0] for field in line.removesuffix("\n").split("\t")]
        if tuple(names) != RECORD_FIELDS:
            raise ValueError(f"record fields {names} are not {list(RECORD_FIELDS)}")
        raise ValueError(f"record {line!r} is not in canonical form")
    n, t, ball, factorization, verdict, witness, exponents = match.groups()
    smooth = parse_factorization(factorization)
    try:
        return Certificate(
            int(n),
            int(t),
            int(ball),
            smooth,
            verdict,
            int(witness) if witness else None,
            tuple(map(int, exponents.split(","))) if exponents else None,
        )
    except ValueError:  # more digits than int() converts, which no record prints
        raise ValueError(f"record {line!r} is not in canonical form") from None


def check_certificate(cert: Certificate) -> bool:
    """Recompute every claim in a certificate from (n, t); False on any mismatch.

    The ball comes from ``certifier.ball_value``, the engine ``certify``
    used, so a record made by a wrong route of it would pass; the tests
    pin those routes against the recurrence table and a reference
    expansion of the product.  The split and the verdict are checked
    independently of how ``certify`` found them.  ``ball_value`` and
    ``is_probable_prime`` are read from their modules at each call, so
    whatever wraps them there sees the checker's calls too.

    Validates the ball value and its split in one walk over the smooth
    pairs: each prime is above the one before it, at most n and prime,
    each exponent is at least 1 and at most the ball's bit length (a
    larger power cannot divide it, so it is refused unbuilt), and the
    same walk multiplies out the smooth part.  That part must divide the
    ball, and the cofactor, their quotient, must be 1 or exceed n and
    have no prime factor up to min(n, sqrt(cofactor)), by
    :func:`~kendallcodes.numtheory.is_rough`: exactly two gcds, one with
    the product of the sieve's blocks of primes before the bound's own
    block and one with that block's product up to the bound, not
    ``factorize``'s block walk.
    The verdict and witness must then be the ones ``certify`` derives
    from that split.  n! is never built.

    A record outside the range ``ball_value`` serves is rejected
    unrecomputed: ``certify`` never makes one, nor one of another
    shape: ``factorization`` a tuple of pairs, ``witness_exponents`` None
    or a pair, and every number an exact int (a float or bool equals the
    int it stands for but prints otherwise).  For n and t that rule lives
    in ``certifier._check_served``: ``ball_value`` refuses them, and the
    checker returns False.  The other fields are tested before the ball
    is made.  Any sequence of the seven fields is read, so a plain tuple
    or list checks as the certificate it equals; anything else, such as
    None or a sequence of another length, is False.
    """
    try:
        n, t, claimed, smooth, verdict, witness, exponents = cert
    except (TypeError, ValueError):  # not iterable, or not seven fields
        return False
    if type(claimed) is not int:
        return False
    if type(smooth) is not tuple or not (witness is None or type(witness) is int):
        return False
    if exponents is not None and not (
        type(exponents) is tuple and len(exponents) == 2 and all(type(e) is int for e in exponents)
    ):
        return False
    try:
        ball = certifier.ball_value(n, t)
    except ValueError:
        return False
    if claimed != ball:
        return False
    bits = ball.bit_length()
    product = previous = 1
    for pair in smooth:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        p, e = pair
        if type(p) is not int or type(e) is not int:
            return False
        if not (previous < p <= n and numtheory.is_probable_prime(p) and 1 <= e <= bits):
            return False
        product *= p**e
        previous = p
    cofactor, remainder = divmod(ball, product)
    if remainder:
        return False
    if cofactor > 1 and not (cofactor > n and is_rough(cofactor, min(n, math.isqrt(cofactor)))):
        return False
    return (verdict, witness, exponents) == _verdict(n, smooth, cofactor)
