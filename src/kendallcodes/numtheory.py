"""The n-smooth split of a ball size, and factorial divisibility without n!.

Only primes up to n divide n!, so a divisibility verdict against n! needs
no more of a value than its *n-smooth split*: the factorization over the
primes up to n, and the *n-rough cofactor* that remains once those primes
are divided out.  `factorize` computes that split by trial division with
the primes of one sieve up to `MAX_GROUP_N`, the largest group size the
certifier serves.  Nothing is left to chance or to a budget: the cofactor
is never split further, because its primes cannot divide n! anyway.

Large bounds reach many primes that almost never divide, so the sieve's
primes are also grouped into blocks of `BLOCK_SIZE` consecutive primes,
each with its product and the product of every prime through it, built
at import.  One gcd with a block's product tells whether any of its
primes divides a value: `factorize` skips a block that shares no factor
and stops at the first block whose first prime squared exceeds what is
left, and `is_rough` tests every prime below a bound with one gcd against
a running product and trial division of at most BLOCK_SIZE - 1 leftover
primes (Bernstein, "How to find smooth parts of integers", 2004).  Below
the first full block both are plain trial division.

Every prime the package tests is at most n <= `MAX_GROUP_N`, so
primality is membership in that same sieve, exact with no assumption;
`is_probable_prime` refuses larger inputs instead of guessing.

Divisibility against n! uses the valuation identity: the exponent of p in
n! is the sum of floor(n/p^k) over k >= 1.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from bisect import bisect_right
from itertools import accumulate, compress
from typing import Iterable

__all__ = [
    "Factorization",
    "divides_factorial",
    "factorial_valuation",
    "factorize",
    "format_factorization",
    "is_probable_prime",
]

Factorization = tuple[tuple[int, int], ...]

MAX_GROUP_N = 10_000

# Primes per block.  On t <= 5 balls up to n = 10 000, blocks of 24 to 64
# primes timed alike; 8, 16 and 128 were slower.
BLOCK_SIZE = 32


def _build_sieve() -> bytes:
    """Flags indexed by 0..MAX_GROUP_N: 1 exactly at the primes."""
    sieve = bytearray([1]) * (MAX_GROUP_N + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(MAX_GROUP_N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return bytes(sieve)


_SIEVE = _build_sieve()
_PRIMES = tuple(compress(range(MAX_GROUP_N + 1), _SIEVE))
# Block k holds _PRIMES[k * BLOCK_SIZE : (k + 1) * BLOCK_SIZE]; the last
# primes, too few for a block, are in none.
_BLOCK_PRODUCTS = tuple(
    math.prod(_PRIMES[i : i + BLOCK_SIZE])
    for i in range(0, len(_PRIMES) - BLOCK_SIZE + 1, BLOCK_SIZE)
)
# _RUNNING_PRODUCTS[k] is the product of the primes in the first k blocks; about 35 KB.
_RUNNING_PRODUCTS = tuple(accumulate(_BLOCK_PRODUCTS, operator.mul, initial=1))


def _prime_count(bound: int) -> int:
    """How many primes are <= bound, for 0 <= bound <= MAX_GROUP_N."""
    if not 0 <= bound <= MAX_GROUP_N:
        raise ValueError(f"prime bound must be between 0 and {MAX_GROUP_N}, got {bound}")
    return bisect_right(_PRIMES, bound)


def is_probable_prime(p: int) -> bool:
    """Whether p is prime, read from the sieve: exact for every p <= MAX_GROUP_N.

    False for p < 2.  Raises ValueError above MAX_GROUP_N, past the sieve.
    """
    if p > MAX_GROUP_N:
        raise ValueError(f"primality is decided up to {MAX_GROUP_N}, got {p}")
    return p >= 2 and _SIEVE[p] == 1


def factorize(value: int, bound: int) -> tuple[Factorization, int]:
    """The ``bound``-smooth split of ``value`` as ``(smooth, cofactor)``.

    ``smooth`` is ((prime, exponent), ...) over the primes p <= bound, in
    ascending order, and ``cofactor`` is the rest of ``value``, which has
    no prime factor <= bound; ``value == cofactor * prod(p**e)``.  Raises
    ValueError for value < 1 and for a bound outside 0..MAX_GROUP_N.

    One loop over the blocks of BLOCK_SIZE sieve primes up to ``bound``.
    It stops at the first block whose first prime squared exceeds what is
    left, which is then 1 or a prime.  A full block whose product is
    coprime to what is left is skipped with one gcd; every other block is
    trial-divided.  After the loop a lone prime up to ``bound`` joins
    ``smooth``.
    """
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    count = _prime_count(bound)
    smooth: list[tuple[int, int]] = []
    v = value
    for start in range(0, count, BLOCK_SIZE):
        if _PRIMES[start] ** 2 > v:
            break
        stop = start + BLOCK_SIZE
        if stop <= count and math.gcd(_BLOCK_PRODUCTS[start // BLOCK_SIZE], v) == 1:
            continue
        for p in _PRIMES[start : min(stop, count)]:
            if v % p == 0:
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                smooth.append((p, e))
    # a break leaves 1 or a prime, and running out leaves no prime factor
    # <= bound, so this takes exactly a lone prime up to the bound
    if 1 < v <= bound:
        smooth.append((v, 1))
        v = 1
    return tuple(smooth), v


def is_rough(value: int, bound: int) -> bool:
    """Whether no prime p <= bound divides ``value``, for 0 <= bound <= MAX_GROUP_N.

    One gcd with the product of every prime through the last full block
    up to ``bound``, then trial division by the at most BLOCK_SIZE - 1
    primes past it.  Raises ValueError for a bound outside 0..MAX_GROUP_N.
    """
    count = _prime_count(bound)
    blocks = count // BLOCK_SIZE
    if math.gcd(_RUNNING_PRODUCTS[blocks], value) > 1:
        return False
    return all(value % p for p in _PRIMES[blocks * BLOCK_SIZE : count])


def factorial_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!, summed as floor(n/p) + floor(n/p^2) + ...

    Never computes n! itself, so n may be large.  Raises ValueError for
    n < 0 and for a p that is not prime.
    """
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    if not is_probable_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    return legendre_exponent(n, p)


def legendre_exponent(n: int, p: int) -> int:
    """:func:`factorial_valuation` without its checks, for a p known to be prime.

    The certifier's primes come from the sieve or have just been tested
    against it, so testing them again would only repeat work.
    """
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def divides_factorial(factors: Factorization, n: int) -> bool:
    """Whether the factored value divides n!, decided prime by prime."""
    if n < 1:
        raise ValueError(f"group order argument must be at least 1, got {n}")
    return all(e <= factorial_valuation(n, p) for p, e in factors)


def format_factorization(factors: Iterable[tuple[int, int]]) -> str:
    """Render as ``p^e * p^e`` with primes ascending; the empty product is ``1``."""
    parts = [f"{p}^{e}" for p, e in factors]
    return " * ".join(parts) if parts else "1"


@functools.cache
def _factorization_pattern() -> re.Pattern[str]:
    """Every text format_factorization prints but ``1``, compiled on first use.

    Positive bases and exponents only: no sign, zero padding, `_`, other
    digits or spaces, all of which int() would also read.  Compiling
    takes about 0.3 ms, which a process that only prints records never
    pays; once compiled, every record read back reuses it, where
    re.fullmatch's lookup of the pattern string would cost about as much
    again as the match itself.
    """
    return re.compile(r"[1-9][0-9]*\^[1-9][0-9]*(?: \* [1-9][0-9]*\^[1-9][0-9]*)*")


def parse_factorization(text: str) -> Factorization:
    """Read back what :func:`format_factorization` prints; no primality test.

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
    if _factorization_pattern().fullmatch(text) is None:
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
