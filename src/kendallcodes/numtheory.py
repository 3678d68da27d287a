"""The n-smooth split of a ball size, and factorial divisibility without n!.

Only primes up to n divide n!, so a divisibility verdict against n! needs
no more of a value than its *n-smooth split*: the factorization over the
primes up to n, and the *n-rough cofactor* that remains once those primes
are divided out.  `factorize` computes that split from the primes of one
sieve up to `MAX_GROUP_N`, the largest group size the certifier serves.
Nothing is left to chance or to a budget: the cofactor is never split
further, because its primes cannot divide n! anyway.

Large bounds reach many primes that almost never divide, so the sieve's
primes are grouped into blocks of 64, the last block fewer.  Built at
import are the product of every prime before each block and, for each
prime, the product of its block's primes up to it, so the primes of a
block up to any bound have one product.  One gcd with that product names
the primes up to the bound that divide a value, so `factorize` skips a
block whose gcd is 1, walks every other block's primes only until that
gcd is used up or one sieve prime, and stops at the first block whose
first prime squared exceeds what is left.  `is_rough` tests every prime
up to a bound with exactly two gcds, one against the running product of
the blocks before the bound's own block and one against that block's
product up to the bound (Bernstein, "How to find smooth parts of
integers", 2004).

Every prime the package tests is at most n <= `MAX_GROUP_N`, so
primality is membership in that same sieve, exact with no assumption;
`is_probable_prime` refuses larger inputs instead of guessing.

Divisibility against n! uses the valuation identity: the exponent of p in
n! is the sum of floor(n/p^k) over k >= 1.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate, chain, compress

__all__ = [
    "Factorization",
    "divides_factorial",
    "factorial_valuation",
    "factorize",
    "is_probable_prime",
]

Factorization = tuple[tuple[int, int], ...]

MAX_GROUP_N = 10_000


def _build_sieve() -> bytes:
    """Flags indexed by 0..MAX_GROUP_N: 1 exactly at the primes."""
    sieve = bytearray([1]) * (MAX_GROUP_N + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(MAX_GROUP_N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, MAX_GROUP_N + 1, p)))
    return bytes(sieve)


_SIEVE = _build_sieve()
_PRIMES = tuple(compress(range(MAX_GROUP_N + 1), _SIEVE))
# On t <= 5 balls up to n = 10 000, blocks of 64 or 96 primes split
# fastest; 32, 48 and 128 were slower.
_BLOCK = 64
_STARTS = range(0, len(_PRIMES), _BLOCK)
# _BLOCK_PREFIXES[i] is the product of _PRIMES[i]'s block up to _PRIMES[i]; about 100 KiB.
_BLOCK_PREFIXES = tuple(
    chain.from_iterable(accumulate(_PRIMES[start : start + _BLOCK], operator.mul) for start in _STARTS)
)
# (start, stop, product, first prime squared) per block of _PRIMES[start:stop]
_BLOCKS = tuple(
    (start, stop, _BLOCK_PREFIXES[stop - 1], _PRIMES[start] ** 2)
    for start, stop in zip(_STARTS, (*_STARTS[1:], len(_PRIMES)))
)
# _RUNNING_PRODUCTS[k] is the product of the primes in the first k blocks; about 18 KB.
_RUNNING_PRODUCTS = tuple(accumulate((block[2] for block in _BLOCKS), operator.mul, initial=1))


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

    One loop over the blocks of sieve primes up to ``bound``.  It stops
    at the first block whose first prime squared exceeds what is left,
    which is then 1 or a prime.  Every block costs one gcd h of what is
    left with the product of its primes up to ``bound`` (the whole block
    but the bound's own), so every prime of h is at most ``bound``.  A
    block with h > 1 is walked prime by prime: once what is left of h is
    one sieve prime, it is divided out and the walk stops; before that,
    each prime p dividing h is divided out and h becomes h / p, until h
    is 1.  After the loop a lone prime up to ``bound`` joins ``smooth``.
    """
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    count = _prime_count(bound)
    smooth: list[tuple[int, int]] = []
    v = value
    for start, stop, product, first_square in _BLOCKS:
        if start >= count or first_square > v:
            break
        h = math.gcd(product if stop <= count else _BLOCK_PREFIXES[count - 1], v)
        if h == 1:
            continue
        # h is squarefree, so one division takes p out of it, and its
        # primes are at most the bound, so it is used up before the walk
        # passes the bound
        for p in _PRIMES[start:stop]:
            if h <= MAX_GROUP_N and _SIEVE[h]:
                p = h
            elif h % p:
                continue
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            smooth.append((p, e))
            h //= p
            if h == 1:
                break
    # a break leaves 1 or a prime, and running out leaves no prime factor
    # <= bound, so this takes exactly a lone prime up to the bound
    if 1 < v <= bound:
        smooth.append((v, 1))
        v = 1
    return tuple(smooth), v


def is_rough(value: int, bound: int) -> bool:
    """Whether no prime p <= bound divides ``value``, for 0 <= bound <= MAX_GROUP_N.

    Exactly two gcds, with no prime walk: one with the running product of
    the blocks of sieve primes before the block of the last prime up to
    ``bound``, and one with that block's product from its first prime up
    to that prime.  True at once when no prime is at most ``bound``.
    Raises ValueError for a bound outside 0..MAX_GROUP_N.
    """
    count = _prime_count(bound)
    return count == 0 or (
        math.gcd(_RUNNING_PRODUCTS[(count - 1) // _BLOCK], value) == 1
        and math.gcd(_BLOCK_PREFIXES[count - 1], value) == 1
    )


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
