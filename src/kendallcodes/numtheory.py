"""The n-smooth split of a ball size, and factorial divisibility without n!.

Only primes up to n divide n!, so a divisibility verdict against n! needs
no more of a value than its *n-smooth split*: the factorization over the
primes up to n, and the *n-rough cofactor* that remains once those primes
are divided out.  `factorize` computes that split by trial division with
the primes of one sieve up to `MAX_GROUP_N`, the largest group size the
certifier serves.  Nothing is left to chance or to a budget: the cofactor
is never split further, because its primes cannot divide n! anyway.

Every prime the package tests is at most n <= `MAX_GROUP_N`, so
primality is membership in that same sieve, exact with no assumption;
`is_probable_prime` refuses larger inputs instead of guessing.

Divisibility against n! uses the valuation identity: the exponent of p in
n! is the sum of floor(n/p^k) over k >= 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable

Factorization = tuple[tuple[int, int], ...]

MAX_GROUP_N = 10_000


@lru_cache(maxsize=1)
def _sieve() -> bytes:
    """Flags indexed by 0..MAX_GROUP_N: 1 exactly at the primes."""
    sieve = bytearray([1]) * (MAX_GROUP_N + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(MAX_GROUP_N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return bytes(sieve)


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(i for i, flag in enumerate(_sieve()) if flag)


def primes_up_to(bound: int) -> tuple[int, ...]:
    """The primes p <= bound, ascending, for 0 <= bound <= MAX_GROUP_N."""
    if not 0 <= bound <= MAX_GROUP_N:
        raise ValueError(f"prime bound must be between 0 and {MAX_GROUP_N}, got {bound}")
    primes = _small_primes()
    return primes[: bisect_right(primes, bound)]


def is_probable_prime(p: int) -> bool:
    """Whether p is prime, read from the sieve: exact for every p <= MAX_GROUP_N.

    False for p < 2.  Raises ValueError above MAX_GROUP_N, past the sieve.
    """
    if p > MAX_GROUP_N:
        raise ValueError(f"primality is decided up to {MAX_GROUP_N}, got {p}")
    return p >= 2 and _sieve()[p] == 1


def factorize(value: int, bound: int) -> tuple[Factorization, int]:
    """The ``bound``-smooth split of ``value`` as ``(smooth, cofactor)``.

    ``smooth`` is ((prime, exponent), ...) over the primes p <= bound, in
    ascending order, and ``cofactor`` is the rest of ``value``, which has
    no prime factor <= bound; ``value == cofactor * prod(p**e)``.  Raises
    ValueError for value < 1 and for a bound outside 0..MAX_GROUP_N.
    """
    if value < 1:
        raise ValueError(f"can only factor positive integers, got {value}")
    smooth = []
    v = value
    for p in primes_up_to(bound):
        if p * p > v:
            # v has no prime factor below p, so it is 1 or a prime
            if 1 < v <= bound:
                smooth.append((v, 1))
                v = 1
            break
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            smooth.append((p, e))
    return tuple(smooth), v


def factorial_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!, summed as floor(n/p) + floor(n/p^2) + ...

    Never computes n! itself, so n may be large.
    """
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    if not is_probable_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
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


def parse_factorization(text: str) -> Factorization:
    """Parse the ``p^e * p^e`` form; structural checks only, no primality test."""
    stripped = text.strip()
    if stripped == "1":
        return ()
    factors = []
    for part in stripped.split("*"):
        piece = part.strip()
        base, sep, exponent = piece.partition("^")
        if not sep:
            raise ValueError(f"missing exponent in factor {piece!r}")
        try:
            p, e = int(base), int(exponent)
        except ValueError:
            raise ValueError(f"non-integer factor {piece!r}") from None
        if p < 2 or e < 1:
            raise ValueError(f"invalid factor {piece!r}")
        factors.append((p, e))
    if [p for p, _ in factors] != sorted({p for p, _ in factors}):
        raise ValueError(f"primes must be distinct and ascending in {text!r}")
    return tuple(factors)
