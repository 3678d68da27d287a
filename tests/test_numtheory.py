"""The smooth split, primality, and factorial divisibility.

Oracles here are direct computation: multiplying a split back together,
a prime sieve of the test's own, plain trial division by its primes, and
literal ``n! % v``.  Random cases use a fixed seed so failures reproduce;
the property tests draw bounds at every edge of the blocks of primes
that ``factorize`` and ``is_rough`` skip or test with one gcd.
"""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kendallcodes.certifier import format_factorization
from kendallcodes.checker import parse_factorization
from kendallcodes.numtheory import (
    _BLOCK_PREFIXES,
    _BLOCKS,
    _PRIMES,
    _RUNNING_PRODUCTS,
    MAX_GROUP_N,
    divides_factorial,
    factorial_valuation,
    factorize,
    is_probable_prime,
    is_rough,
)

# primes far beyond the sieve
P_BIG_1 = 10**9 + 7
P_BIG_2 = 10**9 + 9
M31 = 2**31 - 1


def _sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [i for i, flag in enumerate(flags) if flag]


SIEVE_PRIMES = _sieve(MAX_GROUP_N)


def test_factorize_golden_values():
    assert factorize(1, 10) == ((), 1)
    assert factorize(2, 2) == (((2, 1),), 1)
    assert factorize(97, 100) == (((97, 1),), 1)
    assert factorize(97, 96) == ((), 97)
    assert factorize(1024, 2) == (((2, 10),), 1)
    assert factorize(210, 7) == (((2, 1), (3, 1), (5, 1), (7, 1)), 1)
    assert factorize(210, 6) == (((2, 1), (3, 1), (5, 1)), 7)
    assert factorize(441, 13) == (((3, 2), (7, 2)), 1)
    assert factorize(3249, 26) == (((3, 2), (19, 2)), 1)
    assert factorize(3249, 18) == (((3, 2),), 361)
    assert factorize(1715, 13) == (((5, 1), (7, 3)), 1)
    assert factorize(24, 4) == (((2, 3), (3, 1)), 1)
    assert factorize(24, 0) == ((), 24)
    # 2^32 + 1 = 641 * 6700417: the large prime stays in the cofactor
    assert factorize(2**32 + 1, MAX_GROUP_N) == (((641, 1),), 6700417)
    assert factorize(2**32 + 1, 640) == ((), 2**32 + 1)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0, 10)
    with pytest.raises(ValueError):
        factorize(-441, 10)


def test_factorize_random_roundtrip():
    rng = random.Random(20260818)
    for _ in range(2000):
        v = rng.randrange(1, 2**36)
        bound = rng.choice((0, 2, 30, 1000, MAX_GROUP_N))
        smooth, cofactor = factorize(v, bound)
        assert math.prod(p**e for p, e in smooth) * cofactor == v
        primes = [p for p, _ in smooth]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in smooth)
        assert all(p <= bound and is_probable_prime(p) for p in primes)
        assert all(cofactor % p for p in SIEVE_PRIMES if p <= bound)


def test_factorize_beyond_trial_division():
    # factors beyond the bound are never split; they form the cofactor
    pool = (2, 3, 1009, 9973, 10007, 999983, M31, 2**32 + 15, P_BIG_1, P_BIG_2)
    rng = random.Random(7)
    for _ in range(25):
        chosen = rng.sample(pool, rng.randint(1, 3))
        factors = {p: rng.randint(1, 2) for p in chosen}
        v = math.prod(p**e for p, e in factors.items())
        smooth = tuple(sorted((p, e) for p, e in factors.items() if p <= MAX_GROUP_N))
        cofactor = math.prod(p**e for p, e in factors.items() if p > MAX_GROUP_N)
        assert factorize(v, MAX_GROUP_N) == (smooth, cofactor)
    assert factorize(P_BIG_1 * P_BIG_2, MAX_GROUP_N) == ((), P_BIG_1 * P_BIG_2)
    assert factorize(M31 * M31 * 12, 3) == (((2, 2), (3, 1)), M31 * M31)


def test_factorize_is_deterministic():
    for v in (441, P_BIG_1 * P_BIG_2, M31**2 * 3, 2**40 - 1):
        assert factorize(v, 100) == factorize(v, 100)


# the first and the last prime of each block of sieve primes, and every
# prime of the last block, which holds fewer than the others
BLOCK_STARTS = [SIEVE_PRIMES[start] for start, _, _, _ in _BLOCKS]
BLOCK_ENDS = [SIEVE_PRIMES[stop - 1] for _, stop, _, _ in _BLOCKS]
TAIL_PRIMES = SIEVE_PRIMES[_BLOCKS[-1][0] :]
# every bound at which a block starts or ends, with its neighbours
EDGE_BOUNDS = sorted(
    {0, 1, 2, MAX_GROUP_N - 1, MAX_GROUP_N}
    | {q + d for q in BLOCK_STARTS + BLOCK_ENDS + TAIL_PRIMES for d in (-1, 0, 1)}
)
SMOOTH_POOL = sorted({2, 3, 5, 127} | set(BLOCK_STARTS) | set(BLOCK_ENDS) | set(TAIL_PRIMES))
ROUGH_PARTS = (1, 10007, 10009, 999983, M31, P_BIG_1, 10007 * P_BIG_2)


def trial_division_split(value, bound):
    """The bound-smooth split by dividing out every prime up to bound in turn."""
    smooth = []
    for p in SIEVE_PRIMES:
        if p > bound:
            break
        e = 0
        while value % p == 0:
            value //= p
            e += 1
        if e:
            smooth.append((p, e))
    return tuple(smooth), value


bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(0, MAX_GROUP_N))
values = st.builds(
    lambda smooth, rough: math.prod(smooth) * rough,
    st.lists(st.sampled_from(SMOOTH_POOL), max_size=8),
    st.one_of(st.sampled_from(ROUGH_PARTS), st.integers(1, 2**80)),
)
out_of_range = st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_GROUP_N + 1))


@given(values, bounds)
@example(9973 * 10007, 9973)
@example(9973 * 10007, 9972)
@example(131 * 137, 130)
@example(131 * 137, 131)
@example(131**2, 131)
@example(9857 * 9859, 9858)
# the second block's gcd is one sieve prime (317), or the product of two
# (313 * 317)
@example(317**2 * 10007, MAX_GROUP_N)
@example(313 * 317 * 10007, MAX_GROUP_N)
# the bound's own block shares primes on both sides of the bound (313 and
# 331 at 320), or only one past it (331)
@example(313 * 331 * 10007, 320)
@example(331 * 10007, 320)
# the early exit settles the split with one more prime: nothing is left,
# or a lone prime in the last block
@example(1, MAX_GROUP_N)
@example(9973, MAX_GROUP_N)
@example(2 * 9973, MAX_GROUP_N)
# the walk over a block leaves what is left of its gcd when that is one
# sieve prime above the bound (101 at 100, 103 at 102), ends with the gcd
# used up at the block's last prime (311), and takes a composite gcd's last
# prime once divisions leave it alone (2 * 3 * 307, then 3 * 307, then 307)
@example(2 * 101 * 10007, 100)
@example(101 * 103 * 10007, 102)
@example(2 * 311 * 10007, 310)
@example(2 * 311 * 10007, 311)
@example(2 * 3 * 307 * 10007, MAX_GROUP_N)
# the bound's own block holds primes past the bound, which its prefix
# product leaves out: 127 and 131 in the first block, around bounds 126
# and 128, and 9967 and 9973 in the last, short block around 9970
@example(127 * 131 * 10007, 126)
@example(127 * 131 * 10007, 128)
@example(9967 * 9973, 9970)
# the running product holds the whole block before the bound's own one:
# 311 ends the first block, and 313 starts the second
@example(311 * 10007, 313)
# bounds with no prime (0, 1) or one prime (2) up to them
@example(6, 0)
@example(6, 1)
@example(15, 2)
@example(6, 2)
def test_split_and_roughness_match_plain_trial_division(value, bound):
    smooth, cofactor = trial_division_split(value, bound)
    assert factorize(value, bound) == (smooth, cofactor)
    assert is_rough(value, bound) == (smooth == ())


def test_tables_are_the_sieve_primes_and_their_block_products():
    assert _PRIMES == tuple(SIEVE_PRIMES) and len(_PRIMES) == 1229
    # 19 blocks of 64 primes, and the last 13 primes
    spans = [(start, stop) for start, stop, _, _ in _BLOCKS]
    assert spans == list(zip(range(0, 1229, 64), [*range(64, 1229, 64), 1229]))
    assert BLOCK_ENDS[0] == 311
    for start, stop, product, first_square in _BLOCKS:
        assert product == math.prod(SIEVE_PRIMES[start:stop])
        assert first_square == SIEVE_PRIMES[start] ** 2
    stops = [0] + [stop for _, stop in spans]
    assert len(_RUNNING_PRODUCTS) == len(stops) == 21
    for product, stop in zip(_RUNNING_PRODUCTS, stops):
        assert product == math.prod(SIEVE_PRIMES[:stop])
    # each prime's prefix of its own block, ending at its block's product
    assert len(_BLOCK_PREFIXES) == 1229
    for start, stop, product, _ in _BLOCKS:
        for i in range(start, stop):
            assert _BLOCK_PREFIXES[i] == math.prod(SIEVE_PRIMES[start : i + 1])
        assert _BLOCK_PREFIXES[stop - 1] == product


@given(st.integers(max_value=0), bounds)
def test_factorize_refuses_a_value_below_one(value, bound):
    with pytest.raises(ValueError, match="positive integers"):
        factorize(value, bound)


@given(values, out_of_range)
@example(441, -1)
@example(441, MAX_GROUP_N + 1)
def test_split_and_roughness_refuse_a_bound_outside_the_sieve(value, bound):
    with pytest.raises(ValueError, match="prime bound"):
        factorize(value, bound)
    with pytest.raises(ValueError, match="prime bound"):
        is_rough(value, bound)


def test_is_probable_prime_matches_sieve():
    # primality is membership in the sieve up to the largest served group
    # size; a negative argument must not wrap around to a sieve entry
    sieve_primes = set(_sieve(MAX_GROUP_N))
    for p in range(-MAX_GROUP_N - 1, MAX_GROUP_N + 1):
        assert is_probable_prime(p) == (p in sieve_primes), p
    assert not any(is_probable_prime(p) for p in (-2, 0, 1, 10_000))
    assert is_probable_prime(2) and is_probable_prime(9973)
    with pytest.raises(ValueError):
        is_probable_prime(MAX_GROUP_N + 1)
    with pytest.raises(ValueError):
        factorial_valuation(10**6, 10_007)


def test_factorial_valuation_golden_values():
    assert factorial_valuation(13, 7) == 1
    assert factorial_valuation(13, 3) == 5
    assert factorial_valuation(26, 3) == 10
    assert factorial_valuation(26, 19) == 1
    assert factorial_valuation(10, 2) == 8
    assert factorial_valuation(1, 2) == 0
    assert factorial_valuation(0, 2) == 0


def test_factorial_valuation_scales_without_factorial():
    # exponent of 2 in n! equals n minus the binary digit sum
    for n in (10**6, 10**9, 10**12):
        assert factorial_valuation(n, 2) == n - bin(n).count("1")


def test_factorial_valuation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        factorial_valuation(-1, 2)
    with pytest.raises(ValueError):
        factorial_valuation(10, 4)
    with pytest.raises(ValueError):
        factorial_valuation(10, 1)


def test_factorial_valuation_matches_direct_factorization():
    for n in range(2, 21):
        smooth, cofactor = factorize(math.factorial(n), n)
        assert cofactor == 1
        direct = dict(smooth)
        for p in _sieve(n):
            assert factorial_valuation(n, p) == direct[p], (n, p)


def test_divides_factorial_golden_values():
    assert not divides_factorial(((3, 2), (7, 2)), 13)  # 441
    assert not divides_factorial(((3, 2), (19, 2)), 26)  # 3249
    assert not divides_factorial(((5, 1), (7, 3)), 13)  # 1715
    assert divides_factorial(((2, 3), (3, 1)), 4)  # 24
    assert divides_factorial((), 1)
    with pytest.raises(ValueError):
        divides_factorial(((2, 3), (3, 1)), 0)


def test_divides_factorial_exhaustive_small():
    factorizations = {v: factorize(v, 2000)[0] for v in range(1, 2001)}
    for n in range(1, 31):
        fact = math.factorial(n)
        for v, factors in factorizations.items():
            assert divides_factorial(factors, n) == (fact % v == 0), (v, n)


def test_divides_factorial_sampled_large():
    rng = random.Random(99)
    factorials = {n: math.factorial(n) for n in range(1, 31)}
    for _ in range(300):
        v = rng.randrange(1, 10**6 + 1)
        smooth, cofactor = factorize(v, 30)
        for n in (1, 5, 13, 26, 30):
            divides = cofactor == 1 and divides_factorial(smooth, n)
            assert divides == (factorials[n] % v == 0), (v, n)


def test_format_factorization():
    assert format_factorization(()) == "1"
    assert format_factorization(((7, 1),)) == "7^1"
    assert format_factorization(((3, 2), (7, 2))) == "3^2 * 7^2"


def test_parse_factorization_roundtrip():
    for v in (1, 2, 24, 441, 3249, 1715, 1024, 210):
        factors, _ = factorize(v, v)
        assert parse_factorization(format_factorization(factors)) == factors
    # only the text format_factorization prints: no whitespace variant
    with pytest.raises(ValueError, match="not in canonical form"):
        parse_factorization("  3^2   *  7^2 ")


def test_parse_factorization_rejects_malformed_text():
    for text in ("", "4", "2^", "^3", "x^2", "2^0", "1^1", "-3^1",
                 "7^2 * 3^2", "2^1 * 2^1", "2^1 * 1", "3.5^2"):
        with pytest.raises(ValueError):
            parse_factorization(text)
