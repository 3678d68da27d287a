"""Nonexistence certificates for perfect codes under the Kendall tau metric.

A perfect t-error-correcting code in S_n is a set of permutations whose
radius-t balls partition the whole group, so its existence forces the ball
size B(n, t) to divide n!.  The certifier decides what the arithmetic of
B(n, t) rules out:

* some prime factor of the ball exceeds n, hence cannot divide n!
  (NONEXISTENT_PRIME_FACTOR, the stronger and cheaper test), or
* a prime divides the ball more often than it divides n!
  (NONEXISTENT_NOT_DIVIDING, witnessed by the two exponents), or
* the ball divides n! and divisibility alone decides nothing
  (INCONCLUSIVE, with the exact quotient n!/B recorded).

The prime-factor test is tried first; both nonexistence verdicts carry a
witness that a checker can re-verify from (n, t) alone without trusting
any intermediate computation.  If factoring the ball exhausts its budget,
the certificate is marked degraded: the verdict then rests only on the
primes actually found plus a direct remainder test of n! by the ball, and
the factorization field carries an explicit "unfactored" marker instead
of a factor list.

Certificates serialize to one flat key=value record per line with a fixed
field order, so scan output is byte-stable and diffable.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .mahonian import BALL_FORM_MIN_N, ball_count, max_distance

# Not used here: the benchmark's per-layer tracer wraps these names at this site.
from .mahonian import ball_closed_form, ball_size, build_table  # noqa: F401
from .numtheory import (
    MAX_FACTORIAL_N,
    DEFAULT_RHO_BUDGET,
    Factorization,
    FactorizationBudgetError,
    divides_factorial,
    factorial,
    factorial_valuation,
    factorize,
    format_factorization,
    is_probable_prime,
    parse_factorization,
)

NONEXISTENT_PRIME_FACTOR = "NONEXISTENT_PRIME_FACTOR"
NONEXISTENT_NOT_DIVIDING = "NONEXISTENT_NOT_DIVIDING"
INCONCLUSIVE = "INCONCLUSIVE"

VERDICTS = (NONEXISTENT_PRIME_FACTOR, NONEXISTENT_NOT_DIVIDING, INCONCLUSIVE)

DEFAULT_TABLE_CAP = 128


@dataclass(frozen=True)
class Certificate:
    """Self-contained divisibility verdict for one (n, t) pair.

    ``factorization`` is None exactly when the ball could not be fully
    factored within budget, in which case ``degraded`` is set and the
    verdict relies on partial evidence only.
    """

    n: int
    t: int
    ball: int
    factorization: Optional[Factorization]
    verdict: str
    witness_prime: Optional[int] = None
    witness_exponents: Optional[tuple[int, int]] = None
    quotient: Optional[int] = None
    degraded: bool = False


def _check_table_cap(n: int, t: int, table_cap: int) -> None:
    """Refuse balls beyond the closed forms' reach for n above ``table_cap``.

    That reach is radius at most 5 at or above each form's validity
    threshold; the cap keeps the O(min(n, t) * t) work of larger radii
    bounded.
    """
    r = min(t, max_distance(n))
    if n > table_cap and (r > 5 or n < BALL_FORM_MIN_N[r]):
        raise ValueError(
            f"radius {t} at n={n} is beyond the closed forms; "
            f"such balls are served up to the table cap n={table_cap}"
        )


def ball_value(n: int, t: int, table_cap: int = DEFAULT_TABLE_CAP) -> int:
    """B(n, t) by :func:`~kendallcodes.mahonian.ball_count`, within the table cap.

    Radii beyond the diameter clamp to the whole group.
    """
    if n < 2:
        raise ValueError(f"group size must be at least 2, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    _check_table_cap(n, t, table_cap)
    return ball_count(n, t)


def _valuation(value: int, p: int) -> int:
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e


def _legendre_violation(
    ball: int, primes: list[int], n: int
) -> Optional[tuple[int, tuple[int, int]]]:
    """Smallest listed prime dividing the ball more often than n!, if any."""
    for p in sorted(primes):
        in_ball = _valuation(ball, p)
        allowed = factorial_valuation(n, p)
        if in_ball > allowed:
            return p, (in_ball, allowed)
    return None


def certify(
    n: int,
    t: int,
    *,
    factor_budget: int = DEFAULT_RHO_BUDGET,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> Certificate:
    """Decide by divisibility whether a perfect t-code in S_n is ruled out."""
    if not 2 <= n <= MAX_FACTORIAL_N:
        raise ValueError(f"group size must be between 2 and {MAX_FACTORIAL_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    ball = ball_value(n, t, table_cap)
    try:
        factors = factorize(ball, rho_budget=factor_budget)
    except FactorizationBudgetError as exc:
        return _certify_degraded(n, t, ball, exc.known)
    if factors:
        largest = factors[-1][0]
        if largest > n:
            return Certificate(
                n, t, ball, factors, NONEXISTENT_PRIME_FACTOR, witness_prime=largest
            )
    violation = _legendre_violation(ball, [p for p, _ in factors], n)
    if violation is not None:
        p, exponents = violation
        return Certificate(
            n,
            t,
            ball,
            factors,
            NONEXISTENT_NOT_DIVIDING,
            witness_prime=p,
            witness_exponents=exponents,
        )
    return Certificate(
        n, t, ball, factors, INCONCLUSIVE, quotient=factorial(n) // ball
    )


def _certify_degraded(n: int, t: int, ball: int, known: Factorization) -> Certificate:
    """Best verdict still provable from a partial factorization.

    The primes in ``known`` are genuine factors of the ball, so either
    nonexistence test may still fire; the prime-count witnesses use exact
    valuations of the ball, not the possibly understated partial
    exponents.  When neither test decides, fall back to dividing n!
    directly; a nonzero remainder proves nonexistence without naming a
    witness prime.
    """
    primes = [p for p, _ in known]
    oversized = [p for p in primes if p > n]
    if oversized:
        return Certificate(
            n,
            t,
            ball,
            None,
            NONEXISTENT_PRIME_FACTOR,
            witness_prime=max(oversized),
            degraded=True,
        )
    violation = _legendre_violation(ball, primes, n)
    if violation is not None:
        p, exponents = violation
        return Certificate(
            n,
            t,
            ball,
            None,
            NONEXISTENT_NOT_DIVIDING,
            witness_prime=p,
            witness_exponents=exponents,
            degraded=True,
        )
    order = factorial(n)
    if order % ball:
        return Certificate(n, t, ball, None, NONEXISTENT_NOT_DIVIDING, degraded=True)
    return Certificate(
        n, t, ball, None, INCONCLUSIVE, quotient=order // ball, degraded=True
    )


def _certify_entry(n: int, t: int, factor_budget: int, table_cap: int) -> Certificate:
    return certify(n, t, factor_budget=factor_budget, table_cap=table_cap)


def scan(
    t: int,
    n_from: int,
    n_to: int,
    *,
    factor_budget: int = DEFAULT_RHO_BUDGET,
    table_cap: int = DEFAULT_TABLE_CAP,
    jobs: int = 1,
) -> list[Certificate]:
    """One certificate per n in [n_from, n_to], in order.

    Budget exhaustion inside an entry degrades that entry's certificate
    instead of aborting the scan.  Range problems (group sizes the table
    cap cannot serve) are rejected up front, before any work.  With
    ``jobs`` above 1 the entries are shared out to that many processes.
    """
    if n_from < 2:
        raise ValueError(f"scan starts at group size 2, got {n_from}")
    if n_to < n_from:
        raise ValueError(f"empty scan range [{n_from}, {n_to}]")
    if n_to > MAX_FACTORIAL_N:
        raise ValueError(f"scan supports group sizes up to {MAX_FACTORIAL_N}, got {n_to}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ns = range(n_from, n_to + 1)
    _check_table_cap(n_to, t, table_cap)  # the largest group needs the most
    if jobs > 1:
        worker = functools.partial(
            _certify_entry, t=t, factor_budget=factor_budget, table_cap=table_cap
        )
        chunksize = max(1, len(ns) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, ns, chunksize=chunksize))
    return [
        certify(n, t, factor_budget=factor_budget, table_cap=table_cap) for n in ns
    ]


def check_certificate(cert: Certificate, *, table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """Recompute every claim in a certificate from (n, t); False on any mismatch.

    Validates the ball value, the factor list (primality, order, product),
    witness arithmetic, the quotient, and that the verdict is the one the
    evidence actually supports, including that the stronger prime-factor
    verdict was not skipped when full evidence was available.
    """
    if cert.verdict not in VERDICTS:
        return False
    try:
        expected_ball = ball_value(cert.n, cert.t, table_cap)
    except ValueError:
        return False
    if cert.ball != expected_ball:
        return False
    factors = cert.factorization
    if (factors is None) != cert.degraded:
        return False
    if factors is not None:
        if any(e < 1 for _, e in factors):
            return False
        primes = [p for p, _ in factors]
        if primes != sorted(set(primes)):
            return False
        if any(not is_probable_prime(p) for p in primes):
            return False
        if math.prod(p**e for p, e in factors) != cert.ball:
            return False
    order = factorial(cert.n)
    if cert.verdict == NONEXISTENT_PRIME_FACTOR:
        p = cert.witness_prime
        if p is None or cert.witness_exponents is not None or cert.quotient is not None:
            return False
        return is_probable_prime(p) and p > cert.n and cert.ball % p == 0
    if cert.verdict == NONEXISTENT_NOT_DIVIDING:
        if cert.quotient is not None:
            return False
        if factors is not None and factors[-1][0] > cert.n:
            return False  # the prime-factor verdict was available and skipped
        p = cert.witness_prime
        if p is None:
            # witness-free form is only reachable with degraded evidence
            return (
                cert.degraded
                and cert.witness_exponents is None
                and order % cert.ball != 0
            )
        if cert.witness_exponents is None or not is_probable_prime(p):
            return False
        in_ball, allowed = cert.witness_exponents
        return (
            _valuation(cert.ball, p) == in_ball
            and factorial_valuation(cert.n, p) == allowed
            and in_ball > allowed
        )
    # INCONCLUSIVE
    if cert.witness_prime is not None or cert.witness_exponents is not None:
        return False
    if cert.quotient is None or cert.quotient * cert.ball != order:
        return False
    if factors is not None:
        if factors and factors[-1][0] > cert.n:
            return False
        if not divides_factorial(factors, cert.n):
            return False
    return True


RECORD_FIELDS = (
    "n",
    "t",
    "ball",
    "factorization",
    "verdict",
    "witness_prime",
    "witness_exponents",
    "quotient",
    "degraded",
)

UNFACTORED = "unfactored"


def certificate_values(cert: Certificate) -> dict[str, str]:
    """Field values in serialization form, keyed by RECORD_FIELDS names."""
    return {
        "n": str(cert.n),
        "t": str(cert.t),
        "ball": str(cert.ball),
        "factorization": (
            UNFACTORED
            if cert.factorization is None
            else format_factorization(cert.factorization)
        ),
        "verdict": cert.verdict,
        "witness_prime": "" if cert.witness_prime is None else str(cert.witness_prime),
        "witness_exponents": (
            ""
            if cert.witness_exponents is None
            else f"{cert.witness_exponents[0]},{cert.witness_exponents[1]}"
        ),
        "quotient": "" if cert.quotient is None else str(cert.quotient),
        "degraded": "true" if cert.degraded else "false",
    }


def format_certificate(cert: Certificate) -> str:
    """One tab-separated key=value record; absent fields serialize empty."""
    values = certificate_values(cert)
    return "\t".join(f"{name}={values[name]}" for name in RECORD_FIELDS)


def parse_certificate(line: str) -> Certificate:
    """Rebuild a certificate from its record line."""
    fields: dict[str, str] = {}
    for part in line.rstrip("\n").split("\t"):
        name, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed record field {part!r}")
        fields[name] = value
    missing = [name for name in RECORD_FIELDS if name not in fields]
    if missing:
        raise ValueError(f"record is missing fields {missing}")
    if fields["verdict"] not in VERDICTS:
        raise ValueError(f"unknown verdict {fields['verdict']!r}")
    if fields["degraded"] not in ("true", "false"):
        raise ValueError(f"degraded must be true or false, got {fields['degraded']!r}")
    exponents: Optional[tuple[int, int]] = None
    if fields["witness_exponents"]:
        first, sep, second = fields["witness_exponents"].partition(",")
        if not sep:
            raise ValueError(f"malformed exponent pair {fields['witness_exponents']!r}")
        exponents = (int(first), int(second))
    return Certificate(
        n=int(fields["n"]),
        t=int(fields["t"]),
        ball=int(fields["ball"]),
        factorization=(
            None
            if fields["factorization"] == UNFACTORED
            else parse_factorization(fields["factorization"])
        ),
        verdict=fields["verdict"],
        witness_prime=int(fields["witness_prime"]) if fields["witness_prime"] else None,
        witness_exponents=exponents,
        quotient=int(fields["quotient"]) if fields["quotient"] else None,
        degraded=fields["degraded"] == "true",
    )


# Polynomial factors of the closed-form ball sizes, used to annotate where
# a witness prime comes from in human-readable output.
_BALL_FACTOR_FAMILIES: dict[int, tuple[tuple[str, Callable[[int], int]], ...]] = {
    2: (("n+2", lambda n: n + 2), ("n-1", lambda n: n - 1)),
    3: (("n+1", lambda n: n + 1), ("n^2+2n-6", lambda n: n**2 + 2 * n - 6)),
    4: (
        ("n+2", lambda n: n + 2),
        ("n+1", lambda n: n + 1),
        ("n^2+3n-12", lambda n: n**2 + 3 * n - 12),
    ),
    5: (
        ("n+7", lambda n: n + 7),
        ("n", lambda n: n),
        ("n^3+3n^2-6n-28", lambda n: n**3 + 3 * n**2 - 6 * n - 28),
    ),
}


def witness_factor_families(cert: Certificate) -> list[str]:
    """Which polynomial factors of the closed-form ball the witness divides.

    Only meaningful for radii 2..5 where the ball factors into named
    polynomial pieces; empty otherwise.
    """
    if cert.witness_prime is None:
        return []
    families = _BALL_FACTOR_FAMILIES.get(cert.t, ())
    return [name for name, poly in families if poly(cert.n) % cert.witness_prime == 0]


def format_certificate_pretty(cert: Certificate) -> str:
    """Multi-line human-readable rendering of one certificate."""
    values = certificate_values(cert)
    lines = [
        f"S_{cert.n}, radius {cert.t}: ball size {cert.ball}"
        f" = {values['factorization']}"
    ]
    if cert.verdict == NONEXISTENT_PRIME_FACTOR:
        lines.append(
            f"  no perfect {cert.t}-error-correcting code exists in S_{cert.n}:"
            f" prime {cert.witness_prime} divides the ball size"
            f" but exceeds n = {cert.n}, so it cannot divide {cert.n}!"
        )
    elif cert.verdict == NONEXISTENT_NOT_DIVIDING:
        if cert.witness_prime is None:
            lines.append(
                f"  no perfect {cert.t}-error-correcting code exists in S_{cert.n}:"
                f" {cert.ball} leaves a nonzero remainder dividing {cert.n}!"
            )
        else:
            in_ball, allowed = cert.witness_exponents
            lines.append(
                f"  no perfect {cert.t}-error-correcting code exists in S_{cert.n}:"
                f" prime {cert.witness_prime} divides the ball size {in_ball}"
                f" times but {cert.n}! only {allowed} times"
            )
    else:
        lines.append(
            f"  divisibility does not decide: the ball size divides {cert.n}!"
            f" with quotient {cert.quotient}"
        )
    families = witness_factor_families(cert)
    if families:
        plural = "factors" if len(families) > 1 else "factor"
        lines.append(
            f"  witness {cert.witness_prime} divides the polynomial {plural}"
            f" {' and '.join(families)} of the ball size"
        )
    if cert.degraded:
        lines.append(
            "  degraded evidence: factoring stopped at its budget;"
            " the verdict uses only the primes found plus a direct remainder test"
        )
    return "\n".join(lines)
