"""Exact counting and divisibility certificates for permutation codes
under the Kendall tau metric.

The package answers two questions about the symmetric group S_n with the
adjacent-transposition (Kendall tau) distance, in exact integer
arithmetic throughout:

* how many permutations lie at distance i from a center, or within
  radius r (``mahonian``), and
* when does the sphere-packing identity already rule out a perfect
  t-error-correcting code (``certifier``).

``numtheory`` supplies the n-smooth split of a ball size, sieve
primality and factorial divisibility without n! (``math.factorial``
serves the few places that need n! itself), and ``oracle`` brute-force
ground truth for small n: the Kendall distance between permutations in
one-line notation, distance histograms of S_n and an exhaustive
perfect-code search.
"""

from .certifier import (
    Certificate,
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    NONEXISTENT_PRIME_FACTOR,
    ball_value,
    certify,
    check_certificate,
    format_certificate,
    format_certificate_pretty,
    parse_certificate,
    scan,
)
from .mahonian import (
    BallSize,
    SphereTable,
    ball_closed_form,
    ball_count,
    ball_size,
    build_table,
    max_distance,
    sphere_closed_form,
    sphere_size,
    sphere_size_large_radius,
    sphere_size_small_radius,
    table_tsv_lines,
)
from .numtheory import (
    Factorization,
    divides_factorial,
    factorial_valuation,
    factorize,
    format_factorization,
    is_probable_prime,
)
from .oracle import (
    CodeSearchResult,
    ball_census,
    inversion_histogram,
    kendall_distance,
    search_perfect_code,
    verify_min_distance,
)

__version__ = "0.11.3"

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
    "BallSize",
    "SphereTable",
    "ball_closed_form",
    "ball_count",
    "ball_size",
    "build_table",
    "max_distance",
    "sphere_closed_form",
    "sphere_size",
    "sphere_size_large_radius",
    "sphere_size_small_radius",
    "table_tsv_lines",
    "Factorization",
    "divides_factorial",
    "factorial_valuation",
    "factorize",
    "format_factorization",
    "is_probable_prime",
    "CodeSearchResult",
    "ball_census",
    "inversion_histogram",
    "kendall_distance",
    "search_perfect_code",
    "verify_min_distance",
]
