"""Exact ball sizes in S_n under the Kendall tau metric, without a table.

The metric is invariant under relabeling, so the number of permutations at
distance exactly i from a center does not depend on the center: it is the
number of permutations of [n] with i inversions, the Mahonian number
S(n, i).  A row (S(n, 0), ..., S(n, n(n-1)/2)) therefore doubles as the
distance distribution of any sphere, and its prefix sums are ball sizes.

Everything here is integer-exact and never materializes permutations.
Single ball sizes come from :func:`ball_count`, which builds no table: the
generating function of the balls is prod_{k<=n} (1 - q^k) / (1 - q)^(n+1),
so B(n, r) is a sum of binomials weighted by the coefficients of the
truncation of Euler's product (Knuth, TAOCP vol. 3, section 5.1.1).  It
takes one of three routes.  Radii from D/2 on, D the diameter, are n!
minus the ball of the reflected radius D - 1 - r, which is empty from D
on.  Below D/2, radii up to 2n + 1 take Euler's pentagonal sum,
O(sqrt(r)) binomials, plus one pentagonal ball of S_(n+1): below
q^(2n+2) the truncation differs from Euler's product by partitions into
one part above n, and that ball is empty for r <= n.  Only
2n + 1 < r < D/2, empty for n <= 9, expands the truncated product's
coefficients in O(n * r) integer steps.  ``ball_count`` has no limit on n.

The rows themselves, the paper's recursions and closed forms, and the TSV
export are in :mod:`kendallcodes.table`, which no certificate needs and
which loads on first use.  This module keeps three of its names only for
the benchmark, which reads them here and whose tracer wraps them here:
``ball_closed_form``, ``ball_size`` and ``build_table``.  They are
forwarded as the package forwards its lazy exports and are in no
``__all__`` here; ``cli``'s ``verify`` reads ``build_table`` here, so the
tracer sees that call.  MAX_TABLE_N, the largest group size the table
serves, stays here, because the command line's help states it.
"""

from __future__ import annotations

import math

__all__ = ["ball_count", "max_distance"]

MAX_TABLE_N = 256

# the table's names that the benchmark reads, and its tracer wraps, here
_TABLE_NAMES = frozenset(("ball_closed_form", "ball_size", "build_table"))


def __getattr__(name: str):
    if name not in _TABLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import table

    value = globals()[name] = getattr(table, name)
    return value


def max_distance(n: int) -> int:
    """Diameter of S_n under the metric: n(n-1)/2, attained by the reversal."""
    return math.comb(n, 2)


def ball_count(n: int, r: int) -> int:
    """B(n, r) for any n >= 1 and r >= 0, exact and without a table.

    With a_j = [q^j] prod_{k=1..n} (1 - q^k),

        B(n, r) = sum over j in 0..r of a_j * C(n + r - j, n),

    because dividing the Mahonian generating function prod (1 - q^k) /
    (1 - q)^n by one more (1 - q) turns spheres into balls.  Let E_n(r)
    be the same sum with the coefficients of Euler's infinite product:
    (-1)^k at the generalized pentagonal numbers j = k(3k -+ 1)/2 and 0
    elsewhere, about 2 * sqrt(2r/3) + 1 terms, each one ``math.comb``,
    and 0 for r < 0.  With D the diameter, the radius takes one of three
    routes:

    * r >= D/2: n! - B(n, D - 1 - r), because spheres are symmetric and
      the complement of a ball is the ball of the reflected radius; from
      r = D on that radius is negative, its ball empty, and the value n!;
    * r <= 2n + 1: E_n(r) + E_(n+1)(r - n - 1).  The truncated product
      is E(q) times the partitions into parts above n, and below
      q^(2n+2) those have at most one part, so it adds the sum of
      E_n(s) over s < r - n, which is E_(n+1)(r - n - 1) by the
      hockey-stick identity: the pentagonal ball of S_(n+1), empty for
      r <= n, where the factors k > n start at q^(n+1);
    * 2n + 1 < r < D/2: the truncated product's coefficients, expanded
      in O(n * r) integer steps, and a walk over r + 1 binomials.
    """
    if n < 1:
        raise ValueError(f"group size must be at least 1, got {n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    diameter = max_distance(n)
    if 2 * r >= diameter:
        return math.factorial(n) - _ball_below_midpoint(n, diameter - 1 - r)
    return _ball_below_midpoint(n, r)


def _ball_below_midpoint(n: int, r: int) -> int:
    """B(n, r) for r < D/2 by the last two routes of :func:`ball_count`; 0 for r < 0."""
    if r <= 2 * n + 1:
        return _euler_sum(n, r) + _euler_sum(n + 1, r - n - 1)
    coeffs = [1] + [0] * r
    for k in range(1, n + 1):
        for j in range(r, k - 1, -1):  # multiply by (1 - q^k) in place
            coeffs[j] -= coeffs[j - k]
    total = 0
    binom = 1  # C(n + m, n) for m = r - j, walking j down from r
    for m in range(r + 1):
        a = coeffs[r - m]
        if a:
            total += a * binom
        binom = binom * (n + m + 1) // (m + 1)
    return total


def _euler_sum(n: int, r: int) -> int:
    """E_n(r): the sum of (-1)^k * C(n + r - j, n) over pentagonal j <= r, 0 for r < 0."""
    if r < 0:
        return 0
    total = math.comb(n + r, n)
    k = 1
    while (j := k * (3 * k - 1) // 2) <= r:
        term = math.comb(n + r - j, n)
        if j + k <= r:  # the pentagonal partner k(3k + 1)/2
            term += math.comb(n + r - j - k, n)
        total += -term if k % 2 else term
        k += 1
    return total


