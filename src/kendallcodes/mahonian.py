"""Exact sphere and ball sizes in S_n under the Kendall tau metric.

The metric is invariant under relabeling, so the number of permutations at
distance exactly i from a center does not depend on the center: it is the
number of permutations of [n] with i inversions, the Mahonian number
S(n, i).  A row (S(n, 0), ..., S(n, n(n-1)/2)) therefore doubles as the
distance distribution of any sphere, and its prefix sums are ball sizes.

Everything here is integer-exact and never materializes permutations.  The
table is built by the one-step recurrence

    S(n, i) = sum of S(n-1, j) for j in [max(0, i - (n - 1)), i],

implemented with running prefix sums, which covers every (n, i) uniformly.
Single ball sizes come from :func:`ball_count`, which builds no table: the
generating function of the balls is prod_{k<=n} (1 - q^k) / (1 - q)^(n+1),
so B(n, r) is a sum of binomials weighted by the coefficients of Euler's
product (Knuth, TAOCP vol. 3, section 5.1.1).  For r <= n those are the
pentagonal signs of Euler's theorem, so the sum has O(sqrt(r)) terms;
past r = n they are expanded from the truncated product in O(n * r)
integer steps.  Two independent piecewise recursions
(`sphere_size_small_radius` for radii below n,
`sphere_size_large_radius` for radii from n up to the midpoint) and
degree-bounded closed forms for radii up to 5 re-derive the same numbers
by other routes; they are kept as results of the paper and as test
oracles for the table and for ``ball_count``.

:func:`rows` runs the recurrence one row at a time, holding only the
previous row, and cuts each row at a radius limit when it is given: entry
i needs no column of the previous row beyond i.  The reversal symmetry
S(n, i) = S(n, n(n-1)/2 - i) halves the work twice: ``rows`` computes
entries up to the midpoint and mirrors the rest, and the TSV export,
which streams from ``rows`` and never holds more than one row, converts
only those to text and mirrors the text.  It assembles each row column
by column (index, sphere and ball text) and joins each line in one
``str.join``, so it runs no bytecode per line.  :func:`build_table` keeps
every full row, for the brute-force cross-checks.  The cost of a full
table grows roughly as n^4, and MAX_TABLE_N bounds it; ``ball_count``
itself has no limit.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple, Optional

__all__ = [
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
]

MAX_TABLE_N = 256


class SphereTable(NamedTuple):
    """Rows of inversion counts for group sizes 2..max_n, immutable once built."""

    max_n: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 2 <= n <= self.max_n:
            raise ValueError(f"table holds rows for 2 <= n <= {self.max_n}, got {n}")
        return self.rows[n - 2]


class BallSize(NamedTuple):
    """Number of permutations within distance r of any fixed center in S_n."""

    n: int
    r: int
    value: int


def max_distance(n: int) -> int:
    """Diameter of S_n under the metric: n(n-1)/2, attained by the reversal."""
    return math.comb(n, 2)


def rows(max_n: int, max_r: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Rows S(n, 0..min(max_r, D)) for n = 2..max_n by the one-step recurrence.

    Only the previous row is held.  The arguments are checked at the call,
    before the first row is asked for.
    """
    if not 2 <= max_n <= MAX_TABLE_N:
        raise ValueError(f"table size must be between 2 and {MAX_TABLE_N}, got {max_n}")
    if max_r is not None and max_r < 0:
        raise ValueError(f"radius limit must be nonnegative, got {max_r}")

    def generate() -> Iterator[tuple[int, ...]]:
        row: tuple[int, ...] = (1,)  # n = 1
        for n in range(2, max_n + 1):
            diameter = max_distance(n)
            top = diameter if max_r is None else min(max_r, diameter)
            # only entries up to the midpoint are computed, the rest mirror
            # them; those i never pass the previous row's last column, so
            # with n zeros in front S(n, i) = padded[i + n] - padded[i]
            width = min(top, diameter // 2) + 1
            padded = [0] * n + list(accumulate(row))
            half = list(map(sub, padded[n : n + width], padded[:width]))
            row = tuple(half + half[diameter - top : diameter - diameter // 2][::-1])
            yield row

    return generate()


def build_table(max_n: int) -> SphereTable:
    """Build all rows for group sizes 2..max_n by the one-step recurrence."""
    return SphereTable(max_n=max_n, rows=tuple(rows(max_n)))


def sphere_size(table: SphereTable, n: int, i: int) -> int:
    """S(n, i) from the table; 0 outside the feasible range 0..n(n-1)/2."""
    row = table.row(n)
    if i < 0 or i >= len(row):
        return 0
    return row[i]


def _pivot(i: int) -> int:
    """Smallest group size t >= 4 whose maximum inversion count reaches i.

    The piecewise recursions anchor at this t, the group size where radius
    i first becomes feasible: t(t-1)/2 >= i > (t-1)(t-2)/2.
    """
    t = 4
    while max_distance(t) < i:
        t += 1
    return t


def sphere_size_small_radius(table: SphereTable, n: int, i: int) -> int:
    """Rebuild S(n, i) for radii 4 <= i <= n - 1 from smaller groups' rows.

    Anchors at the pivot group t (where radius i is first feasible) with
    the mirrored entry S(t, t(t-1)/2 - i), then adds, for each intermediate
    group size, the window of entries that survive appending the next
    largest element.  Sums over an empty index range contribute 0.

    Independent of the one-step recurrence row for n itself, so it serves
    as a cross-check of the table.
    """
    if n < 4:
        raise ValueError(f"defined for group sizes n >= 4, got {n}")
    if not 4 <= i <= n - 1:
        raise ValueError(f"radius must satisfy 4 <= i <= n - 1 = {n - 1}, got {i}")
    if table.max_n < n - 1:
        raise ValueError(f"needs table rows up to {n - 1}, table stops at {table.max_n}")
    t = _pivot(i)
    total = sphere_size(table, t, max_distance(t) - i)
    for l in range(t, i):
        total += sum(sphere_size(table, l, j) for j in range(i - l, i))
    for l in range(i, n):
        total += sum(sphere_size(table, l, j) for j in range(0, i))
    return total


def sphere_size_large_radius(table: SphereTable, n: int, i: int) -> int:
    """Rebuild S(n, i) for radii n <= i <= floor(n(n-1)/4) from smaller groups' rows.

    Same anchoring as :func:`sphere_size_small_radius`, but radii of at
    least the group size overcount, and the overshoot is subtracted as the
    window sums for group sizes n..i-1.  The subtrahend is empty at i = n.
    """
    if n < 5:
        raise ValueError(f"defined for group sizes n >= 5, got {n}")
    if not n <= i <= max_distance(n) // 2:
        raise ValueError(
            f"radius must satisfy n <= i <= {max_distance(n) // 2}, got {i}"
        )
    if table.max_n < i - 1:
        raise ValueError(f"needs table rows up to {i - 1}, table stops at {table.max_n}")
    t = _pivot(i)
    total = sphere_size(table, t, max_distance(t) - i)
    for l in range(t, i):
        total += sum(sphere_size(table, l, j) for j in range(i - l, i))
    for l in range(n, i):
        total -= sum(sphere_size(table, l, j) for j in range(i - l, i))
    return total


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"non-exact division {numerator}/{denominator}; closed form is broken"
        )
    return quotient


SPHERE_FORM_MIN_N = {0: 1, 1: 1, 2: 3, 3: 3, 4: 4, 5: 5}


def sphere_closed_form(n: int, i: int) -> int:
    """S(n, i) for radii up to 5 as a polynomial in n, O(1) for any n.

    Each polynomial is stated with a validity threshold on n; below it the
    polynomial does not count anything meaningful, so the call is rejected
    rather than silently extrapolated.  All divisions are exact.
    """
    if i not in SPHERE_FORM_MIN_N:
        raise ValueError(f"closed forms cover radii 0..5, got {i}")
    if n < SPHERE_FORM_MIN_N[i]:
        raise ValueError(f"radius {i} closed form needs n >= {SPHERE_FORM_MIN_N[i]}, got {n}")
    if i == 0:
        return 1
    if i == 1:
        return n - 1
    if i == 2:
        return _exact_div(n * (n - 1), 2) - 1
    if i == 3:
        return _exact_div(n**3 - 7 * n, 6)
    if i == 4:
        return _exact_div(n * (n + 1) * (n**2 + n - 14), 24)
    return _exact_div((n - 1) * (n**4 + 6 * n**3 - 9 * n**2 - 74 * n - 120), 120)


def ball_size(table: SphereTable, n: int, r: int) -> BallSize:
    """Number of permutations within distance r of a center: prefix sum of a row.

    Radii at or beyond the diameter cover the whole group, so the value
    clamps at n!.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    row = table.row(n)
    value = sum(row[: r + 1])
    return BallSize(n=n, r=r, value=value)


def ball_count(n: int, r: int) -> int:
    """B(n, r) for any n >= 1 and r >= 0, exact and without a table.

    Radii at or beyond the diameter D clamp to it, so the value is n!
    there.  With a_j = [q^j] prod_{k=1..n} (1 - q^k),

        B(n, r) = sum over j in 0..r of a_j * C(n + r - j, n),

    because dividing the Mahonian generating function prod (1 - q^k) /
    (1 - q)^n by one more (1 - q) turns spheres into balls.

    For r <= n (after the clamp) the a_j up to r are those of Euler's
    infinite product: (-1)^k at the generalized pentagonal numbers
    j = k(3k -+ 1)/2 and 0 elsewhere.  The sum then has about
    2 * sqrt(2r/3) + 1 terms, each one ``math.comb``.  For r > n the
    coefficients are expanded from the factors k <= n in O(n * r)
    integer steps, and the sum walks r + 1 binomials.
    """
    if n < 1:
        raise ValueError(f"group size must be at least 1, got {n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    r = min(r, max_distance(n))
    if r <= n:
        total = math.comb(n + r, n)
        k = 1
        while (j := k * (3 * k - 1) // 2) <= r:
            term = math.comb(n + r - j, n)
            if j + k <= r:  # the pentagonal partner k(3k + 1)/2
                term += math.comb(n + r - j - k, n)
            total += -term if k % 2 else term
            k += 1
        return total
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


BALL_FORM_MIN_N = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}

# B(n, r) for r <= 5 is the product of these named polynomials in n over
# r!; the certifier's pretty output names those a witness shares a prime with.
BALL_FORM_FACTORS: dict[int, tuple[tuple[str, Callable[[int], int]], ...]] = {
    0: (),
    1: (("n", lambda n: n),),
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


def ball_closed_form(n: int, r: int) -> int:
    """Ball size for radii up to 5 as a polynomial in n, O(1) for any n.

    The product of the ``BALL_FORM_FACTORS`` of r, divided exactly by r!.
    Thresholds are enforced exactly as stated; below them the polynomial
    disagrees with the true ball size (the sphere summands degenerate).
    """
    if r not in BALL_FORM_MIN_N:
        raise ValueError(f"closed forms cover radii 0..5, got {r}")
    if n < BALL_FORM_MIN_N[r]:
        raise ValueError(f"radius {r} closed form needs n >= {BALL_FORM_MIN_N[r]}, got {n}")
    product = math.prod(poly(n) for _, poly in BALL_FORM_FACTORS[r])
    return _exact_div(product, math.factorial(r))


TSV_HEADER = "n\ti\tsphere\tball"


def table_tsv_lines(max_n: int, max_r: Optional[int] = None) -> Iterator[str]:
    """Stream tab-separated ``n i sphere ball`` lines with header, row by row.

    The arguments are checked at the call, before the header.  Each line is
    joined from its row's columns by one ``str.join``: the index column,
    kept for the whole call and extended as rows grow (they never shrink);
    the text of spheres 0..D/2, mirrored by slicing, so each sphere size is
    converted once; and the ball text.
    """
    sphere_rows = rows(max_n, max_r)

    def generate() -> Iterator[str]:
        yield TSV_HEADER
        index: list[str] = []
        for n, row in enumerate(sphere_rows, start=2):
            diameter = max_distance(n)
            half = [f"{count}\t" for count in row[: diameter // 2 + 1]]
            # entry i > D/2 is entry D - i; the cut row ends at len(row) - 1
            spheres = half + half[diameter - len(row) + 1 : diameter - diameter // 2][::-1]
            index.extend(f"{i}\t" for i in range(len(index), len(row)))
            balls = map(str, accumulate(row))
            yield from map("".join, zip(repeat(f"{n}\t"), index, spheres, balls))

    return generate()
