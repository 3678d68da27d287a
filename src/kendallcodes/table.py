"""The inversion-count table S(n, i), and everything that reads it.

A row (S(n, 0), ..., S(n, n(n-1)/2)) counts the permutations of [n] by
inversions, so it doubles as the distance distribution of any sphere in
S_n, and its prefix sums are ball sizes (see ``mahonian``).  The table
is built by the one-step recurrence

    S(n, i) = sum of S(n-1, j) for j in [max(0, i - (n - 1)), i],

implemented with running prefix sums, which covers every (n, i) uniformly.
The paper's piecewise recursions are one telescoped sum of window sums
over smaller groups' rows, with two domains
(`sphere_size_small_radius` for radii below n,
`sphere_size_large_radius` for radii from n up to the midpoint), and the
sphere closed forms for radii up to 5 are differences of the ball forms.
Both re-derive the same numbers by other routes; they are kept as results
of the paper and as test oracles for the table and for ``ball_count``.

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
table grows roughly as n^4, and MAX_TABLE_N bounds it.

No certificate or record needs this module, so it loads on first use:
``mahonian`` and ``certifier`` resolve its names when they are first
read there, which on the command line happens only for ``table``,
``verify`` and the pretty form's closed-form factors.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple, Optional

from .mahonian import MAX_TABLE_N, max_distance

__all__ = [
    "BallSize",
    "SphereTable",
    "ball_closed_form",
    "ball_size",
    "build_table",
    "sphere_closed_form",
    "sphere_size",
    "sphere_size_large_radius",
    "sphere_size_small_radius",
    "table_tsv_lines",
]


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


def _telescoped(table: SphereTable, n: int, i: int) -> int:
    """S(n, i) = S(t, t(t-1)/2 - i) + sum over t <= l < n of W(l, i).

    W(l, i), the sum of S(l, j) over max(0, i - l) <= j < i, is what the
    one-step recurrence adds from row l to row l + 1; t >= 4 is the pivot,
    the smallest group size in which radius i is feasible.
    """
    if table.max_n < n - 1:
        raise ValueError(f"needs table rows up to {n - 1}, table stops at {table.max_n}")
    t = 4
    while max_distance(t) < i:
        t += 1
    total = sphere_size(table, t, max_distance(t) - i)
    for l in range(t, n):
        total += sum(table.row(l)[max(0, i - l) : i])
    return total


def sphere_size_small_radius(table: SphereTable, n: int, i: int) -> int:
    """Rebuild S(n, i) for radii 4 <= i <= n - 1 from smaller groups' rows.

    The paper's form: the pivot group t's mirrored entry S(t, t(t-1)/2 - i),
    plus, for each group size l from t to n - 1, the window of entries that
    survive appending the next largest element, S(l, j) for
    max(0, i - l) <= j < i.

    Independent of the one-step recurrence row for n itself, so it serves
    as a cross-check of the table.
    """
    if not 4 <= i <= n - 1:
        raise ValueError(f"radius must satisfy 4 <= i <= n - 1 = {n - 1}, got {i}")
    return _telescoped(table, n, i)


def sphere_size_large_radius(table: SphereTable, n: int, i: int) -> int:
    """Rebuild S(n, i) for radii n <= i <= floor(n(n-1)/4) from smaller groups' rows.

    The paper's form anchors as :func:`sphere_size_small_radius` does, adds
    the windows for group sizes t..i-1 and subtracts those for n..i-1 (none
    at i = n).  Each subtracted window is one of the added ones, so the
    overshoot cancels term by term and only the rows t..n-1 are read.
    """
    if n < 5:
        raise ValueError(f"defined for group sizes n >= 5, got {n}")
    if not n <= i <= max_distance(n) // 2:
        raise ValueError(
            f"radius must satisfy n <= i <= {max_distance(n) // 2}, got {i}"
        )
    return _telescoped(table, n, i)


def sphere_closed_form(n: int, i: int) -> int:
    """S(n, i) for radii up to 5 as a polynomial in n, O(1) for any n.

    B(n, i) - B(n, i - 1) from :func:`ball_closed_form`.  Below each radius's
    threshold on n the polynomial counts nothing meaningful, so the call is
    rejected rather than silently extrapolated.
    """
    return ball_closed_form(n, i) - (ball_closed_form(n, i - 1) if i else 0)


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
    quotient, remainder = divmod(product, math.factorial(r))
    if remainder:
        raise ArithmeticError(f"non-exact division {product}/{r}!; closed form is broken")
    return quotient


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
