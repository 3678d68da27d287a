"""Permutation arithmetic for the symmetric group under the Kendall tau metric.

A permutation of [n] = {1, ..., n} is a tuple of the values 1..n in one-line
notation: ``pi[i]`` is the image of position ``i + 1``.  All values are
1-based at the interface; helper indices inside functions are 0-based.

Composition order matters and is easy to get backwards.  Throughout this
package ``compose(pi, sigma)`` applies ``pi`` first and ``sigma`` second,
so the result maps ``i`` to ``sigma(pi(i))``.  The Kendall tau distance is
defined from the relative order of values and does not depend on that
choice; only ``compose`` itself does.

The Kendall tau distance between two permutations is the number of value
pairs ordered differently by the two, which equals the minimum number of
adjacent transpositions turning one into the other.  The weight of a
permutation is its distance from the identity, i.e. its inversion count.

Composition, inversion and distance take O(n log n) steps at any n, so
only full enumeration is capped, at n = 10; counting questions for larger
n belong to the recurrence machinery in ``mahonian``, which never
materializes permutations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

MAX_ENUM_N = 10

Permutation = tuple[int, ...]


def check_permutation(pi: Sequence[int]) -> Permutation:
    """Validate one-line notation and return it as a tuple.

    Raises ValueError if the entries are not the ints 1..n in some order
    for some n >= 1; floats and bools that compare equal to them are not.
    """
    entries = tuple(pi)
    n = len(entries)
    if n < 1:
        raise ValueError("group size must be at least 1, got 0")
    if set(map(type, entries)) != {int} or sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {list(entries)}")
    return entries


def identity(n: int) -> Permutation:
    """The identity permutation [1, 2, ..., n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if n < 1:
        raise ValueError(f"group size must be at least 1, got {n}")
    return tuple(range(1, n + 1))


def compose(pi: Sequence[int], sigma: Sequence[int]) -> Permutation:
    """Apply ``pi`` first, then ``sigma``: the result maps i to sigma(pi(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (3, 1, 2)
    """
    pi = check_permutation(pi)
    sigma = check_permutation(sigma)
    if len(pi) != len(sigma):
        raise ValueError(f"size mismatch: {len(pi)} vs {len(sigma)}")
    return tuple(sigma[v - 1] for v in pi)


def inverse(pi: Sequence[int]) -> Permutation:
    """The inverse permutation: position of each value.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    return tuple(_positions(check_permutation(pi)))


def _positions(pi: Permutation) -> list[int]:
    """The 1-based position of each value of an already validated ``pi``."""
    positions = [0] * len(pi)
    for pos, value in enumerate(pi, 1):
        positions[value - 1] = pos
    return positions


def reverse(pi: Sequence[int]) -> Permutation:
    """The left-to-right reversal of ``pi``.

    Reversal complements the inversion count: a value pair is inverted in
    exactly one of ``pi`` and ``reverse(pi)``, so the two weights always
    sum to n(n-1)/2.

    >>> reverse((2, 1, 3))
    (3, 1, 2)
    """
    pi = check_permutation(pi)
    return pi[::-1]


def kendall_weight(pi: Sequence[int]) -> int:
    """Number of inversions of ``pi``: value pairs appearing in decreasing order.

    Counted by divide and conquer (merge counting) rather than the direct
    pair scan, which the tests keep as an independent oracle.

    >>> kendall_weight((4, 3, 2, 1))
    6
    """
    pi = check_permutation(pi)
    _, inversions = _sort_and_count(list(pi))
    return inversions


def _sort_and_count(seq: list[int]) -> tuple[list[int], int]:
    if len(seq) <= 1:
        return seq, 0
    mid = len(seq) // 2
    left, cl = _sort_and_count(seq[:mid])
    right, cr = _sort_and_count(seq[mid:])
    merged: list[int] = []
    count = cl + cr
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps ahead of every remaining left element
            merged.append(right[j])
            count += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, count


def kendall_distance(sigma: Sequence[int], pi: Sequence[int]) -> int:
    """Kendall tau distance: number of value pairs the two permutations order oppositely.

    Equals the minimum number of adjacent transpositions transforming one
    permutation into the other, and is computed as the inversion count of
    ``pi`` relabeled through ``sigma``'s positions.

    >>> kendall_distance((2, 1, 3), (1, 3, 2))
    2
    """
    sigma = check_permutation(sigma)
    pi = check_permutation(pi)
    if len(sigma) != len(pi):
        raise ValueError(f"size mismatch: {len(sigma)} vs {len(pi)}")
    position = _positions(sigma)
    relabeled = [position[v - 1] for v in pi]
    _, inversions = _sort_and_count(relabeled)
    return inversions


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """Lazily yield all of S_n in lexicographic order.

    >>> list(enumerate_sn(2))
    [(1, 2), (2, 1)]
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}, got {n}")
    return iter(itertools.permutations(range(1, n + 1)))

