"""Brute-force ground truth for small symmetric groups.

Everything in this module works by enumerating permutations and measuring
distances directly, deliberately avoiding the recurrence machinery it is
meant to check.  Sizes are capped accordingly: histograms up to n = 10,
perfect-code searches up to n = 6.

A permutation of [n] = {1, ..., n} is a tuple of the values 1..n in
one-line notation: ``pi[i]`` is the image of position ``i + 1``.
``check_permutation`` validates that format wherever permutations come
from a caller, and ``kendall_distance`` measures two of them by counting
inversions with binary insertion (``bisect``): its list shifts are
quadratic in n, but it beats a merge sort below n of about 35 000.

One streaming kernel, ``inversion_histogram(n)``, counts the inversions
of every permutation of [n]; ``ball_census`` sums a prefix of it.  It
walks S_n by plain changes, where each step swaps one adjacent pair, so
comparing that pair moves the running inversion count by exactly one.
The walk follows the recursive definition (Steinhaus-Johnson-Trotter;
TAOCP 7.2.1.2): the largest item sweeps across the others while they
stay put, and between its sweeps the others take one plain change of
their own.  S_n is never materialised.

The perfect-code search is Knuth's Algorithm X (TAOCP 7.2.2.1) over
radius-t balls, since a perfect code is a set of centers whose balls
partition S_n.  Relabelling values preserves the Kendall distance, so the
ball around ``c`` is x relabelled through ``c`` for x in the ball around
the identity, which is measured once by counting inversions: O(n!·|B|)
work instead of n!² distance calls.  The search's permutations are
enumerated, not supplied, so it indexes them directly and validates only
the code it returns.
When one ball is all of S_n (t at or past the diameter) no ball is
built: the identity alone is the code.  Because the balls are derived, a
code the search finds is re-checked by direct distances before it is
returned.  The search, iterative rather than recursive, expands the
lowest uncovered permutation with the fewest admissible centers
(fail-first, where none and one count alike), tries them in
lexicographic order and counts every visited state, so outcomes and node
counts are reproducible.  It runs until it finds a cover or exhausts the
choices: no served (n, t) visits more than 720 states, and the one
bound, n <= 6, limits the n!·|B| work of building the balls.  The
identity is always the first codeword: translating all codewords by a
fixed permutation preserves pairwise distances, so any perfect code can
be shifted to one containing the identity and the restriction loses no
generality.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right, insort
from math import factorial
from typing import Iterator, NamedTuple, Optional, Sequence

MAX_HISTOGRAM_N = 10
MAX_SEARCH_N = 6

FOUND = "FOUND"
EXHAUSTED_NONE = "EXHAUSTED_NONE"

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
    position = [0] * len(sigma)
    for pos, value in enumerate(sigma, 1):
        position[value - 1] = pos
    # each position inverts with the earlier ones that exceed it
    inversions, seen = 0, []
    for k, p in enumerate(position[v - 1] for v in pi):
        inversions += k - bisect_right(seen, p)
        insort(seen, p)
    return inversions


class CodeSearchResult(NamedTuple):
    """Outcome of an exhaustive perfect-code search.

    ``code`` is populated only for FOUND.  ``nodes_explored`` counts every
    search state visited, including dead ends, and is deterministic for
    given inputs.  ``note`` explains shortcuts such as the divisibility
    pre-check.
    """

    n: int
    t: int
    outcome: str
    code: Optional[tuple[Permutation, ...]]
    nodes_explored: int
    note: str = ""


def _plain_changes(n: int) -> Iterator[int]:
    """Walk S_n by plain changes, yielding where each step swaps.

    Starting from the identity, the 0-based positions k of the n! - 1
    swaps of entries k and k + 1 visit every permutation of n items once.
    By the recursive definition (Steinhaus-Johnson-Trotter), the largest
    item sweeps across the others, leftward and then rightward in turn,
    and between two sweeps the others take one step of the walk of
    S_(n-1).  The caller keeps the only copy of the array; the generators
    nest n deep.
    """
    if n < 2:
        return
    leftward, rightward = range(n - 2, -1, -1), range(n - 1)
    yield from leftward
    for step, k in enumerate(_plain_changes(n - 1)):
        if step % 2:  # the largest item is back at the right end
            yield k
            yield from leftward
        else:  # the largest item is at the left end, the others right of it
            yield k + 1
            yield from rightward


def inversion_histogram(n: int) -> tuple[int, ...]:
    """How many permutations of [n] lie at each distance 0..D from any center.

    Each count is the number of permutations with that many inversions.
    The walk by plain changes visits every permutation once, and comparing
    the one adjacent pair each step swaps moves the inversion count by one.
    One count serves every center: relabelling through a center maps S_n
    onto itself and keeps every distance, so each center sees the
    identity's distance distribution.
    """
    if not 2 <= n <= MAX_HISTOGRAM_N:
        raise ValueError(
            "the distance histogram enumerates all of S_n and supports"
            f" 2 <= n <= {MAX_HISTOGRAM_N}, got {n}"
        )
    counts = [0] * (math.comb(n, 2) + 1)
    counts[0] = 1  # the identity, where the walk starts
    pi = list(range(n))
    inversions = 0
    for k in _plain_changes(n):
        left, right = pi[k], pi[k + 1]
        pi[k], pi[k + 1] = right, left
        inversions += 1 if left < right else -1
        counts[inversions] += 1
    return tuple(counts)


def ball_census(n: int, r: int) -> int:
    """Count permutations within distance r of any center by full enumeration."""
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return sum(inversion_histogram(n)[: r + 1])


def verify_min_distance(code: Sequence[Sequence[int]], d: int) -> bool:
    """Whether all pairwise distances in ``code`` are at least d."""
    if d < 1:
        raise ValueError(f"distance requirement must be at least 1, got {d}")
    members = [check_permutation(pi) for pi in code]
    if not members:
        raise ValueError("empty code")
    sizes = {len(pi) for pi in members}
    if len(sizes) > 1:
        raise ValueError(f"codewords of mixed sizes {sorted(sizes)}")
    if d == 1:  # a metric puts distinct points at distance at least 1
        return len(set(members)) == len(members)
    for a, b in itertools.combinations(members, 2):
        if kendall_distance(a, b) < d:
            return False
    return True


def _translate(x: Permutation, center: Permutation) -> Permutation:
    """Relabel the values of ``x`` through ``center``, unchecked."""
    return tuple(center[v - 1] for v in x)


def _translated_balls(
    perms: list[Permutation], ball: list[Permutation]
) -> list[tuple[int, ...]]:
    """The ball around each of ``perms``, as sorted distinct indices into it.

    ``ball`` is the ball around the identity; the ball around ``c`` is its
    translate through ``c``, since relabelling values by ``c`` keeps every
    distance.
    """
    index = {pi: i for i, pi in enumerate(perms)}
    return [
        tuple(sorted({index[_translate(x, center)] for x in ball})) for center in perms
    ]


def _exact_cover(balls: list[tuple[int, ...]]) -> tuple[str, list[int], int]:
    """Partition the points by ``balls``: (outcome, chosen centers, nodes visited)."""
    # Algorithm X over sets: each uncovered point keeps the centers that
    # could still cover it, which by symmetry start as its own ball
    admissible = {point: set(centers) for point, centers in enumerate(balls)}
    # each selected center with the columns its selection removed
    selected: list[tuple[int, list[tuple[int, set[int]]]]] = []

    def select(center: int) -> None:
        # cover the center's points and hide every center that meets them
        removed = []
        for point in balls[center]:
            rivals = admissible.pop(point)
            for rival in rivals:
                for other in balls[rival]:
                    if other in admissible:
                        admissible[other].discard(rival)
            removed.append((point, rivals))
        selected.append((center, removed))

    def deselect() -> None:
        for point, rivals in reversed(selected.pop()[1]):
            for rival in rivals:
                for other in balls[rival]:
                    if other in admissible:
                        admissible[other].add(rival)
            admissible[point] = rivals

    select(0)  # the identity; any perfect code translates to one holding it
    # the untried centers of each open choice, deepest last; a loop, not
    # recursion, since (6, 0) opens 720 choices
    choices: list[Iterator[int]] = []
    for nodes in itertools.count(1):
        if not admissible:
            return FOUND, [center for center, _ in selected], nodes
        # fail-first: the lowest point with the fewest admissible centers,
        # where none and one count alike
        fewest = max(min(map(len, admissible.values())), 1)
        point = min(p for p, centers in admissible.items() if len(centers) <= fewest)
        choices.append(iter(sorted(admissible[point])))
        while choices and (center := next(choices[-1], None)) is None:
            choices.pop()
            if choices:
                deselect()  # the center that opened the exhausted choice
        if not choices:
            return EXHAUSTED_NONE, [], nodes
        select(center)


def search_perfect_code(n: int, t: int) -> CodeSearchResult:
    """Exhaustively decide whether a perfect t-code exists in S_n.

    Returns FOUND with a witness code that contains the identity, or
    EXHAUSTED_NONE when no perfect code containing the identity exists,
    and so, by translation, none at all.
    """
    if not 2 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    perms = list(itertools.permutations(range(1, n + 1)))
    # the identity's ball, by inversion count: its distance to each pi
    ball = [
        pi
        for pi in perms
        if sum(left > right for left, right in itertools.combinations(pi, 2)) <= t
    ]
    order = factorial(n)
    note = ""
    if order % len(ball):
        outcome, centers, nodes = EXHAUSTED_NONE, [], 0
        note = (
            f"ball size {len(ball)} does not divide |S_{n}| = {order}; "
            "balls cannot partition the group"
        )
    elif len(ball) == order:
        # one ball is all of S_n, so the identity alone is a perfect code:
        # the search's first node would find it after building n! identical
        # translates
        outcome, centers, nodes = FOUND, [0], 1
    else:
        outcome, centers, nodes = _exact_cover(_translated_balls(perms, ball))
    solution: Optional[tuple[Permutation, ...]] = None
    if outcome == FOUND:
        solution = tuple(perms[center] for center in centers)
        # codewords 2t+1 apart have disjoint balls, and n!/|B| of them cover S_n
        if len(solution) * len(ball) != order or not verify_min_distance(
            solution, 2 * t + 1
        ):
            raise AssertionError("search produced a code that is not perfect")
    return CodeSearchResult(
        n=n, t=t, outcome=outcome, code=solution, nodes_explored=nodes, note=note
    )
