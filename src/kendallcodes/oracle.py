"""Brute-force ground truth for small symmetric groups.

Everything in this module works by enumerating permutations and measuring
distances directly, deliberately avoiding the recurrence machinery it is
meant to check.  Sizes are capped accordingly: histograms up to n = 10,
ball censuses up to n = 8, perfect-code searches up to n = 6.

One streaming kernel counts the distance of every permutation from a
center: ``inversion_histogram(n, center)``, which ``ball_census`` sums.
It enumerates the permutations of the center's position vector, each of
which is some permutation already relabelled through the center, so the
inversion count of each is its distance and no relabelling is done per
permutation.  S_n is never materialised.

The perfect-code search is Knuth's Algorithm X (TAOCP 7.2.2.1) over
radius-t balls, since a perfect code is a set of centers whose balls
partition S_n.  Relabelling values preserves the Kendall distance, so the
ball around ``c`` is ``compose(x, c)`` for x in the ball around the
identity, measured once: O(n!·|B|) work instead of n!² distance calls.
When one ball is all of S_n (t at or past the diameter) no ball is
built: the identity alone is the code.  Because the balls are derived, a
code the search finds is re-checked by direct distances before it is
returned.  The search, iterative rather than recursive, expands the
lowest uncovered permutation with the fewest admissible centers
(fail-first, where none and one count alike), tries them in
lexicographic order and counts every visited state, so outcomes and node
counts are reproducible.  It runs until it finds a cover or exhausts the
choices: no served (n, t) visits more than 1 039 states, and the one
bound, n <= 6, limits the n!·|B| work of building the balls.  By default
the identity is fixed as the first codeword: translating all codewords
by a fixed permutation preserves pairwise distances, so any perfect code
can be shifted to one containing the identity and the restriction loses
no generality, as tests confirm through the flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Optional, Sequence

from .perms import (
    Permutation,
    check_permutation,
    compose,
    enumerate_sn,
    inverse,
    kendall_distance,
)

MAX_HISTOGRAM_N = 10
MAX_CENSUS_N = 8
MAX_SEARCH_N = 6

FOUND = "FOUND"
EXHAUSTED_NONE = "EXHAUSTED_NONE"


@dataclass(frozen=True)
class CodeSearchResult:
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


def inversion_histogram(n: int, center: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """How many permutations of [n] lie at each distance 0..D from ``center``.

    The center defaults to the identity, where the distance is the number
    of inversions.  Each distance is counted by a direct pair scan.
    """
    if not 2 <= n <= MAX_HISTOGRAM_N:
        raise ValueError(f"histogram supports 2 <= n <= {MAX_HISTOGRAM_N}, got {n}")
    if center is None:
        position: Sequence[int] = range(n)
    else:
        center = check_permutation(center)
        if len(center) != n:
            raise ValueError(f"center has size {len(center)}, expected {n}")
        position = inverse(center)
    counts = [0] * (math.comb(n, 2) + 1)
    # the permutations of the position vector are exactly the relabelled
    # pi, position[pi(i)] for each pi in S_n, whose inversions are d(center, pi)
    for relabeled in itertools.permutations(position):
        inversions = 0
        for i in range(n - 1):
            left = relabeled[i]
            for right in relabeled[i + 1 :]:
                if left > right:
                    inversions += 1
        counts[inversions] += 1
    return tuple(counts)


def ball_census(n: int, r: int, center: Sequence[int]) -> int:
    """Count permutations within distance r of ``center`` by full enumeration."""
    if not 2 <= n <= MAX_CENSUS_N:
        raise ValueError(f"census supports 2 <= n <= {MAX_CENSUS_N}, got {n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return sum(inversion_histogram(n, center)[: r + 1])


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


def _translated_balls(
    perms: list[Permutation], ball: list[Permutation]
) -> list[tuple[int, ...]]:
    """The ball around each of ``perms``, as sorted distinct indices into it.

    ``ball`` is the ball around the identity; the ball around ``c`` is its
    translate ``compose(x, c)``, since relabelling values by ``c`` keeps
    every distance.
    """
    index = {pi: i for i, pi in enumerate(perms)}
    return [
        tuple(sorted({index[compose(x, center)] for x in ball})) for center in perms
    ]


def _exact_cover(balls: list[tuple[int, ...]], fix_first: bool) -> tuple[str, list[int], int]:
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

    if fix_first:
        select(0)
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


def search_perfect_code(
    n: int, t: int, *, fix_first_codeword: bool = True
) -> CodeSearchResult:
    """Exhaustively decide whether a perfect t-code exists in S_n.

    Returns FOUND with a witness code, or EXHAUSTED_NONE when the whole
    (symmetry-reduced) space was searched without success.
    """
    if not 2 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    perms = list(enumerate_sn(n))
    ball = [pi for pi in perms if kendall_distance(perms[0], pi) <= t]
    order = factorial(n)
    if order % len(ball):
        return CodeSearchResult(
            n=n,
            t=t,
            outcome=EXHAUSTED_NONE,
            code=None,
            nodes_explored=0,
            note=(
                f"ball size {len(ball)} does not divide |S_{n}| = {order}; "
                "balls cannot partition the group"
            ),
        )
    if len(ball) == order:
        # one ball is all of S_n, so the identity alone is a perfect code:
        # the search's first node (its second, when the identity is free)
        # would find it after building n! identical translates
        outcome, centers, nodes = FOUND, [0], 1 if fix_first_codeword else 2
    else:
        outcome, centers, nodes = _exact_cover(
            _translated_balls(perms, ball), fix_first_codeword
        )
    solution: Optional[tuple[Permutation, ...]] = None
    if outcome == FOUND:
        solution = tuple(perms[center] for center in centers)
        # codewords 2t+1 apart have disjoint balls, and n!/|B| of them cover S_n
        if len(solution) * len(ball) != order or not verify_min_distance(
            solution, 2 * t + 1
        ):
            raise AssertionError("search produced a code that is not perfect")
    return CodeSearchResult(
        n=n, t=t, outcome=outcome, code=solution, nodes_explored=nodes
    )
