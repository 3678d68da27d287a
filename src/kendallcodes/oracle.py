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

The perfect-code search is an exact-cover backtracker over radius-t balls:
a perfect code is exactly a set of centers whose balls partition S_n.
The balls are built by translation.  Relabelling values preserves the
Kendall distance, so the ball around ``c`` is ``compose(x, c)`` for x in
the ball around the identity, which is measured once; that is O(n!·|B|)
work instead of n!² distance calls.  Because the masks are derived rather
than measured, a code the search finds is re-checked by direct distances
before it is returned.  The search always expands the uncovered
permutation with the fewest admissible centers first (fail-first), visits
candidate centers in lexicographic order, and counts every visited state,
so outcomes and node counts are reproducible run to run.  By default the
identity is fixed as the first codeword: translating all codewords by a
fixed permutation preserves pairwise distances, so any perfect code can
be shifted to one containing the identity and the restriction loses no
generality.  The flag exists so tests can confirm that empirically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

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

DEFAULT_SEARCH_BUDGET = 1_000_000

FOUND = "FOUND"
EXHAUSTED_NONE = "EXHAUSTED_NONE"
ABORTED_BUDGET = "ABORTED_BUDGET"


@dataclass(frozen=True)
class InversionHistogram:
    """counts[i] = number of permutations of [n] at distance i from a center.

    Around the identity that distance is the number of inversions.
    """

    n: int
    counts: tuple[int, ...]


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


def inversion_histogram(
    n: int, center: Optional[Sequence[int]] = None
) -> InversionHistogram:
    """Count the distance of every permutation of [n] from ``center``.

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
    return InversionHistogram(n=n, counts=tuple(counts))


def ball_census(n: int, r: int, center: Sequence[int]) -> int:
    """Count permutations within distance r of ``center`` by full enumeration."""
    if not 2 <= n <= MAX_CENSUS_N:
        raise ValueError(f"census supports 2 <= n <= {MAX_CENSUS_N}, got {n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return sum(inversion_histogram(n, center).counts[: r + 1])


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


def _translated_masks(
    perms: list[Permutation], ball: list[Permutation]
) -> list[int]:
    """Bit masks over ``perms`` of the ball around each of them.

    ``ball`` is the ball around the identity; the ball around ``c`` is its
    translate ``compose(x, c)``, since relabelling values by ``c`` keeps
    every distance.
    """
    index = {pi: i for i, pi in enumerate(perms)}
    masks = []
    for center in perms:
        mask = 0
        for x in ball:
            mask |= 1 << index[compose(x, center)]
        masks.append(mask)
    return masks


def search_perfect_code(
    n: int,
    t: int,
    *,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
    fix_first_codeword: bool = True,
) -> CodeSearchResult:
    """Exhaustively decide whether a perfect t-code exists in S_n.

    Returns FOUND with a witness code, EXHAUSTED_NONE when the whole
    (symmetry-reduced) space was searched without success, or
    ABORTED_BUDGET when ``node_budget`` states were visited first.
    """
    if not 2 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N}, got {n}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    if node_budget < 1:
        raise ValueError(f"node budget must be positive, got {node_budget}")
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
    masks = _translated_masks(perms, ball)
    full = (1 << len(perms)) - 1
    covered = 0
    chosen: list[int] = []
    if fix_first_codeword:
        chosen.append(0)
        covered = masks[0]

    def admissible_centers(point: int, state: int) -> list[int]:
        # centers whose ball contains the point and misses everything covered
        centers = []
        remaining = masks[point]
        while remaining:
            low = remaining & -remaining
            center = low.bit_length() - 1
            remaining ^= low
            if masks[center] & state == 0:
                centers.append(center)
        return centers

    def tightest_candidates(state: int) -> list[int]:
        # fail-first: the uncovered point with the fewest admissible centers
        best: Optional[list[int]] = None
        uncovered = full & ~state
        while uncovered:
            low = uncovered & -uncovered
            point = low.bit_length() - 1
            uncovered ^= low
            centers = admissible_centers(point, state)
            if best is None or len(centers) < len(best):
                best = centers
                if len(best) <= 1:
                    break
        assert best is not None
        return best

    nodes = 0
    outcome = EXHAUSTED_NONE
    found_centers: Optional[list[int]] = None
    # Each frame: [candidates, next_index, covered_before_frame].  A frame
    # pops its previously tried candidate from ``chosen`` before advancing.
    frames: list[list] = []
    while True:
        nodes += 1
        if nodes > node_budget:
            outcome = ABORTED_BUDGET
            break
        if covered == full:
            outcome = FOUND
            found_centers = list(chosen)
            break
        frames.append([tightest_candidates(covered), 0, covered])
        advanced = False
        while frames and not advanced:
            top = frames[-1]
            candidates, index, state = top
            if index > 0:
                chosen.pop()
            if index < len(candidates):
                top[1] = index + 1
                chosen.append(candidates[index])
                covered = state | masks[candidates[index]]
                advanced = True
            else:
                frames.pop()
        if not advanced:
            break
    solution: Optional[tuple[Permutation, ...]] = None
    if outcome == FOUND:
        assert found_centers is not None
        solution = tuple(perms[c] for c in found_centers)
        # codewords 2t+1 apart have disjoint balls, and n!/|B| of them cover S_n
        if len(solution) * len(ball) != order or not verify_min_distance(
            solution, 2 * t + 1
        ):
            raise AssertionError("search produced a code that is not perfect")
    return CodeSearchResult(
        n=n, t=t, outcome=outcome, code=solution, nodes_explored=nodes
    )
