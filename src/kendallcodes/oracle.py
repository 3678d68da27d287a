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

One brute-force kernel, ``_inversion_counts(n)``, measures the distance
from the identity to every permutation of [n] by comparing every pair of
positions; ``inversion_histogram`` counts its bytes and ``ball_census``
sums a prefix of them.  It holds S_m in lexicographic order as m byte
columns, column c holding entry c of every permutation, and reads each
column as an int with one byte lane per permutation, so one subtraction
compares a pair of positions in every permutation at once.  Entries and
counts stay below 128 (n <= 10, D <= 45), so no borrow or carry crosses
a lane.  S_n comes in chunks of every permutation with a fixed prefix, at
most 7! = 5 040 permutations at a time, never all at once.

The perfect-code search is Knuth's Algorithm X (TAOCP 7.2.2.1) over
radius-t balls, whose partitions of S_n are the perfect codes.  It builds
S_n's byte columns once and names each permutation by its lexicographic
index.  The identity's distances are counted from the columns as above,
and the ball around ``c`` is the identity's ball relabelled through ``c``
(relabelling keeps distances).  For each x in the identity's ball, every
center's c∘x is ranked at once, in 16-bit lanes: O(|B|·n²) lane steps
instead of n!² distance calls.  Permutation tuples are built only for a
code the search finds, which it re-checks by direct distances.  A ball
that is all of S_n (t at or past the diameter) is not built: the identity
alone is the code.  The search keeps a count of admissible centers per
point, one byte each once the identity is selected, and undoes its steps
in reverse.  It is iterative, expands the lowest point with the fewest
admissible centers (fail-first, where none and one count alike, found by
memchr), tries them in lexicographic order and counts every visited
state, so node counts are reproducible.  No served (n, t) visits more
than 720 states; the one bound, n <= 6, limits building the balls.  The
identity is always the first codeword, since translating a code keeps
distances.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_right, insort
from math import comb, factorial
from typing import Iterator, NamedTuple, Optional, Sequence

MAX_HISTOGRAM_N = 10
MAX_SEARCH_N = 6
_CHUNK_N = 7  # a histogram chunk holds at most 7! permutations
_BYTES = bytes(range(256))  # the identity translation table

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


def _byte_columns(m: int) -> list[bytes]:
    """S_m in lexicographic order as m byte columns.

    Column c holds entry c of every permutation of range(m), in the order of
    ``itertools.permutations(range(m))``: each first value, followed by
    S_(m-1)'s columns relabelled to the values it leaves.
    """
    columns: list[bytes] = []  # S_0: one empty permutation
    for k in range(1, m + 1):
        block = len(columns[0]) if columns else 1  # (k - 1)!
        skips = [_BYTES[:v] + _BYTES[v + 1 :] + b"\xff" for v in range(k)]
        columns = [b"".join(bytes((v,)) * block for v in range(k))] + [
            b"".join(column.translate(skip) for skip in skips) for column in columns
        ]
    return columns


def _inversions(entries: list[int], lanes: int) -> bytes:
    """The inversion count in each byte lane of ``entries``, one int a position.

    For positions i < j, ``(((e_i | H) - e_j) & H) >> 7``, with H = 0x80 in
    every lane, is 1 in each lane where entry i exceeds entry j, and 0
    elsewhere; the counts are these summed over all pairs.  This is exact
    only while entries and counts are below 128, which n <= 10 (D <= 45)
    keeps: each lane's difference then lies in 1..255, so no borrow or
    carry crosses a lane.
    """
    high = int.from_bytes(b"\x80" * lanes, "little")  # H
    inversions = 0
    n = len(entries)
    for i in range(n - 1):
        left = entries[i] | high
        for j in range(i + 1, n):
            inversions += ((left - entries[j]) & high) >> 7
    return inversions.to_bytes(lanes, "little")


def _inversion_counts(n: int) -> Iterator[bytes]:
    """The inversion count of every permutation of range(n), one byte each.

    The bytes follow ``itertools.permutations(range(n))``, which is
    lexicographic order, a chunk at a time.  A chunk is every permutation
    with one fixed prefix: S_m for m = min(n, _CHUNK_N), relabelled to the
    values the prefix leaves.  So n <= 7 is one chunk, and no chunk holds
    more than 7! permutations.  S_m's ``_byte_columns`` are built once per
    call; each chunk reads them as ints with one byte lane per permutation,
    adds one constant column per prefix entry, and counts with
    ``_inversions``, which is exact while counts stay below 128: n <= 10.
    """
    size = min(n, _CHUNK_N)
    columns = _byte_columns(size)
    lanes = len(columns[0])
    ones = int.from_bytes(b"\1" * lanes, "little")
    for prefix in itertools.permutations(range(n), n - size):
        rest = bytes(sorted(set(range(n)).difference(prefix))).ljust(256, b"\0")
        entries = [v * ones for v in prefix] + [
            int.from_bytes(column.translate(rest), "little") for column in columns
        ]
        yield _inversions(entries, lanes)


def inversion_histogram(n: int) -> tuple[int, ...]:
    """How many permutations of [n] lie at each distance 0..D from any center.

    Each count is the number of permutations with that many inversions,
    counted in the bytes of ``_inversion_counts``: every pair of positions
    of every permutation is compared, in byte lanes below 128, at most 7!
    permutations at a time.  One count serves every center: relabelling
    through a center maps S_n onto itself and keeps every distance, so
    each center sees the identity's distance distribution.
    """
    if not 2 <= n <= MAX_HISTOGRAM_N:
        raise ValueError(
            "the distance histogram enumerates all of S_n and supports"
            f" 2 <= n <= {MAX_HISTOGRAM_N}, got {n}"
        )
    counts = [0] * (comb(n, 2) + 1)
    for chunk in _inversion_counts(n):
        for d in range(len(counts)):
            counts[d] += chunk.count(d)
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


def _translated_balls(columns: list[bytes], ball: list[int]) -> list[tuple[int, ...]]:
    """The ball around each permutation of S_n, as distinct indices in any order.

    ``columns`` are S_n's ``_byte_columns`` and ``ball`` the lexicographic
    indices of the identity's ball.  The ball around ``c`` is every c∘x for
    x in the identity's ball, since relabelling values through ``c`` keeps
    every distance, and entry k of c∘x is entry x_k of c.  So the columns
    reordered by x hold c∘x for every c at once.  Row c lists the
    lexicographic indices of these, in the ball's order, not sorted;
    relabelling is injective, so they are distinct.

    Each column is read as an int with one 16-bit lane per permutation.
    ``(((col_a | H) - col_b) & H) >> 15``, with H = 0x8000 in every lane,
    is 1 in each lane where entry a exceeds entry b.  The index of p is
    its rank, the sum over i < j of (n - 1 - i)! times [p_i > p_j], which
    is exact while ranks fit a lane: n! <= 2^16, so n <= 8.  The lanes are
    read back through ``array("H")`` in ``sys.byteorder``.
    """
    n, count = len(columns), len(columns[0])
    low = int(sys.byteorder == "big")  # where a native 16-bit lane keeps its low byte

    def widen(column: bytes) -> int:
        wide = bytearray(2 * count)
        wide[low::2] = column
        return int.from_bytes(wide, sys.byteorder)

    high = int.from_bytes(array("H", [0x8000]) * count, sys.byteorder)  # H
    entries = [widen(column) for column in columns]
    # greater[a][b]: 1 in each lane where entry a exceeds entry b
    greater = [[(((a | high) - b) & high) >> 15 for b in entries] for a in entries]
    weights = [factorial(n - 1 - i) for i in range(n)]
    ranks = []
    for x in ball:
        e = [column[x] for column in columns]
        rank = 0
        for i in range(n - 1):
            row = greater[e[i]]
            rank += weights[i] * sum(map(row.__getitem__, e[i + 1 :]))
        ranks.append(array("H", rank.to_bytes(2 * count, sys.byteorder)))
    return list(zip(*ranks))


def _exact_cover(balls: list[tuple[int, ...]]) -> tuple[str, list[int], int]:
    """Partition the points by ``balls``: (outcome, chosen centers, nodes visited).

    ``balls`` are symmetric and reflexive tuples of distinct points, in any
    order; each open choice is sorted, so its centers are tried in
    ascending order.  ``counts`` holds each uncovered point's number of
    alive centers, which by symmetry start as its ball, and a selection is
    undone by replaying it in reverse: the state is O(changes), with no
    copy per node.  Once the identity is selected the counts are bytes, 255
    when covered, and an uncovered count of 255 or more raises ValueError.
    The search's balls never reach it: they have fewer points, except at
    (6, 7), where only the reversal lives.
    """
    covered = 255  # above every count once the identity is selected
    counts = [len(ball) for ball in balls]
    alive = [True] * len(balls)
    selected: list[tuple[int, list[int]]] = []  # (center, centers it hid)

    def select(center: int) -> None:
        # hide every center that meets the ball; then its points are covered
        hidden = []
        for point in balls[center]:
            for rival in balls[point]:
                if alive[rival]:
                    alive[rival] = False
                    hidden.append(rival)
                    for other in balls[rival]:
                        counts[other] -= 1
        for point in balls[center]:
            counts[point] = covered
        selected.append((center, hidden))

    def deselect() -> None:
        center, hidden = selected.pop()
        for point in balls[center]:  # every center of these points was hidden
            counts[point] = 0
        for rival in reversed(hidden):
            alive[rival] = True
            for other in balls[rival]:
                counts[other] += 1

    select(0)  # the identity; any perfect code translates to one holding it
    counts = bytearray(counts)  # one byte a point: refuses a count past 255
    if counts.count(covered) != len(balls[0]):
        raise ValueError("an uncovered point has 255 admissible centers")
    # the untried centers of each open choice, deepest last; a loop, not
    # recursion, since (6, 0) opens 720 choices
    choices: list[Iterator[int]] = []
    for nodes in itertools.count(1):
        # fail-first: the lowest point with the fewest admissible centers,
        # where none and one count alike; memchr finds each count
        folded = counts.replace(b"\0", b"\1")
        for fewest in range(1, covered):
            point = folded.find(fewest)
            if point >= 0:
                break
        else:
            return FOUND, [center for center, _ in selected], nodes
        choices.append(iter(sorted([c for c in balls[point] if alive[c]])))
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
    columns = _byte_columns(n)
    order = len(columns[0])
    # the identity's ball, as lexicographic indices
    distances = _inversions([int.from_bytes(c, "little") for c in columns], order)
    ball = [k for k, d in enumerate(distances) if d <= t]
    note = ""
    if order % len(ball):
        outcome, centers, nodes = EXHAUSTED_NONE, [], 0
        note = (
            f"ball size {len(ball)} does not divide |S_{n}| = {order}; "
            "balls cannot partition the group"
        )
    elif len(ball) == order:
        # one ball is all of S_n, so the identity alone is a perfect code;
        # the search would find it after building n! identical translates
        outcome, centers, nodes = FOUND, [0], 1
    else:
        outcome, centers, nodes = _exact_cover(_translated_balls(columns, ball))
    solution: Optional[tuple[Permutation, ...]] = None
    if outcome == FOUND:
        perms = list(itertools.permutations(range(1, n + 1)))
        solution = tuple(map(perms.__getitem__, centers))
        # codewords 2t+1 apart have disjoint balls, and n!/|B| of them cover S_n
        if len(solution) * len(ball) != order or not verify_min_distance(
            solution, 2 * t + 1
        ):
            raise AssertionError("search produced a code that is not perfect")
    return CodeSearchResult(
        n=n, t=t, outcome=outcome, code=solution, nodes_explored=nodes, note=note
    )
