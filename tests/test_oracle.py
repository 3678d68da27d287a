"""Brute-force oracles: histograms, censuses, and the perfect-code search.

These are the ground truth the fast modules are checked against, so their
own tests lean on literal frozen values and internal consistency.
"""

import itertools
import math
import random
import time
import tracemalloc
from operator import itemgetter

import pytest

from kendallcodes import oracle
from kendallcodes.certifier import INCONCLUSIVE, certify
from kendallcodes.mahonian import max_distance
from kendallcodes.oracle import (
    EXHAUSTED_NONE,
    FOUND,
    ball_census,
    inversion_histogram,
    kendall_distance,
    search_perfect_code,
    verify_min_distance,
)
from kendallcodes.table import ball_size


def symmetric_group(n):
    """S_n in lexicographic order."""
    return list(itertools.permutations(range(1, n + 1)))


def test_histogram_golden_values():
    assert inversion_histogram(2) == (1, 1)
    assert inversion_histogram(3) == (1, 2, 2, 1)
    assert inversion_histogram(4) == (1, 3, 5, 6, 5, 3, 1)


def test_histogram_matches_recurrence_rows(table60):
    for n in range(2, 11):
        assert inversion_histogram(n) == table60.row(n), n


def pair_scan_counts(n):
    """The inversion count of each permutation of range(n), in lexicographic order."""
    return bytes(
        sum(pi[i] > pi[j] for i in range(n) for j in range(i + 1, n))
        for pi in itertools.permutations(range(n))
    )


def pair_scan_histogram(n):
    """Inversion counts of S_n by scanning every pair of every permutation."""
    counts = pair_scan_counts(n)
    return tuple(counts.count(d) for d in range(math.comb(n, 2) + 1))


def test_histogram_matches_the_pair_scan():
    for n in range(2, 9):
        assert inversion_histogram(n) == pair_scan_histogram(n), n


def test_inversion_counts_follow_lexicographic_order(monkeypatch):
    for n in range(1, 8):
        assert b"".join(oracle._inversion_counts(n)) == pair_scan_counts(n), n
    # chunks of 3! permutations: several chunks, whose prefixes must come in order
    monkeypatch.setattr(oracle, "_CHUNK_N", 3)
    for n in (5, 6):
        chunks = list(oracle._inversion_counts(n))
        assert len(chunks) == math.factorial(n) // 6, n
        assert b"".join(chunks) == pair_scan_counts(n), n


def test_histogram_holds_at_most_7_factorial_permutations_at_a_time():
    # 7! one-byte lanes need about 0.17 MB; a single 9! chunk would hold
    # over 3 MB of columns
    tracemalloc.start()
    try:
        histogram = inversion_histogram(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(histogram) == math.factorial(9)
    assert peak < 1_000_000, peak


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        inversion_histogram(1)
    with pytest.raises(ValueError):
        inversion_histogram(11)


def test_ball_census_golden_values():
    assert ball_census(4, 1) == 4
    assert ball_census(5, 2) == 14
    assert ball_census(4, 6) == 24
    assert ball_census(4, 99) == 24  # past the diameter, all of S_4
    assert ball_census(2, 0) == 1


def test_ball_census_matches_the_table(table60):
    # every radius; each census enumerates S_n, about 0.03 s at n = 9 and
    # 0.4 s at n = 10, and `verify --n 9` in test_cli checks n = 9 at every
    # radius
    for n in range(2, 8):
        for r in range(max_distance(n) + 1):
            assert ball_census(n, r) == ball_size(table60, n, r).value, (n, r)


def test_census_matches_direct_distances():
    # one histogram serves every center: count d(center, pi) over S_n for
    # the identity, the reversal and random centers
    rng = random.Random(11)
    for n in range(2, 7):
        identity = tuple(range(1, n + 1))
        centers = [identity, identity[::-1]]
        for _ in range(5):
            values = list(range(1, n + 1))
            rng.shuffle(values)
            centers.append(tuple(values))
        for center in centers:
            direct = [0] * (max_distance(n) + 1)
            for pi in symmetric_group(n):
                direct[kendall_distance(center, pi)] += 1
            assert inversion_histogram(n) == tuple(direct), center
            for r in (0, 1, max_distance(n) // 2):
                assert ball_census(n, r) == sum(direct[: r + 1]), (center, r)


def test_ball_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ball_census(11, 1)
    with pytest.raises(ValueError):
        ball_census(1, 0)
    with pytest.raises(ValueError):
        ball_census(4, -1)


def test_verify_min_distance():
    assert verify_min_distance(((1, 2, 3), (3, 2, 1)), 3)
    assert not verify_min_distance(((1, 2, 3), (3, 2, 1)), 4)
    assert not verify_min_distance(((1, 2, 3), (2, 1, 3)), 2)
    assert verify_min_distance(((2, 1, 3),), 99)  # no pairs to violate
    with pytest.raises(ValueError):
        verify_min_distance(((1, 2), (1, 2, 3)), 1)
    with pytest.raises(ValueError):
        verify_min_distance((), 1)
    with pytest.raises(ValueError):
        verify_min_distance(((1, 2, 3),), 0)


def test_verify_min_distance_one_is_distinctness():
    assert verify_min_distance(symmetric_group(4), 1)
    assert not verify_min_distance(((1, 2, 3), (3, 2, 1), (1, 2, 3)), 1)
    with pytest.raises(ValueError):
        verify_min_distance(((1, 2, 3), (1, 1, 3)), 1)  # still validated
    with pytest.raises(ValueError):
        verify_min_distance(((1, 2), (1, 2), (1, 2, 3)), 1)


def test_search_finds_the_classic_small_code():
    result = search_perfect_code(3, 1)
    assert result.outcome == FOUND
    assert result.code == ((1, 2, 3), (3, 2, 1))
    assert result.nodes_explored == 2
    assert verify_min_distance(result.code, 3)


def test_search_whole_group_ball():
    result = search_perfect_code(2, 1)
    assert result.outcome == FOUND
    assert result.code == ((1, 2),)
    assert result.nodes_explored == 1


def test_search_whole_group_ball_builds_no_translates():
    # at t >= D one ball is S_n; building its n! translates took seconds
    start = time.perf_counter()
    result = search_perfect_code(6, 15)
    elapsed = time.perf_counter() - start
    assert result.outcome == FOUND
    assert result.code == ((1, 2, 3, 4, 5, 6),)
    assert result.nodes_explored == 1
    assert result.note == ""
    assert elapsed < 0.5, elapsed


def test_search_whole_group_ball_never_translates(monkeypatch):
    def refuse(*args):
        raise AssertionError("translated the whole-group ball")

    monkeypatch.setattr(oracle, "_translated_balls", refuse)
    result = search_perfect_code(6, 15)
    assert (result.outcome, result.nodes_explored) == (FOUND, 1)


def test_search_whole_group_code_is_rechecked(monkeypatch):
    monkeypatch.setattr(oracle, "verify_min_distance", lambda code, d: False)
    with pytest.raises(AssertionError, match="not perfect"):
        search_perfect_code(3, 3)


def test_search_radius_zero_takes_everything():
    for n in (3, 4):
        result = search_perfect_code(n, 0)
        assert result.outcome == FOUND
        assert result.code == tuple(symmetric_group(n))
        assert verify_min_distance(result.code, 1)


def test_search_radius_zero_rechecks_by_distinctness():
    # distinctness settles distance 1; pairwise distances take seconds at n = 6
    start = time.perf_counter()
    result = search_perfect_code(6, 0)
    elapsed = time.perf_counter() - start
    assert result.outcome == FOUND
    assert len(result.code) == 720 and result.nodes_explored == 720
    assert elapsed < 0.5, elapsed


def test_search_radius_zero_measures_no_distance(monkeypatch):
    calls = 0

    def counted(sigma, pi):
        nonlocal calls
        calls += 1
        return kendall_distance(sigma, pi)

    monkeypatch.setattr(oracle, "kendall_distance", counted)
    result = search_perfect_code(6, 0)
    assert (result.outcome, len(result.code)) == (FOUND, 720)
    assert calls == 0


def test_search_exhausts_without_a_code():
    for n, expected_nodes in ((4, 4), (5, 14), (6, 160)):
        result = search_perfect_code(n, 1)
        assert result.outcome == EXHAUSTED_NONE
        assert result.code is None
        assert result.nodes_explored == expected_nodes
        # divisibility alone cannot rule these out; the search is stronger
        assert certify(n, 1).verdict == INCONCLUSIVE


def byte_columns(n):
    """S_n in lexicographic order as columns of zero-based entries."""
    return [bytes(v - 1 for v in column) for column in zip(*symmetric_group(n))]


def test_translated_balls_equal_pairwise_balls():
    # rows come in the ball's order; sorted, they are the pairwise balls
    for n in range(2, 6):
        perms = symmetric_group(n)
        columns = oracle._byte_columns(n)
        assert columns == byte_columns(n), n
        distances = [[kendall_distance(pi, other) for other in perms] for pi in perms]
        for t in range(max_distance(n) + 1):
            pairwise = [
                tuple(i for i, d in enumerate(row) if d <= t) for row in distances
            ]
            ball = [i for i, d in enumerate(distances[0]) if d <= t]
            balls = oracle._translated_balls(columns, ball)
            assert [tuple(sorted(row)) for row in balls] == pairwise, (n, t)


def test_found_codes_are_rechecked_by_distances(monkeypatch):
    # forged balls that cut S_4 into consecutive blocks of four make the cover
    # accept the first permutation of each block as a "code" of the right
    # size; the distance re-check refuses it
    def blocks(columns, ball):
        order = math.factorial(len(columns))
        return [tuple(range(i - i % 4, i - i % 4 + 4)) for i in range(order)]

    monkeypatch.setattr(oracle, "_translated_balls", blocks)
    with pytest.raises(AssertionError, match="not perfect"):
        search_perfect_code(4, 1)


def test_search_validates_only_the_code_it_returns(monkeypatch):
    # the search enumerates its own permutations, so it checks none of
    # them; a code it finds is still validated by its distance re-check
    calls = []
    real = oracle.check_permutation

    def counted(pi):
        calls.append(pi)
        return real(pi)

    monkeypatch.setattr(oracle, "check_permutation", counted)
    assert search_perfect_code(6, 1).outcome == EXHAUSTED_NONE
    assert calls == []
    result = search_perfect_code(6, 7)
    assert result.outcome == FOUND
    assert set(result.code) <= set(calls)


def test_search_is_deterministic():
    first = search_perfect_code(5, 1)
    second = search_perfect_code(5, 1)
    assert first == second


def test_search_divisibility_precheck():
    result = search_perfect_code(5, 2)
    assert result.outcome == EXHAUSTED_NONE
    assert result.nodes_explored == 0
    assert "does not divide" in result.note


def test_search_found_codes_partition_the_group():
    for n, t in ((2, 1), (3, 1), (3, 0), (4, 0)):
        result = search_perfect_code(n, t)
        assert result.outcome == FOUND
        ball = ball_census(n, t)
        assert len(result.code) * ball == math.factorial(n)
        assert verify_min_distance(result.code, 2 * t + 1)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_perfect_code(1, 1)
    with pytest.raises(ValueError):
        search_perfect_code(7, 1)
    with pytest.raises(ValueError):
        search_perfect_code(4, -1)


# (n, t): outcome, nodes, code size.  Every other radius up to the
# diameter fails the divisibility check, so this is every (n, t) the search
# serves.  None visits more than 720 nodes, which is why the search has no
# node budget.
SEARCH_GOLDEN = {
    (2, 0): (FOUND, 2, 2),
    (2, 1): (FOUND, 1, 1),
    (3, 0): (FOUND, 6, 6),
    (3, 1): (FOUND, 2, 2),
    (3, 3): (FOUND, 1, 1),
    (4, 0): (FOUND, 24, 24),
    (4, 1): (EXHAUSTED_NONE, 4, None),
    (4, 6): (FOUND, 1, 1),
    (5, 0): (FOUND, 120, 120),
    (5, 1): (EXHAUSTED_NONE, 14, None),
    (5, 10): (FOUND, 1, 1),
    (6, 0): (FOUND, 720, 720),
    (6, 1): (EXHAUSTED_NONE, 160, None),
    (6, 2): (EXHAUSTED_NONE, 22, None),
    (6, 7): (FOUND, 2, 2),
    (6, 15): (FOUND, 1, 1),
}


def test_search_order_is_pinned():
    # fail-first with its tie-break fixes every node count and code size
    assert max(nodes for _, nodes, _ in SEARCH_GOLDEN.values()) == 720
    for n in range(2, 7):
        for t in range(max_distance(n) + 1):
            outcome, nodes, size = SEARCH_GOLDEN.get((n, t), (EXHAUSTED_NONE, 0, None))
            result = search_perfect_code(n, t)
            found = None if result.code is None else len(result.code)
            assert result.outcome == outcome, (n, t)
            assert result.nodes_explored == nodes, (n, t)
            assert found == size, (n, t)
            assert ("does not divide" in result.note) == (nodes == 0), (n, t)
            if found is not None:
                assert result.code[0] == tuple(range(1, n + 1)), (n, t)
            if (n, t) == (6, 7):
                # the antipodal code: d(pi, e) + d(pi, reversed e) = 15 for
                # every pi, so the radius-7 balls of e and its reversal split S_6
                assert result.code == ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1))


def test_search_settles_radius_1_in_s7_past_the_cap(monkeypatch):
    # the cap bounds building balls at large radii, not the search itself
    monkeypatch.setattr(oracle, "MAX_SEARCH_N", 7)
    result = search_perfect_code(7, 1)
    assert result.outcome == EXHAUSTED_NONE
    assert result.nodes_explored == 1807
    assert result.code is None


def reference_exact_cover(balls):
    """The set-based Algorithm X the counting kernel replaced, kept as its oracle.

    Each uncovered point keeps the set of centers that could still cover it,
    and the fail-first pick scans every one of them at each node.
    """
    admissible = {point: set(centers) for point, centers in enumerate(balls)}
    # each selected center with the columns its selection removed
    selected = []

    def select(center):
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

    def deselect():
        for point, rivals in reversed(selected.pop()[1]):
            for rival in rivals:
                for other in balls[rival]:
                    if other in admissible:
                        admissible[other].add(rival)
            admissible[point] = rivals

    select(0)
    choices = []
    for nodes in itertools.count(1):
        if not admissible:
            return FOUND, [center for center, _ in selected], nodes
        fewest = max(min(map(len, admissible.values())), 1)
        point = min(p for p, centers in admissible.items() if len(centers) <= fewest)
        choices.append(iter(sorted(admissible[point])))
        while choices and (center := next(choices[-1], None)) is None:
            choices.pop()
            if choices:
                deselect()
        if not choices:
            return EXHAUSTED_NONE, [], nodes
        select(center)


def searched_arguments(monkeypatch, name, n, t):
    """What ``search_perfect_code(n, t)`` passes ``oracle.<name>``, or None if no call."""
    seen = []

    def spy(*arguments):
        seen.append(arguments)
        return real(*arguments)

    real = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, spy)
    search_perfect_code(n, t)
    monkeypatch.setattr(oracle, name, real)
    return seen[0] if seen else None


def searched_balls(monkeypatch, n, t):
    """The balls ``search_perfect_code(n, t)`` hands the cover, or None if none."""
    arguments = searched_arguments(monkeypatch, "_exact_cover", n, t)
    return None if arguments is None else arguments[0]


def reference_translated_balls(perms, ball):
    """The per-center translate the column build replaced, kept as its oracle.

    Each center's ball is built alone: every relabel of the identity's ball
    through that center, looked up and sorted.
    """
    index = {pi: i for i, pi in enumerate(perms)}
    relabels = [itemgetter(*(v - 1 for v in x)) for x in ball]  # r(c): x through c
    return [tuple(sorted([index[r(c)] for r in relabels])) for c in perms]


def test_column_translates_match_the_per_center_reference(monkeypatch):
    # every (n, t) with n <= 6 whose balls are built, then (7, 1) past the
    # cap, where 7! = 5 040 ranks fill 16-bit lanes; the identity's ball,
    # read from the pair-comparing kernel, is checked by distances
    def check(n, t, columns, ball):
        perms = symmetric_group(n)
        assert columns == byte_columns(n), (n, t)
        assert ball == [
            i for i, pi in enumerate(perms) if kendall_distance(perms[0], pi) <= t
        ], (n, t)
        expected = reference_translated_balls(perms, [perms[i] for i in ball])
        balls = oracle._translated_balls(columns, ball)
        assert [tuple(sorted(row)) for row in balls] == expected, (n, t)

    runs = 0
    for n in range(2, 7):
        for t in range(max_distance(n) + 1):
            arguments = searched_arguments(monkeypatch, "_translated_balls", n, t)
            if arguments is not None:
                check(n, t, *arguments)
                runs += 1
    assert runs == 11
    monkeypatch.setattr(oracle, "MAX_SEARCH_N", 7)
    check(7, 1, *searched_arguments(monkeypatch, "_translated_balls", 7, 1))


def clique_family(size):
    """Point 0 alone, then points 1..size all pairwise adjacent.

    Once the identity, point 0, is selected, each other point keeps all
    ``size`` centers of the clique as its count.
    """
    clique = tuple(range(1, size + 1))
    return [(0,), *[clique] * size]


@pytest.mark.parametrize("size", [255, 599])
def test_cover_refuses_counts_past_a_byte(size):
    # one byte a point holds 0..254 and the covered mark 255; a family
    # whose counts do not fit raises and never answers
    with pytest.raises(ValueError):
        oracle._exact_cover(clique_family(size))


def test_cover_serves_counts_up_to_254():
    balls = clique_family(254)
    assert oracle._exact_cover(balls) == reference_exact_cover(balls) == (FOUND, [0, 1], 2)


def random_ball_family(rng):
    """Symmetric, reflexive balls on a few points, as sorted tuples.

    Half of them have a planted partition: blocks whose first point, 0 in
    the first block, is adjacent to its block alone, so those points'
    balls partition the points and the cover can find them.
    """
    size = rng.randint(1, 30)
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    planted = rng.random() < 0.5
    centers = set()
    edges = set()
    if planted:
        points = list(range(1, size))
        rng.shuffle(points)
        points.insert(0, 0)
        start = 0
        while start < size:
            block = points[start : start + rng.randint(1, 5)]
            centers.add(block[0])
            edges.update((block[0], point) for point in block[1:])
            start += len(block)
    for a, b in itertools.combinations(range(size), 2):
        if a not in centers and b not in centers and rng.random() < density:
            edges.add((a, b))
    neighbours = [{point} for point in range(size)]
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return [tuple(sorted(ball)) for ball in neighbours]


def test_counting_cover_matches_the_set_reference_on_the_searched_balls(monkeypatch):
    # every (n, t) with n <= 6 whose cover runs, then (7, 1) past the cap
    runs = 0
    for n in range(2, 7):
        for t in range(max_distance(n) + 1):
            balls = searched_balls(monkeypatch, n, t)
            if balls is not None:
                expected = reference_exact_cover(balls)
                assert oracle._exact_cover(balls) == expected, (n, t)
                runs += 1
    assert runs == 11
    monkeypatch.setattr(oracle, "MAX_SEARCH_N", 7)
    balls = searched_balls(monkeypatch, 7, 1)
    assert oracle._exact_cover(balls) == reference_exact_cover(balls)
    assert oracle._exact_cover(balls) == (EXHAUSTED_NONE, [], 1807)


def test_counting_cover_matches_the_set_reference_on_random_families():
    rng = random.Random(28)
    outcomes = set()
    deep = 0
    for _ in range(200):
        balls = random_ball_family(rng)
        expected = reference_exact_cover(balls)
        assert oracle._exact_cover(balls) == expected, balls
        outcomes.add(expected[0])
        deep += expected[2] >= 5
    # both outcomes, and searches that backtrack, not only one-node answers
    assert outcomes == {FOUND, EXHAUSTED_NONE}
    assert deep >= 20, deep


def test_cover_takes_balls_in_any_order():
    # the translates list each ball in the identity's ball order, not sorted;
    # the cover sorts each open choice, so shuffled balls change no outcome,
    # code or node count
    rng = random.Random(45)
    for _ in range(200):
        balls = random_ball_family(rng)
        shuffled = [tuple(rng.sample(ball, len(ball))) for ball in balls]
        assert oracle._exact_cover(shuffled) == reference_exact_cover(balls), balls


def test_cover_backtracks_in_place(monkeypatch):
    # (6, 0) opens 720 nested choices; undoing each step instead of copying
    # the state per node keeps the cover's own allocations small
    balls = searched_balls(monkeypatch, 6, 0)
    tracemalloc.start()
    try:
        outcome, centers, nodes = oracle._exact_cover(balls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (outcome, len(centers), nodes) == (FOUND, 720, 720)
    assert peak < 1_000_000, peak
