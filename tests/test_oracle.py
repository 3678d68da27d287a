"""Brute-force oracles: histograms, censuses, and the perfect-code search.

These are the ground truth the fast modules are checked against, so their
own tests lean on literal frozen values and internal consistency.
"""

import itertools
import math
import random
import time

import pytest

from kendallcodes import oracle
from kendallcodes.certifier import INCONCLUSIVE, certify
from kendallcodes.mahonian import ball_size, max_distance
from kendallcodes.oracle import (
    EXHAUSTED_NONE,
    FOUND,
    ball_census,
    inversion_histogram,
    kendall_distance,
    search_perfect_code,
    verify_min_distance,
)


def symmetric_group(n):
    """S_n in lexicographic order."""
    return list(itertools.permutations(range(1, n + 1)))


def test_histogram_golden_values():
    assert inversion_histogram(2) == (1, 1)
    assert inversion_histogram(3) == (1, 2, 2, 1)
    assert inversion_histogram(4) == (1, 3, 5, 6, 5, 3, 1)


def test_histogram_matches_recurrence_rows(table60):
    for n in range(2, 10):
        assert inversion_histogram(n) == table60.row(n), n


def pair_scan_histogram(n):
    """Inversion counts of S_n by scanning every pair of every permutation."""
    counts = [0] * (math.comb(n, 2) + 1)
    for pi in itertools.permutations(range(n)):
        inversions = 0
        for i in range(n - 1):
            left = pi[i]
            for right in pi[i + 1 :]:
                if left > right:
                    inversions += 1
        counts[inversions] += 1
    return tuple(counts)


def test_histogram_matches_the_pair_scan():
    for n in range(2, 9):
        assert inversion_histogram(n) == pair_scan_histogram(n), n


def test_plain_changes_visit_each_permutation_once_by_adjacent_swaps():
    for n in range(1, 8):
        pi = list(range(n))
        seen = {tuple(pi)}
        steps = 0
        for k in oracle._plain_changes(n):
            assert 0 <= k < n - 1, (n, k)
            pi[k], pi[k + 1] = pi[k + 1], pi[k]
            seen.add(tuple(pi))
            steps += 1
        assert steps == math.factorial(n) - 1, n
        assert len(seen) == math.factorial(n), n
    # the order too, as Knuth's Algorithm P (TAOCP 7.2.1.2) produces it
    assert list(oracle._plain_changes(3)) == [1, 0, 1, 0, 1]
    assert list(oracle._plain_changes(4)) == [
        2, 1, 0, 2, 0, 1, 2, 0, 2, 1, 0, 2, 0, 1, 2, 0, 2, 1, 0, 2, 0, 1, 2,
    ]


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
    # every radius; each census walks S_n, about 0.2 s at n = 9 and 2 s at
    # n = 10, and `verify --n 9` in test_cli checks n = 9 at every radius
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


def test_translated_balls_equal_pairwise_balls():
    for n in range(2, 6):
        perms = symmetric_group(n)
        distances = [[kendall_distance(pi, other) for other in perms] for pi in perms]
        for t in range(max_distance(n) + 1):
            pairwise = [
                tuple(i for i, d in enumerate(row) if d <= t) for row in distances
            ]
            ball = [pi for pi in perms if kendall_distance(perms[0], pi) <= t]
            assert oracle._translated_balls(perms, ball) == pairwise, (n, t)


def test_found_codes_are_rechecked_by_distances(monkeypatch):
    # a broken translation that shrinks every ball to its center makes the
    # cover accept all of S_4 as a "code"; the distance re-check refuses it
    monkeypatch.setattr(oracle, "_translate", lambda x, center: center)
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
