"""Brute-force oracles: histograms, censuses, and the perfect-code search.

These are the ground truth the fast modules are checked against, so their
own tests lean on literal frozen values and internal consistency.
"""

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
    search_perfect_code,
    verify_min_distance,
)
from kendallcodes.perms import enumerate_sn, identity, kendall_distance, reverse


def test_histogram_golden_values():
    assert inversion_histogram(2) == (1, 1)
    assert inversion_histogram(3) == (1, 2, 2, 1)
    assert inversion_histogram(4) == (1, 3, 5, 6, 5, 3, 1)


def test_histogram_matches_recurrence_rows(table60):
    for n in range(2, 9):
        assert inversion_histogram(n) == table60.row(n), n


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        inversion_histogram(1)
    with pytest.raises(ValueError):
        inversion_histogram(11)
    with pytest.raises(ValueError):
        inversion_histogram(4, identity(5))
    with pytest.raises(ValueError):
        inversion_histogram(4, (1, 2, 2, 4))


def test_ball_census_golden_values():
    assert ball_census(4, 1, (1, 2, 3, 4)) == 4
    assert ball_census(5, 2, identity(5)) == 14
    assert ball_census(4, 6, (2, 4, 1, 3)) == 24
    assert ball_census(2, 0, (1, 2)) == 1


def test_ball_census_is_center_independent(table60):
    rng = random.Random(5)
    for n in range(3, 7):
        centers = [identity(n), reverse(identity(n))]
        for _ in range(3):
            values = list(range(1, n + 1))
            rng.shuffle(values)
            centers.append(tuple(values))
        for r in (1, 2, min(4, max_distance(n))):
            expected = ball_size(table60, n, r).value
            for center in centers:
                assert ball_census(n, r, center) == expected, (n, r, center)


def test_census_matches_direct_distances():
    rng = random.Random(11)
    for n in range(2, 7):
        for _ in range(5):
            values = list(range(1, n + 1))
            rng.shuffle(values)
            center = tuple(values)
            direct = [0] * (max_distance(n) + 1)
            for pi in enumerate_sn(n):
                direct[kendall_distance(center, pi)] += 1
            assert inversion_histogram(n, center) == tuple(direct), center
            for r in (0, 1, max_distance(n) // 2):
                assert ball_census(n, r, center) == sum(direct[: r + 1]), (center, r)


def test_ball_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ball_census(9, 1, identity(9))
    with pytest.raises(ValueError):
        ball_census(4, -1, identity(4))
    with pytest.raises(ValueError):
        ball_census(4, 1, identity(5))
    with pytest.raises(ValueError):
        ball_census(4, 1, (1, 2, 2, 4))


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
    assert verify_min_distance(tuple(enumerate_sn(4)), 1)
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
    for fix, nodes in ((True, 1), (False, 2)):
        start = time.perf_counter()
        result = search_perfect_code(6, 15, fix_first_codeword=fix)
        elapsed = time.perf_counter() - start
        assert result.outcome == FOUND
        assert result.code == (identity(6),)
        assert result.nodes_explored == nodes
        assert result.note == ""
        assert elapsed < 0.5, elapsed


def test_search_whole_group_code_is_rechecked(monkeypatch):
    monkeypatch.setattr(oracle, "verify_min_distance", lambda code, d: False)
    with pytest.raises(AssertionError, match="not perfect"):
        search_perfect_code(3, 3)


def test_search_radius_zero_takes_everything():
    for n in (3, 4):
        result = search_perfect_code(n, 0)
        assert result.outcome == FOUND
        assert result.code == tuple(enumerate_sn(n))
        assert verify_min_distance(result.code, 1)


def test_search_radius_zero_rechecks_by_distinctness():
    # distinctness settles distance 1; pairwise distances take seconds at n = 6
    start = time.perf_counter()
    result = search_perfect_code(6, 0)
    elapsed = time.perf_counter() - start
    assert result.outcome == FOUND
    assert len(result.code) == 720 and result.nodes_explored == 720
    assert elapsed < 0.5, elapsed


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
        perms = list(enumerate_sn(n))
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
    monkeypatch.setattr(oracle, "compose", lambda x, center: center)
    with pytest.raises(AssertionError, match="not perfect"):
        search_perfect_code(4, 1)


def test_search_is_deterministic():
    first = search_perfect_code(5, 1)
    second = search_perfect_code(5, 1)
    assert first == second


def test_search_symmetry_reduction_is_safe():
    fixed = search_perfect_code(4, 1)
    free = search_perfect_code(4, 1, fix_first_codeword=False)
    assert fixed.outcome == free.outcome == EXHAUSTED_NONE
    assert free == search_perfect_code(4, 1, fix_first_codeword=False)


def test_search_divisibility_precheck():
    result = search_perfect_code(5, 2)
    assert result.outcome == EXHAUSTED_NONE
    assert result.nodes_explored == 0
    assert "does not divide" in result.note


def test_search_found_codes_partition_the_group():
    for n, t in ((2, 1), (3, 1), (3, 0), (4, 0)):
        result = search_perfect_code(n, t)
        assert result.outcome == FOUND
        ball = ball_census(n, t, identity(n))
        assert len(result.code) * ball == len(list(enumerate_sn(n)))
        assert verify_min_distance(result.code, 2 * t + 1)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_perfect_code(1, 1)
    with pytest.raises(ValueError):
        search_perfect_code(7, 1)
    with pytest.raises(ValueError):
        search_perfect_code(4, -1)


# (n, t): outcome, nodes with the identity fixed first, nodes without, code
# size.  Every other radius up to the diameter fails the divisibility check,
# so this is every (n, t) the search serves.  None visits more than 1 039
# nodes, which is why the search has no node budget.
SEARCH_GOLDEN = {
    (2, 0): (FOUND, 2, 3, 2),
    (2, 1): (FOUND, 1, 2, 1),
    (3, 0): (FOUND, 6, 7, 6),
    (3, 1): (FOUND, 2, 3, 2),
    (3, 3): (FOUND, 1, 2, 1),
    (4, 0): (FOUND, 24, 25, 24),
    (4, 1): (EXHAUSTED_NONE, 4, 17, None),
    (4, 6): (FOUND, 1, 2, 1),
    (5, 0): (FOUND, 120, 121, 120),
    (5, 1): (EXHAUSTED_NONE, 14, 65, None),
    (5, 10): (FOUND, 1, 2, 1),
    (6, 0): (FOUND, 720, 721, 720),
    (6, 1): (EXHAUSTED_NONE, 160, 1039, None),
    (6, 2): (EXHAUSTED_NONE, 22, 508, None),
    (6, 7): (FOUND, 2, 3, 2),
    (6, 15): (FOUND, 1, 2, 1),
}


def test_search_order_is_pinned():
    # fail-first with its tie-break fixes every node count and code size
    assert max(max(fixed, free) for _, fixed, free, _ in SEARCH_GOLDEN.values()) == 1039
    for n in range(2, 7):
        for t in range(max_distance(n) + 1):
            golden = SEARCH_GOLDEN.get((n, t), (EXHAUSTED_NONE, 0, 0, None))
            outcome, fixed, free, size = golden
            codes = set()
            for fix, nodes in ((True, fixed), (False, free)):
                result = search_perfect_code(n, t, fix_first_codeword=fix)
                found = None if result.code is None else len(result.code)
                assert result.outcome == outcome, (n, t, fix)
                assert result.nodes_explored == nodes, (n, t, fix)
                assert found == size, (n, t, fix)
                assert ("does not divide" in result.note) == (nodes == 0), (n, t)
                codes.add(result.code)
            # lexicographic order tries the identity first even when it is free
            assert len(codes) == 1, (n, t)
            if (n, t) == (6, 7):
                # the antipodal code: d(pi, e) + d(pi, reverse(e)) = 15 for
                # every pi, so the radius-7 balls of e and its reversal split S_6
                assert codes == {(identity(6), reverse(identity(6)))}


def test_search_settles_radius_1_in_s7_past_the_cap(monkeypatch):
    # the cap bounds building balls at large radii, not the search itself
    monkeypatch.setattr(oracle, "MAX_SEARCH_N", 7)
    result = search_perfect_code(7, 1)
    assert result.outcome == EXHAUSTED_NONE
    assert result.nodes_explored == 1807
    assert result.code is None
