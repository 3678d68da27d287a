"""Brute-force oracles: histograms, censuses, and the perfect-code search.

These are the ground truth the fast modules are checked against, so their
own tests lean on literal frozen values and internal consistency.
"""

import random

import pytest

from kendallcodes import oracle
from kendallcodes.certifier import INCONCLUSIVE, certify
from kendallcodes.mahonian import ball_size, max_distance
from kendallcodes.oracle import (
    ABORTED_BUDGET,
    EXHAUSTED_NONE,
    FOUND,
    ball_census,
    inversion_histogram,
    search_perfect_code,
    verify_min_distance,
)
from kendallcodes.perms import enumerate_sn, identity, kendall_distance, reverse


def test_histogram_golden_values():
    assert inversion_histogram(2).counts == (1, 1)
    assert inversion_histogram(3).counts == (1, 2, 2, 1)
    assert inversion_histogram(4).counts == (1, 3, 5, 6, 5, 3, 1)


def test_histogram_matches_recurrence_rows(table60):
    for n in range(2, 9):
        assert inversion_histogram(n).counts == table60.row(n), n


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
            assert inversion_histogram(n, center).counts == tuple(direct), center
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


def test_search_radius_zero_takes_everything():
    for n in (3, 4):
        result = search_perfect_code(n, 0)
        assert result.outcome == FOUND
        assert result.code == tuple(enumerate_sn(n))
        assert verify_min_distance(result.code, 1)


def test_search_exhausts_without_a_code():
    for n, expected_nodes in ((4, 4), (5, 14), (6, 160)):
        result = search_perfect_code(n, 1)
        assert result.outcome == EXHAUSTED_NONE
        assert result.code is None
        assert result.nodes_explored == expected_nodes
        # divisibility alone cannot rule these out; the search is stronger
        assert certify(n, 1).verdict == INCONCLUSIVE


def test_translated_masks_equal_pairwise_masks():
    for n in range(2, 6):
        perms = list(enumerate_sn(n))
        distances = [[kendall_distance(pi, other) for other in perms] for pi in perms]
        for t in range(max_distance(n) + 1):
            pairwise = [
                sum(1 << b for b, d in enumerate(row) if d <= t) for row in distances
            ]
            ball = [pi for pi in perms if kendall_distance(perms[0], pi) <= t]
            assert oracle._translated_masks(perms, ball) == pairwise, (n, t)


def test_found_codes_are_rechecked_by_distances(monkeypatch):
    # a broken translation that shrinks every ball to its center makes the
    # masks accept all of S_4 as a "code"; the distance re-check refuses it
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


def test_search_budget_abort():
    result = search_perfect_code(5, 1, node_budget=3)
    assert result.outcome == ABORTED_BUDGET
    assert result.nodes_explored == 4
    assert result.code is None


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
    with pytest.raises(ValueError):
        search_perfect_code(4, 1, node_budget=0)
