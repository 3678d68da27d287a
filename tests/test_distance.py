"""The Kendall distance, checked against definition-level oracles.

The oracles recompute everything from scratch: inversions by a direct
pair scan, distance by the defining count of oppositely ordered value
pairs, and again by BFS over the adjacent-transposition graph.
"""

import doctest
import itertools
import random
from collections import deque

import pytest

from kendallcodes import oracle
from kendallcodes.oracle import check_permutation, kendall_distance, verify_min_distance


def pair_scan_weight(pi):
    """Inversions by the defining quadratic pair scan."""
    return sum(
        1 for i, j in itertools.combinations(range(len(pi)), 2) if pi[i] > pi[j]
    )


def kendall_weight(pi):
    """The Kendall weight: the distance from the identity."""
    return kendall_distance(tuple(range(1, len(pi) + 1)), pi)


def discordant_pairs(sigma, pi):
    """Distance by the defining count of value pairs the two order oppositely."""
    n = len(sigma)
    pos_sigma = {value: pos for pos, value in enumerate(sigma)}
    pos_pi = {value: pos for pos, value in enumerate(pi)}
    return sum(
        1
        for a, b in itertools.combinations(range(1, n + 1), 2)
        if (pos_sigma[a] < pos_sigma[b]) != (pos_pi[a] < pos_pi[b])
    )


def adjacent_neighbors(pi):
    """All permutations one adjacent transposition away, in position order."""
    neighbors = []
    for i in range(len(pi) - 1):
        swapped = list(pi)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        neighbors.append(tuple(swapped))
    return neighbors


def bfs_distances(start):
    """Shortest path lengths from ``start`` in the adjacent-transposition graph."""
    distances = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in adjacent_neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    return distances


def random_permutation(rng, n):
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    return tuple(entries)


def test_docstring_examples():
    failures, _ = doctest.testmod(oracle)
    assert failures == 0


def test_size_caps():
    with pytest.raises(ValueError, match="at least 1"):
        kendall_distance((), ())
    # the distance has no size cap; binary insertion still takes a
    # fraction of a second at n = 10 000
    identity = tuple(range(1, 101))
    assert kendall_distance(identity, identity[::-1]) == 4950
    assert kendall_distance(identity[:20], identity[:20]) == 0
    identity = tuple(range(1, 10_001))
    assert kendall_distance(identity, identity[::-1]) == 49_995_000
    rng = random.Random(20)
    sigma, pi = random_permutation(rng, 500), random_permutation(rng, 500)
    assert kendall_distance(sigma, pi) == discordant_pairs(sigma, pi)


def test_rejects_non_permutations():
    for bad in [(1, 1), (2, 3), (0, 1), (1, 2, 4)]:
        with pytest.raises(ValueError, match="not a permutation"):
            kendall_distance(bad, bad)
    with pytest.raises(ValueError, match="size mismatch"):
        kendall_distance((1, 2), (1, 3, 2))


NOT_INTS = [(1.0, 2.0), (2.0, 1.0), (True, 2), (2, True), (1, 2.0)]
CALLS = {
    "kendall_weight": lambda bad: kendall_weight(bad),
    "kendall_distance_first": lambda bad: kendall_distance(bad, (1, 2)),
    "kendall_distance_second": lambda bad: kendall_distance((1, 2), bad),
    "verify_min_distance_1": lambda bad: verify_min_distance((bad, (2, 1)), 1),
    "verify_min_distance_2": lambda bad: verify_min_distance((bad, (2, 1)), 2),
}


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_entries_must_be_ints(call, bad):
    # floats and bools compare equal to 1 and 2, but are no permutation entries
    with pytest.raises(ValueError, match="not a permutation"):
        call(bad)


def test_weight_examples():
    assert kendall_weight((1, 2, 3)) == 0
    assert kendall_weight((4, 3, 2, 1)) == 6
    assert kendall_weight((3, 1, 2)) == 2


def test_weight_matches_pair_scan_exhaustively():
    for n in range(1, 7):
        for pi in itertools.permutations(range(1, n + 1)):
            assert kendall_weight(pi) == pair_scan_weight(pi)


def test_weight_range():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 12)
        pi = random_permutation(rng, n)
        assert 0 <= kendall_weight(pi) <= n * (n - 1) // 2


def test_distance_worked_example():
    assert kendall_distance((2, 1, 3), (1, 3, 2)) == 2


def test_distance_matches_defining_pair_count():
    for pi in itertools.permutations(range(1, 5)):
        for sigma in itertools.permutations(range(1, 5)):
            assert kendall_distance(sigma, pi) == discordant_pairs(sigma, pi)
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(2, 10)
        sigma, pi = random_permutation(rng, n), random_permutation(rng, n)
        assert kendall_distance(sigma, pi) == discordant_pairs(sigma, pi)


def test_distance_validates_each_argument_once(monkeypatch):
    checked = []

    def counting_check(pi):
        checked.append(tuple(pi))
        return check_permutation(pi)

    monkeypatch.setattr(oracle, "check_permutation", counting_check)
    assert kendall_distance((2, 3, 1), (3, 1, 2)) == 2
    assert checked == [(2, 3, 1), (3, 1, 2)]


def test_distance_matches_bfs_exhaustively():
    # the metric really is the adjacent-transposition path length
    for n in range(2, 6):
        everyone = list(itertools.permutations(range(1, n + 1)))
        for sigma in everyone:
            shortest = bfs_distances(sigma)
            for pi in everyone:
                assert kendall_distance(sigma, pi) == shortest[pi]


def test_distance_equals_weight_against_identity():
    # with the identity second, on every permutation up to n = 6;
    # test_weight_matches_pair_scan_exhaustively has it first
    for n in range(1, 7):
        identity = tuple(range(1, n + 1))
        for pi in itertools.permutations(identity):
            assert kendall_distance(pi, identity) == pair_scan_weight(pi)


def test_metric_axioms_exhaustive_small():
    for n in range(2, 5):
        everyone = list(itertools.permutations(range(1, n + 1)))
        for a in everyone:
            for b in everyone:
                d = kendall_distance(a, b)
                assert d == kendall_distance(b, a)
                assert (d == 0) == (a == b)
        for a, b, c in itertools.product(everyone, repeat=3):
            assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)


def test_metric_axioms_sampled():
    rng = random.Random(16)
    for n in (5, 6, 7):
        for _ in range(300):
            a, b, c = (random_permutation(rng, n) for _ in range(3))
            assert kendall_distance(a, b) == kendall_distance(b, a)
            assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)
            assert kendall_distance(a, a) == 0


def test_distance_invariant_under_common_right_factor():
    # shifting both arguments through the same permutation preserves distance;
    # this is what lets the code search fix the identity as a codeword
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 9)
        sigma, pi, tau = (random_permutation(rng, n) for _ in range(3))
        # relabel the values of both through tau
        shifted_sigma = tuple(tau[v - 1] for v in sigma)
        shifted_pi = tuple(tau[v - 1] for v in pi)
        assert kendall_distance(shifted_sigma, shifted_pi) == kendall_distance(sigma, pi)


def test_weight_plus_reversed_weight_is_constant():
    # reversal flips every pair, so the two inversion counts always
    # partition the n(n-1)/2 value pairs
    for n in range(1, 7):
        top = n * (n - 1) // 2
        identity = tuple(range(1, n + 1))
        for pi in itertools.permutations(identity):
            assert kendall_distance(identity, pi) + kendall_distance(identity, pi[::-1]) == top
    rng = random.Random(18)
    for n in range(7, 13):
        top = n * (n - 1) // 2
        identity = tuple(range(1, n + 1))
        for _ in range(50):
            pi = random_permutation(rng, n)
            assert kendall_distance(identity, pi) + kendall_distance(identity, pi[::-1]) == top


def test_adjacent_neighbors():
    assert adjacent_neighbors((1,)) == []
    assert adjacent_neighbors((1, 2, 3)) == [(2, 1, 3), (1, 3, 2)]
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 10)
        pi = random_permutation(rng, n)
        neighbors = adjacent_neighbors(pi)
        assert len(neighbors) == n - 1
        assert len(set(neighbors)) == n - 1
        for neighbor in neighbors:
            assert kendall_distance(pi, neighbor) == 1
