"""Acceptance gate: nine end-to-end criteria with explicit time bounds.

Each test prints one ``criterion k: PASS/FAIL (x.xx s) description`` line
(visible with ``pytest -s``) and fails if the checks or the time bound
fail.  Scans computed for criterion 5 are cached and reused by criterion 9.
"""

import functools
import itertools
import math
import time

from kendallcodes.certifier import (
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    NONEXISTENT_PRIME_FACTOR,
    scan,
)
from kendallcodes.checker import check_certificate
from kendallcodes.mahonian import max_distance
from kendallcodes.numtheory import divides_factorial, factorize, is_probable_prime
from kendallcodes.oracle import (
    EXHAUSTED_NONE,
    inversion_histogram,
    kendall_distance,
    search_perfect_code,
)
from kendallcodes.table import (
    BALL_FORM_MIN_N,
    ball_closed_form,
    ball_size,
    build_table,
    sphere_closed_form,
    sphere_size,
    sphere_size_large_radius,
)


def _criterion(number, seconds_limit, description, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL ({elapsed:.2f} s) {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= seconds_limit
    print(
        f"criterion {number}: {'PASS' if within else 'FAIL'}"
        f" ({elapsed:.2f} s) {description}"
    )
    assert within, (
        f"criterion {number} exceeded its {seconds_limit}s bound: {elapsed:.2f}s"
    )


def test_criterion_1_tiny_rows_exact():
    def body():
        table = build_table(4)
        assert table.row(3) == (1, 2, 2, 1)
        assert table.row(4) == (1, 3, 5, 6, 5, 3, 1)

    _criterion(1, 1.0, "distance distributions for groups of size 3 and 4", body)


def test_criterion_2_midpoint_sphere_three_ways():
    def body():
        table = build_table(5)
        assert sphere_size(table, 5, 5) == 22
        assert sphere_size_large_radius(table, 5, 5) == 22
        assert sphere_closed_form(5, 5) == 22
        assert inversion_histogram(5)[5] == 22

    _criterion(2, 1.0, "S(5, 5) = 22 by recurrence, recursion, form, enumeration", body)


def test_criterion_3_closed_forms_against_recurrence():
    def body():
        table = build_table(60)
        for n in range(3, 61):
            for i in range(0, 6):
                if n >= BALL_FORM_MIN_N[i]:
                    assert sphere_closed_form(n, i) == sphere_size(table, n, i), (n, i)
            for r in range(0, 6):
                if n >= BALL_FORM_MIN_N[r]:
                    expected = ball_size(table, n, min(r, max_distance(n))).value
                    assert ball_closed_form(n, r) == expected, (n, r)

    _criterion(3, 5.0, "closed forms match the recurrence for all n up to 60", body)


def test_criterion_4_key_ball_arithmetic():
    def body():
        # each key ball is n-smooth: its n-rough cofactor is 1
        assert factorize(441, 13) == (((3, 2), (7, 2)), 1)
        assert factorize(3249, 26) == (((3, 2), (19, 2)), 1)
        assert factorize(1715, 13) == (((5, 1), (7, 3)), 1)
        assert not divides_factorial(factorize(441, 13)[0], 13)
        assert not divides_factorial(factorize(3249, 26)[0], 26)
        assert not divides_factorial(factorize(1715, 13)[0], 13)
        assert math.factorial(13) % 441 != 0
        assert math.factorial(26) % 3249 != 0
        assert math.factorial(13) % 1715 != 0

    _criterion(4, 1.0, "factorizations and non-divisibility of the key balls", body)


@functools.lru_cache(maxsize=1)
def _scan_results():
    return {
        3: list(scan(3, 4, 33)),
        4: list(scan(4, 5, 19)),
        2: list(scan(2, 2, 500)),
        5: list(scan(5, 2, 500)),
    }


def test_criterion_5_nonexistence_scans():
    def body():
        results = _scan_results()

        radius3 = results[3]
        assert len(radius3) == 30
        assert all(c.verdict != INCONCLUSIVE for c in radius3)
        assert {c.n for c in radius3 if c.verdict == NONEXISTENT_NOT_DIVIDING} == {13, 26}

        radius4 = results[4]
        assert len(radius4) == 15
        assert all(c.verdict != INCONCLUSIVE for c in radius4)
        assert {c.n for c in radius4 if c.verdict == NONEXISTENT_NOT_DIVIDING} == {13}

        radius2 = {c.n: c for c in results[2]}
        assert len(radius2) == 499
        for n in range(5, 501):
            if is_probable_prime(n + 2):
                assert radius2[n].verdict == NONEXISTENT_PRIME_FACTOR, n
                assert radius2[n].witness == n + 2, n

        radius5 = {c.n: c for c in results[5]}
        for n in range(5, 501):
            if is_probable_prime(n + 7):
                assert radius5[n].verdict != INCONCLUSIVE, n
                assert radius5[n].ball % (n + 7) == 0, n

    _criterion(5, 30.0, "nonexistence scans at radii 2, 3, 4, 5", body)


def test_criterion_6_enumeration_matches_recurrence():
    def body():
        table = build_table(8)
        for n in range(2, 9):
            assert inversion_histogram(n) == table.row(n), n

    _criterion(6, 10.0, "brute-force distance histograms for all n up to 8", body)


def test_criterion_7_metric_axioms_hold():
    def body():
        for n in range(2, 6):
            perms = list(itertools.permutations(range(1, n + 1)))
            size = len(perms)
            dist = [[0] * size for _ in range(size)]
            for a in range(size):
                for b in range(a + 1, size):
                    d = kendall_distance(perms[a], perms[b])
                    assert d > 0  # distinct permutations never collide
                    dist[a][b] = dist[b][a] = d
            for a in range(size):
                assert dist[a][a] == 0
                for b in range(size):
                    for c in range(size):
                        assert dist[a][c] <= dist[a][b] + dist[b][c]
        for n in range(2, 7):
            top = max_distance(n)
            e = tuple(range(1, n + 1))
            for pi in itertools.permutations(e):
                assert kendall_distance(e, pi) + kendall_distance(e, pi[::-1]) == top

    _criterion(7, 20.0, "metric axioms and the reversal complement identity", body)


def test_criterion_8_exhaustive_searches_are_reproducible():
    def body():
        for n, expected_nodes in ((4, 4), (5, 14), (6, 160)):
            first = search_perfect_code(n, 1)
            second = search_perfect_code(n, 1)
            assert first.outcome == second.outcome == EXHAUSTED_NONE
            assert first.nodes_explored == second.nodes_explored == expected_nodes
            print(
                f"  search n={n} t=1: {first.outcome}"
                f" after {first.nodes_explored} nodes, twice"
            )

    _criterion(8, 60.0, "no perfect single-error code in groups of size 4, 5 and 6", body)


def test_criterion_9_checker_accepts_real_rejects_tampered():
    results = _scan_results()  # cached from criterion 5; not part of this bound

    def body():
        certs = [c for batch in results.values() for c in batch]
        assert len(certs) > 1000
        for cert in certs:
            assert check_certificate(cert), (cert.n, cert.t)
        base = next(c for c in results[3] if c.n == 13)
        tampered = [
            base._replace(ball=base.ball + 1),
            base._replace(witness=11),
            base._replace(verdict=INCONCLUSIVE, witness=None, witness_exponents=None),
        ]
        for fake in tampered:
            assert not check_certificate(fake)

    _criterion(9, 5.0, "certificate checker validates 1000+ real, rejects forged", body)
