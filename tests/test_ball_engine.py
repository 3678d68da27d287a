"""The table-free ball engine at its boundaries, and the paths that use it.

The engine takes one of three routes by the radius r and the diameter D:
n! minus the ball of radius D - 1 - r for r >= D/2, which is n! from D
on; Euler's pentagonal sum plus one pentagonal ball of S_(n+1) for
r <= 2n + 1, that ball empty for r <= n; and the truncated product in
between.  Every route and each edge between two of them is pinned
against the recurrence table or the product's coefficient loop, kept
here as a reference, and so are spheres whose two balls take different
routes.  Certificates and their re-checks must not build a table at
all.  The served balls end at a fixed bound on min(n, r) * r, with
r = min(t, max(D - 1 - t, n)) the radius the engine expands.  The bound
is pinned from both sides, and the served set must hold every ball the
former measure, r = min(t, D), served, equal the set of the branching
measure it restates (t below the midpoint D/2, else max(D - 1 - t, n)),
and be closed downward in n, as ``scan``'s single check needs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kendallcodes import certifier, mahonian
from kendallcodes.certifier import (
    INCONCLUSIVE,
    MAX_BALL_WORK,
    Certificate,
    ball_value,
    certify,
    scan,
)
from kendallcodes.checker import check_certificate, parse_certificate
from kendallcodes.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_VALIDATION, main
from kendallcodes.mahonian import ball_count, max_distance
from kendallcodes.numtheory import MAX_GROUP_N, factorize
from kendallcodes.table import ball_size


@pytest.mark.parametrize("n", [5, 6, 17, 40, 60])
def test_past_the_pentagonal_range(table60, n):
    for r in (n - 1, n, n + 1):
        assert ball_count(n, r) == ball_size(table60, n, r).value, r


def test_at_the_diameter_of_s128(table150):
    d = max_distance(128)
    for r in (d - 1, d, d + 1):
        assert ball_count(128, r) == ball_size(table150, 128, r).value, r
    assert ball_count(128, d) == math.factorial(128)


def test_exhaustive_for_small_groups(table60):
    for n in range(2, 13):
        for r in range(max_distance(n) + 3):
            assert ball_count(n, r) == ball_size(table60, n, r).value, (n, r)


def product_ball_count(n, r):
    """B(n, r) from every coefficient of prod_{k<=min(n, r)} (1 - q^k): the product route."""
    r = min(r, max_distance(n))
    coeffs = [1] + [0] * r
    for k in range(1, min(n, r) + 1):
        for j in range(r, k - 1, -1):  # multiply by (1 - q^k) in place
            coeffs[j] -= coeffs[j - k]
    total = 0
    binom = 1  # C(n + m, n) for m = r - j, walking j down from r
    for m in range(r + 1):
        total += coeffs[r - m] * binom
        binom = binom * (n + m + 1) // (m + 1)
    return total


def test_pentagonal_sum_matches_the_product_for_every_small_group():
    for n in range(1, 61):
        for r in range(n + 1):
            assert ball_count(n, r) == product_ball_count(n, r), (n, r)


def test_every_route_matches_the_product_for_small_groups():
    for n in range(1, 17):
        for r in range(max_distance(n) + 3):
            assert ball_count(n, r) == product_ball_count(n, r), (n, r)


def test_the_edges_between_routes(table60):
    for n in range(2, 61):
        d = max_distance(n)
        midpoints = [r for r in range(d + 2) if abs(2 * r - d) <= 1]
        for r in [2 * n, 2 * n + 1, 2 * n + 2] + midpoints:
            assert ball_count(n, r) == ball_size(table60, n, r).value, (n, r)


@pytest.mark.parametrize("n, r", [(47, 1019), (600, 1019), (1019, 1020), (1019, 2039)])
def test_past_r_equal_n_matches_the_product(n, r):
    assert ball_count(n, r) == product_ball_count(n, r)


@pytest.mark.parametrize("n, table", [(40, "table60"), (128, "table150")])
def test_spheres_across_the_route_edges(request, capsys, n, table):
    row = request.getfixturevalue(table).row(n)
    d = max_distance(n)
    for i in (d // 2 - 1, d // 2, (d + 1) // 2, 2 * n + 1, 2 * n + 2):
        assert ball_count(n, i) - ball_count(n, i - 1) == row[i], i
        assert main(["sphere", "--n", str(n), "--i", str(i)]) == EXIT_OK, i
        assert capsys.readouterr().out == f"{row[i]}\n", i


@pytest.mark.parametrize("n, r", [(10000, 1019), (1019, 1019), (500, 300)])
def test_pentagonal_sum_matches_the_product_at_its_edges(n, r):
    assert ball_count(n, r) == product_ball_count(n, r)


@pytest.mark.parametrize("n", [128, 1019])
def test_both_routes_agree_across_r_equal_n(n):
    for r in (n - 1, n, n + 1):
        assert ball_count(n, r) == product_ball_count(n, r), r


@st.composite
def pentagonal_case(draw):
    n = draw(st.integers(min_value=2, max_value=10000))
    return n, draw(st.integers(min_value=0, max_value=min(n, 1019)))


@settings(max_examples=40, deadline=None)
@given(pentagonal_case())
def test_pentagonal_sum_matches_the_product(case):
    n, r = case
    assert ball_count(n, r) == product_ball_count(n, r)


def test_trivial_group_and_bad_arguments():
    assert ball_count(1, 0) == 1
    assert ball_count(1, 7) == 1
    with pytest.raises(ValueError):
        ball_count(0, 0)
    with pytest.raises(ValueError):
        ball_count(5, -1)


# below the midpoint r = t, so min(n, t) * t is the measure MAX_BALL_WORK
# bounds; (128, D) is where the former measure, r = min(t, D), reached it
EDGES_WITHIN = [(128, max_distance(128)), (129, 6), (200, 5201), (1019, 1020), (10000, 1019)]
EDGES_PAST = [(10000, 1020), (10000, 1021), (1019, 1021), (200, 5202)]


def test_the_work_bound_is_the_old_default_at_the_diameter_of_s128():
    assert MAX_BALL_WORK == 128 * 8128 == 1_040_384
    for n, t in EDGES_WITHIN:
        assert min(n, t) * t <= MAX_BALL_WORK, (n, t)
    for n, t in EDGES_PAST:
        assert min(n, t) * t > MAX_BALL_WORK, (n, t)


@pytest.mark.parametrize("n, t", EDGES_WITHIN)
def test_balls_within_the_work_bound_are_served(n, t):
    assert ball_value(n, t) == ball_count(n, t)
    cert = certify(n, t)
    assert cert.ball == ball_count(n, t)
    assert check_certificate(cert)


def test_radius_6_past_n_128_is_served_by_the_cli(capsys):
    assert main(["certify", "--n", "129", "--t", "6"]) in (EXIT_OK, EXIT_INCONCLUSIVE)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse_certificate(captured.out) == certify(129, 6)


@pytest.mark.parametrize("n, t", EDGES_PAST)
def test_balls_past_the_work_bound_are_refused(capsys, n, t):
    with pytest.raises(ValueError, match="past the bound"):
        ball_value(n, t)
    with pytest.raises(ValueError, match="past the bound"):
        certify(n, t)
    with pytest.raises(ValueError, match="past the bound"):
        scan(t, n, n)
    for argv in (
        ["certify", "--n", str(n), "--t", str(t)],
        ["scan", "--t", str(t), "--from", str(n - 1), "--to", str(n)],
        ["ball", "--n", str(n), "--r", str(t)],
        ["sphere", "--n", str(n), "--i", str(t)],
    ):
        assert main(argv) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "past the bound" in captured.err, argv


def test_scan_refuses_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no certificate may be made")

    monkeypatch.setattr(certifier, "certify", refuse)
    with pytest.raises(ValueError, match="past the bound"):
        scan(1020, 2, 10000)


def test_certify_and_check_build_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the inversion table must not be built")

    monkeypatch.setattr(mahonian, "build_table", refuse)
    monkeypatch.setattr(certifier, "build_table", refuse)
    cert = certify(128, 30)
    assert cert.ball == ball_count(128, 30)
    assert check_certificate(cert)


# From the midpoint on the measure reads the reflected radius D - 1 - t,
# floored at n: n! for t >= D, served for n <= 1019, and the reflected
# ball while n * (D - 1 - t) is within the bound.
D1019 = max_distance(1019)
SERVED_FROM_THE_MIDPOINT = [
    (129, 8256), (150, 11175), (200, 14698), (1019, D1019), (1019, D1019 - 1021)
]
PAST_FROM_THE_MIDPOINT = [
    (200, 14697), (1019, D1019 - 1022), (1020, max_distance(1020)), (10000, max_distance(10000))
]


@pytest.mark.parametrize("n, t", SERVED_FROM_THE_MIDPOINT)
def test_balls_from_the_midpoint_on_are_served(capsys, n, t):
    d = max_distance(n)
    ball = ball_value(n, t)
    if t >= d:
        assert ball == math.factorial(n)
    else:
        assert ball == math.factorial(n) - ball_count(n, d - 1 - t)
    cert = certify(n, t)
    assert cert.ball == ball
    assert check_certificate(cert)
    assert list(scan(t, n, n)) == [cert]
    assert main(["certify", "--n", str(n), "--t", str(t)]) in (EXIT_OK, EXIT_INCONCLUSIVE)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse_certificate(captured.out) == cert
    assert main(["ball", "--n", str(n), "--r", str(t)]) == EXIT_OK
    assert capsys.readouterr() == (f"{ball}\n", "")


@pytest.mark.parametrize("n, t", PAST_FROM_THE_MIDPOINT)
def test_balls_past_the_bound_from_the_midpoint_on_are_refused(capsys, n, t):
    for call in (ball_value, certify):
        with pytest.raises(ValueError, match="past the bound"):
            call(n, t)
    with pytest.raises(ValueError, match="past the bound"):
        scan(t, 2, n)
    for argv in (
        ["certify", "--n", str(n), "--t", str(t)],
        ["scan", "--t", str(t), "--from", str(n - 1), "--to", str(n)],
        ["ball", "--n", str(n), "--r", str(t)],
    ):
        assert main(argv) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "past the bound" in captured.err, argv


def test_the_refusal_names_the_expanded_radius():
    with pytest.raises(ValueError) as refused:
        ball_value(200, 14697)
    assert str(refused.value) == (
        "radius 14697 at n=200 expands radius 5202: min(n, r)*r = 1040400,"
        " past the bound of 1040384"
    )


def test_the_checker_rejects_forged_records_past_and_from_the_midpoint(monkeypatch):
    for n, t in ((129, 8256), (1019, D1019 - 1021)):
        cert = certify(n, t)
        assert check_certificate(cert)
        for delta in (1, -1):
            assert not check_certificate(cert._replace(ball=cert.ball + delta)), (n, t, delta)

    # the record 1020! would have, were its radius served
    n, t = 1020, max_distance(1020)
    ball = math.factorial(n)
    smooth, cofactor = factorize(ball, n)
    assert cofactor == 1
    forged = Certificate(n, t, ball, smooth, INCONCLUSIVE)

    def refuse(*args):
        raise AssertionError("a record outside the served range must not be recomputed")

    monkeypatch.setattr(certifier, "ball_count", refuse)
    assert not check_certificate(forged)


def former_measure_serves(n, t):
    """The former served range: min(n, r) * r within the bound, with r = min(t, D)."""
    r = min(t, max_distance(n))
    return min(n, r) * r <= MAX_BALL_WORK


def branching_measure_serves(n, t):
    """The 0.13.9 served range: r = t below the midpoint, else max(D - 1 - t, n)."""
    d = max_distance(n)
    r = t if 2 * t < d else max(d - 1 - t, n)
    return min(n, r) * r <= MAX_BALL_WORK


def serves(n, t):
    """Whether (n, t) is served: ``scan`` checks its last group at the call and makes nothing."""
    try:
        scan(t, n, n)
    except ValueError:
        return False
    return True


def served_flags(t, groups):
    """``serves`` at each of ``groups``, bisected to the edge between neighbours that disagree."""
    groups = sorted({n for n in groups if 2 <= n <= MAX_GROUP_N})
    flags = {n: serves(n, t) for n in groups}
    for a, b in zip(groups, groups[1:]):
        while b - a > 1 and flags[a] != flags[b]:
            middle = (a + b) // 2
            flags[middle] = serves(middle, t)
            a, b = (middle, b) if flags[middle] == flags[a] else (a, middle)
    return flags


def near_the_terms(t):
    """Every n to 8, a spread to MAX_GROUP_N, and each n near where a term of a measure turns.

    D(n) passes t near sqrt(2t) and 2t near sqrt(4t), n * n passes the
    bound at 1020 and n * t near bound // t.
    """
    groups = set(range(2, 9)) | set(range(9, 1200, 37)) | {2000, 5000, MAX_GROUP_N}
    bound = MAX_BALL_WORK
    for edge in (math.isqrt(2 * t), math.isqrt(4 * t), math.isqrt(bound), bound // max(t, 1)):
        groups |= set(range(edge - 2, edge + 3))
    return groups


def check_served_set(t, flags):
    served = [n for n, ok in flags.items() if ok]
    refused = [n for n, ok in flags.items() if not ok]
    assert not served or not refused or max(served) < min(refused), (t, "not closed downward in n")
    lost = [n for n in refused if former_measure_serves(n, t)]
    assert not lost, (t, "refused where the former measure served", lost)
    moved = [n for n, ok in flags.items() if ok != branching_measure_serves(n, t)]
    assert not moved, (t, "served otherwise than the branching measure", moved)


# every t within 2 of D(k) or of D(k)/2, rounded down, for k <= 1100
EDGE_RADII = sorted(
    {
        centre + offset
        for k in range(2, 1101)
        for centre in (max_distance(k), max_distance(k) // 2)
        for offset in range(-2, 3)
        if centre + offset >= 0
    }
)
SPREAD_RADII = sorted(set(range(64)) | {int(1.1**j) for j in range(150)})


def test_the_served_set_keeps_every_former_ball_and_is_closed_downward_in_n():
    for t in EDGE_RADII + SPREAD_RADII:
        check_served_set(t, served_flags(t, near_the_terms(t)))


@pytest.mark.parametrize(
    "t", [1019, 1020, 5201, 8256, 14697, 14698, D1019 - 1022, D1019, max_distance(1100), 10**6]
)
def test_the_served_set_at_every_group_to_1600(t):
    check_served_set(t, served_flags(t, set(range(2, 1601)) | {2000, 5000, MAX_GROUP_N}))
