"""The table-free ball engine at its boundaries, and the paths that use it.

The engine takes one of five routes by the radius r and the diameter D:
n! for r >= D; n! minus the ball of radius D - 1 - r for D/2 <= r < D;
Euler's pentagonal sum for r <= n; that sum plus one pentagonal ball of
S_(n+1) for n < r <= 2n + 1; and the truncated product in between.
Every route and each edge between two of them is pinned against the
recurrence table or the product's coefficient loop, kept here as a
reference, and so are spheres whose two balls take different routes.
Certificates and their re-checks must not build a table at all.  The
served balls end at a fixed bound on min(n, r) * r, pinned from both
sides.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kendallcodes import certifier, mahonian
from kendallcodes.certifier import (
    MAX_BALL_WORK,
    ball_value,
    certify,
    check_certificate,
    parse_certificate,
    scan,
)
from kendallcodes.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_VALIDATION, main
from kendallcodes.mahonian import ball_count, ball_size, max_distance


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


# min(n, r) * r for r = min(t, D), the measure MAX_BALL_WORK bounds
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
