"""Property tests: the table-free ball engine against every other route.

``ball_count`` must agree with the recurrence table's prefix sums, the
closed forms for radii up to 5, both piecewise sphere recursions (as
differences of consecutive balls), and n! at the diameter.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from kendallcodes.mahonian import (
    BALL_FORM_MIN_N,
    ball_closed_form,
    ball_count,
    ball_size,
    max_distance,
    sphere_size_large_radius,
    sphere_size_small_radius,
)


@st.composite
def group_and_radius(draw, max_n, slack=2):
    n = draw(st.integers(min_value=2, max_value=max_n))
    return n, draw(st.integers(min_value=0, max_value=max_distance(n) + slack))


@given(group_and_radius(60))
def test_matches_table_prefix_sums(table60, case):
    n, r = case
    assert ball_count(n, r) == ball_size(table60, n, r).value


@given(st.data())
def test_matches_closed_forms(data):
    r = data.draw(st.integers(min_value=0, max_value=5))
    n = data.draw(st.integers(min_value=BALL_FORM_MIN_N[r], max_value=10000))
    assert ball_count(n, r) == ball_closed_form(n, r)


@given(st.data())
def test_differences_match_small_radius_recursion(table60, data):
    n = data.draw(st.integers(min_value=5, max_value=61))
    i = data.draw(st.integers(min_value=4, max_value=n - 1))
    assert ball_count(n, i) - ball_count(n, i - 1) == sphere_size_small_radius(table60, n, i)


@settings(deadline=None)
@given(st.data())
def test_differences_match_large_radius_recursion(table60, data):
    n = data.draw(st.integers(min_value=5, max_value=60))
    i = data.draw(st.integers(min_value=n, max_value=max_distance(n) // 2))
    assert ball_count(n, i) - ball_count(n, i - 1) == sphere_size_large_radius(table60, n, i)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=100))
def test_whole_group_at_the_diameter(n):
    assert ball_count(n, max_distance(n)) == math.factorial(n)
