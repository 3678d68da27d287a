"""Recurrence table, piecewise recursions, and closed forms.

The table is validated against frozen small rows, against structural
invariants (row sums, symmetry, unimodality), and against the two
independent piecewise recursions on their full validity ranges.  The
brute-force enumeration cross-check lives in test_oracle.
"""

import math
from itertools import zip_longest

import pytest

from kendallcodes import table as mahonian
from kendallcodes.mahonian import ball_count, max_distance
from kendallcodes.table import (
    ball_closed_form,
    ball_size,
    build_table,
    rows,
    sphere_closed_form,
    sphere_size,
    sphere_size_large_radius,
    sphere_size_small_radius,
    table_tsv_lines,
)

# Inversion-count rows for tiny groups, frozen from direct enumeration.
ROW_2 = (1, 1)
ROW_3 = (1, 2, 2, 1)
ROW_4 = (1, 3, 5, 6, 5, 3, 1)
ROW_5 = (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1)
ROW_6 = (1, 5, 14, 29, 49, 71, 90, 101, 101, 90, 71, 49, 29, 14, 5, 1)


def test_small_rows_are_exact(table150):
    assert table150.row(2) == ROW_2
    assert table150.row(3) == ROW_3
    assert table150.row(4) == ROW_4
    assert table150.row(5) == ROW_5
    assert table150.row(6) == ROW_6


def test_build_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(2001)


def test_row_lookup_range(table150):
    with pytest.raises(ValueError):
        table150.row(1)
    with pytest.raises(ValueError):
        table150.row(151)


def test_row_invariants(table60):
    for n in range(2, 61):
        row = table60.row(n)
        assert len(row) == max_distance(n) + 1
        assert sum(row) == math.factorial(n)
        assert row[0] == 1
        assert row[1] == n - 1
        assert row == row[::-1]
        assert all(value > 0 for value in row)
        middle = len(row) // 2
        assert all(row[i] <= row[i + 1] for i in range(middle))  # unimodal


def test_sphere_size_conventions(table150):
    assert sphere_size(table150, 5, 2) == 9
    assert sphere_size(table150, 5, 5) == 22
    assert sphere_size(table150, 13, 3) == 351
    assert sphere_size(table150, 4, 7) == 0
    assert sphere_size(table150, 4, -1) == 0
    assert sphere_size(table150, 6, 15) == 1
    with pytest.raises(ValueError):
        sphere_size(table150, 1, 0)


def test_small_radius_recursion_worked_examples(table150):
    assert sphere_size_small_radius(table150, 5, 4) == 20
    assert sphere_size_small_radius(table150, 6, 4) == 49
    assert sphere_size_small_radius(table150, 6, 5) == 71


def test_small_radius_recursion_range_checks(table150):
    with pytest.raises(ValueError):
        sphere_size_small_radius(table150, 3, 4)
    with pytest.raises(ValueError):
        sphere_size_small_radius(table150, 6, 3)
    with pytest.raises(ValueError):
        sphere_size_small_radius(table150, 6, 6)  # radius must stay below n
    small = build_table(4)
    with pytest.raises(ValueError):
        sphere_size_small_radius(small, 6, 4)  # table too short


def test_small_radius_recursion_matches_table_everywhere(table150):
    for n in range(5, 61):
        for i in range(4, n):
            assert sphere_size_small_radius(table150, n, i) == sphere_size(
                table150, n, i
            ), (n, i)


def test_large_radius_recursion_worked_examples(table150):
    assert sphere_size_large_radius(table150, 5, 5) == 22
    assert sphere_size_large_radius(table150, 6, 6) == 90
    assert sphere_size_large_radius(table150, 6, 7) == 101


def test_large_radius_recursion_range_checks(table150):
    with pytest.raises(ValueError):
        sphere_size_large_radius(table150, 4, 4)
    with pytest.raises(ValueError):
        sphere_size_large_radius(table150, 6, 5)  # radius must reach n
    with pytest.raises(ValueError):
        sphere_size_large_radius(table150, 6, 8)  # beyond the midpoint
    small = build_table(6)
    with pytest.raises(ValueError):
        sphere_size_large_radius(small, 5, 8)  # wrong range and table anyway
    with pytest.raises(ValueError):
        sphere_size_large_radius(build_table(5), 7, 9)  # needs row 6


def test_large_radius_recursion_matches_table_everywhere(table150):
    # entire validity range for group sizes up to 20
    for n in range(5, 21):
        for i in range(n, max_distance(n) // 2 + 1):
            assert sphere_size_large_radius(table150, n, i) == sphere_size(
                table150, n, i
            ), (n, i)
    # larger groups: spot-check radii, the last one past the table's final row
    for n in (25, 40, 60):
        for i in (n, n + 7, table150.max_n + 1):
            if i <= max_distance(n) // 2:
                assert sphere_size_large_radius(table150, n, i) == sphere_size(
                    table150, n, i
                ), (n, i)


def test_large_radius_recursion_reads_rows_below_n_only(table60):
    # the overshoot windows cancel, so rows up to n - 1 suffice at every radius
    for n in range(5, 31):
        table = build_table(n - 1)
        for i in range(n, max_distance(n) // 2 + 1):
            assert sphere_size_large_radius(table, n, i) == table60.row(n)[i], (n, i)


def test_piecewise_routes_cover_all_radii(table150):
    # any radius >= 6 is reachable by mirroring into the half range and
    # dispatching on radius versus group size; spot-check a full row sweep
    for n in (6, 7, 9, 12):
        half = max_distance(n) // 2
        for i in range(max_distance(n) + 1):
            mirrored = min(i, max_distance(n) - i)
            if mirrored <= 5:
                expected = sphere_closed_form(n, mirrored)
            elif mirrored <= n - 1:
                expected = sphere_size_small_radius(table150, n, mirrored)
            else:
                assert n <= mirrored <= half
                expected = sphere_size_large_radius(table150, n, mirrored)
            assert sphere_size(table150, n, i) == expected, (n, i)


def test_sphere_closed_forms_match_table(table60):
    for n in range(3, 61):
        for i in range(0, 6):
            if n < mahonian.BALL_FORM_MIN_N[i]:
                continue
            assert sphere_closed_form(n, i) == sphere_size(table60, n, i), (n, i)


def test_sphere_closed_form_examples():
    assert sphere_closed_form(3, 2) == 2
    assert sphere_closed_form(5, 5) == 22
    assert sphere_closed_form(13, 3) == 351


def test_sphere_closed_form_thresholds(table60):
    # S(2, 2) = 0: radius 2 lies past the diameter of S_2
    assert sphere_closed_form(2, 2) == 0 == sphere_size(table60, 2, 2)
    with pytest.raises(ValueError):
        sphere_closed_form(3, 4)
    with pytest.raises(ValueError):
        sphere_closed_form(4, 5)
    with pytest.raises(ValueError):
        sphere_closed_form(10, 6)


def test_ball_size_examples(table150):
    assert ball_size(table150, 7, 0).value == 1
    assert ball_size(table150, 7, 1).value == 7
    assert ball_size(table150, 13, 3).value == 441
    assert ball_size(table150, 4, 6).value == 24
    assert ball_size(table150, 4, 600).value == 24  # clamps at the whole group
    with pytest.raises(ValueError):
        ball_size(table150, 7, -1)


def test_ball_sizes_grow_then_saturate(table150):
    for n in (2, 3, 5, 8):
        diameter = max_distance(n)
        values = [ball_size(table150, n, r).value for r in range(diameter + 3)]
        assert values[0] == 1
        assert all(a < b for a, b in zip(values[: diameter + 1], values[1 : diameter + 1]))
        assert values[diameter] == math.factorial(n)
        assert values[diameter + 1] == values[diameter + 2] == math.factorial(n)


def test_ball_closed_form_examples():
    assert ball_closed_form(5, 2) == 14
    assert ball_closed_form(13, 3) == 441
    assert ball_closed_form(26, 3) == 3249
    assert ball_closed_form(13, 4) == 1715
    assert ball_closed_form(9, 0) == 1
    assert ball_closed_form(9, 1) == 9


def test_ball_closed_form_thresholds():
    with pytest.raises(ValueError):
        ball_closed_form(1, 2)
    with pytest.raises(ValueError):
        ball_closed_form(2, 3)
    with pytest.raises(ValueError):
        ball_closed_form(3, 4)
    with pytest.raises(ValueError):
        ball_closed_form(4, 5)
    with pytest.raises(ValueError):
        ball_closed_form(30, 6)


def test_ball_closed_form_refuses_a_non_exact_division(monkeypatch):
    # a factor list whose product r! does not divide must raise, not round
    monkeypatch.setitem(mahonian.BALL_FORM_FACTORS, 2, (("n", lambda n: n),))
    with pytest.raises(ArithmeticError, match="closed form is broken"):
        ball_closed_form(5, 2)


def test_ball_closed_forms_match_table(table60):
    for n in range(2, 61):
        for r in range(0, 6):
            if n < mahonian.BALL_FORM_MIN_N[r]:
                continue
            expected = ball_size(table60, n, min(r, max_distance(n))).value
            assert ball_closed_form(n, r) == expected, (n, r)


def test_ball_closed_forms_match_ball_count_to_2000():
    assert mahonian.BALL_FORM_FACTORS.keys() == mahonian.BALL_FORM_MIN_N.keys()
    for r, low in mahonian.BALL_FORM_MIN_N.items():
        for n in range(1, low):
            with pytest.raises(ValueError, match="closed form needs"):
                ball_closed_form(n, r)
        for n in range(low, 2001):
            assert ball_closed_form(n, r) == ball_count(n, r), (n, r)


def test_tsv_export_golden():
    lines = list(table_tsv_lines(3))
    assert lines == [
        "n\ti\tsphere\tball",
        "2\t0\t1\t1",
        "2\t1\t1\t2",
        "3\t0\t1\t1",
        "3\t1\t2\t3",
        "3\t2\t2\t5",
        "3\t3\t1\t6",
    ]


def test_tsv_export_radius_limit():
    lines = list(table_tsv_lines(4, max_r=1))
    assert lines == [
        "n\ti\tsphere\tball",
        "2\t0\t1\t1",
        "2\t1\t1\t2",
        "3\t0\t1\t1",
        "3\t1\t2\t3",
        "4\t0\t1\t1",
        "4\t1\t3\t4",
    ]
    # refused at the call, before the header is asked for
    with pytest.raises(ValueError):
        table_tsv_lines(3, max_r=-1)
    with pytest.raises(ValueError):
        table_tsv_lines(1)


def test_tsv_columns_match_a_plain_rendering(table60):
    # every line rendered on its own from the full rows, then each row cut
    # at max_r; the cuts cross the midpoint of some rows and the diameter
    # of others
    full = []
    for n in range(2, 61):
        row, ball, lines = table60.row(n), 0, []
        for i, sphere in enumerate(row):
            ball += sphere
            lines.append(f"{n}\t{i}\t{sphere}\t{ball}")
        full.append(lines)
    for max_r in (0, 1, 2, 3, 7, 100, 1000, 2000, None):
        expected = ["n\ti\tsphere\tball"]
        for lines in full:
            expected += lines if max_r is None else lines[: max_r + 1]
        assert list(table_tsv_lines(60, max_r)) == expected, max_r


def test_tsv_index_column_belongs_to_one_export():
    # two exports consumed in alternation give the lines each gives alone
    alone = (list(table_tsv_lines(12)), list(table_tsv_lines(30, 7)))
    pairs = list(zip_longest(table_tsv_lines(12), table_tsv_lines(30, 7)))
    for k, lines in enumerate(alone):
        assert [pair[k] for pair in pairs if pair[k] is not None] == lines


def test_rows_cut_at_the_radius_limit(table60):
    # entry i needs no column of the previous row beyond i, so a cut row
    # is the prefix of the full one; the cut crosses the midpoint of some
    # rows and the diameter of others
    for max_r in (0, 1, 2, 3, 7, 100, 1000, 2000):
        for n, row in enumerate(rows(60, max_r), start=2):
            assert row == table60.row(n)[: max_r + 1], (max_r, n)


def test_rows_check_arguments_at_the_call():
    for max_n, max_r in ((1, None), (mahonian.MAX_TABLE_N + 1, None), (5, -1)):
        with pytest.raises(ValueError):
            rows(max_n, max_r)
