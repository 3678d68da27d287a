"""The table-free ball engine at its boundaries, and the paths that use it.

The coefficients of Euler's product stop being pentagonal signs past
r = n, and the radius clamps at the diameter D; both edges are pinned
against the recurrence table.  Certificates and their re-checks must not
build a table at all.
"""

import pytest

from kendallcodes import certifier, mahonian
from kendallcodes.certifier import ball_value, certify, check_certificate
from kendallcodes.cli import EXIT_OK, EXIT_VALIDATION, main
from kendallcodes.mahonian import ball_count, ball_size, max_distance


@pytest.mark.parametrize("n", [5, 6, 17, 40, 60])
def test_past_the_pentagonal_range(table60, n):
    for r in (n - 1, n, n + 1):
        assert ball_count(n, r) == ball_size(table60, n, r).value, r


def test_at_the_diameter_of_s128(table150):
    d = max_distance(128)
    for r in (d - 1, d, d + 1):
        assert ball_count(128, r) == ball_size(table150, 128, r).value, r


def test_exhaustive_for_small_groups(table60):
    for n in range(2, 13):
        for r in range(max_distance(n) + 3):
            assert ball_count(n, r) == ball_size(table60, n, r).value, (n, r)


def test_trivial_group_and_bad_arguments():
    assert ball_count(1, 0) == 1
    assert ball_count(1, 7) == 1
    with pytest.raises(ValueError):
        ball_count(0, 0)
    with pytest.raises(ValueError):
        ball_count(5, -1)


def test_default_cap_serves_128_and_refuses_129_at_radius_6(capsys):
    assert ball_value(128, 6) == ball_count(128, 6)
    assert main(["certify", "--n", "128", "--t", "6"]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", "--n", "129", "--t", "6"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_certify_and_check_build_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the inversion table must not be built")

    monkeypatch.setattr(mahonian, "build_table", refuse)
    monkeypatch.setattr(certifier, "build_table", refuse)
    cert = certify(128, 30)
    assert cert.ball == ball_count(128, 30)
    assert check_certificate(cert)
