"""The package's public surface: every exported name resolves, one version."""

import re
from pathlib import Path

import kendallcodes


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from kendallcodes import *", namespace)
    assert [name for name in kendallcodes.__all__ if name not in namespace] == []
    assert len(set(kendallcodes.__all__)) == len(kendallcodes.__all__)


def test_version_matches_pyproject():
    # tomllib needs Python 3.11 and the package supports 3.10, so use a regex
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert match is not None
    assert match.group(1) == kendallcodes.__version__


def test_public_surface_is_pinned():
    # an export added or dropped is a deliberate edit of this list
    assert sorted(kendallcodes.__all__) == [
        "BallSize",
        "Certificate",
        "CodeSearchResult",
        "Factorization",
        "INCONCLUSIVE",
        "NONEXISTENT_NOT_DIVIDING",
        "NONEXISTENT_PRIME_FACTOR",
        "SphereTable",
        "ball_census",
        "ball_closed_form",
        "ball_count",
        "ball_size",
        "ball_value",
        "build_table",
        "certify",
        "check_certificate",
        "divides_factorial",
        "factorial_valuation",
        "factorize",
        "format_certificate",
        "format_certificate_pretty",
        "format_factorization",
        "inversion_histogram",
        "is_probable_prime",
        "kendall_distance",
        "max_distance",
        "parse_certificate",
        "scan",
        "search_perfect_code",
        "sphere_closed_form",
        "sphere_size",
        "sphere_size_large_radius",
        "sphere_size_small_radius",
        "table_tsv_lines",
        "verify_min_distance",
    ]
