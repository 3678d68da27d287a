"""The package's public surface: every exported name resolves, one version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import kendallcodes

ROOT = Path(__file__).resolve().parents[1]

# a one-shot certify in a bare interpreter (-S: no site imports), then what
# it left unloaded, then the lazy oracle export
COLD_CERTIFY = """
import contextlib, io, sys
from kendallcodes import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["certify", "--n", "13", "--t", "3"])
print(code, "dataclasses" in sys.modules, "kendallcodes.oracle" in sys.modules)
import kendallcodes
print(kendallcodes.search_perfect_code.__module__, "kendallcodes.oracle" in sys.modules)
"""


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from kendallcodes import *", namespace)
    assert [name for name in kendallcodes.__all__ if name not in namespace] == []
    assert len(set(kendallcodes.__all__)) == len(kendallcodes.__all__)


def test_certify_loads_neither_dataclasses_nor_the_oracle():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", COLD_CERTIFY],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert done.stdout.splitlines() == ["0 False False", "kendallcodes.oracle True"]


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(kendallcodes, "no_such_export")


def test_version_matches_pyproject():
    # tomllib needs Python 3.11 and the package supports 3.10, so use a regex
    pyproject = ROOT / "pyproject.toml"
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
