"""The package's public surface: every exported name resolves, one version."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kendallcodes
from kendallcodes import certifier, mahonian, numtheory

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


@pytest.mark.parametrize(
    "module", [certifier, mahonian, numtheory], ids=["certifier", "mahonian", "numtheory"]
)
def test_star_import_binds_exactly_the_module_surface(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)


def test_tracer_only_imports_stay_out_of_the_certifier_surface():
    # perfbench's tracer wraps these at certifier, so they must still resolve there
    tracer_only = ["factorial", "ball_size", "build_table", "ball_closed_form", "divides_factorial"]
    assert all(hasattr(certifier, name) for name in tracer_only)
    assert [name for name in tracer_only if name in certifier.__all__] == []


def test_package_surface_is_the_module_surfaces_in_order():
    assert kendallcodes.__all__ == [
        *certifier.__all__,
        *mahonian.__all__,
        *numtheory.__all__,
        *kendallcodes._ORACLE_EXPORTS,
    ]
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


def test_sources_parse_under_the_oldest_supported_python():
    # this catches syntax newer than requires-python, such as except*, on any interpreter
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE)
    assert match is not None
    oldest = (3, int(match.group(1)))
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)


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
