"""The package's public surface: every exported name resolves, one version."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kendallcodes
from kendallcodes import certifier, checker, mahonian, numtheory, table

ROOT = Path(__file__).resolve().parents[1]

# a one-shot certify in a bare interpreter (-S: no site imports), then what
# it left unloaded, then the lazy oracle export
COLD_CERTIFY = """
import contextlib, io, sys
from kendallcodes import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["certify", "--n", "13", "--t", "3"])
print(
    code,
    "dataclasses" in sys.modules,
    "kendallcodes.oracle" in sys.modules,
    "argparse" in sys.modules,
    "kendallcodes.checker" in sys.modules,
    "kendallcodes.table" in sys.modules,
)
import kendallcodes
print(kendallcodes.search_perfect_code.__module__, "kendallcodes.oracle" in sys.modules)
"""

# a one-shot certify, then whether the checker was loaded and how many
# compiled patterns the package's modules hold, before and after one record
# is parsed
COLD_CERTIFY_PATTERN = """
import contextlib, io, re, sys
import kendallcodes
from kendallcodes import cli
def compiled():
    modules = [m for name, m in sys.modules.items() if name.startswith("kendallcodes")]
    patterns = [v for m in modules for v in vars(m).values() if isinstance(v, re.Pattern)]
    return "kendallcodes.checker" in sys.modules, len(patterns)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["certify", "--n", "13", "--t", "3"])
print(code, *compiled())
kendallcodes.parse_certificate(out.getvalue())
print(*compiled())
"""

# a one-shot command from argv, then whether it imported argparse, the
# checker and the table module
COLD_COMMAND = """
import contextlib, io, sys
from kendallcodes import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(
    code,
    "argparse" in sys.modules,
    "kendallcodes.checker" in sys.modules,
    "kendallcodes.table" in sys.modules,
)
"""

# every name read through a module __getattr__, with the module that defines
# it: the eight that the benchmark reads at an old home, then the package's
# lazy exports (its eager ones are bound at import)
FORWARDED = {
    "kendallcodes.certifier": {
        "check_certificate": "kendallcodes.checker",
        "parse_certificate": "kendallcodes.checker",
        "parse_factorization": "kendallcodes.checker",
        "ball_closed_form": "kendallcodes.table",
        "ball_size": "kendallcodes.table",
        "build_table": "kendallcodes.table",
    },
    "kendallcodes.mahonian": {
        "ball_closed_form": "kendallcodes.table",
        "ball_size": "kendallcodes.table",
        "build_table": "kendallcodes.table",
    },
    "kendallcodes": {
        name: f"kendallcodes.{home}" for name, home in kendallcodes._LAZY_HOMES.items()
    },
}

ORACLE_EXPORTS = [
    "CodeSearchResult",
    "ball_census",
    "inversion_histogram",
    "kendall_distance",
    "search_perfect_code",
    "verify_min_distance",
]

# in a fresh interpreter: the package's exports bound at import, whether
# dir() lists every export, then whether any lazy module was loaded
COLD_PACKAGE = """
import json, sys
import kendallcodes
unbound = [name for name in kendallcodes.__all__ if name not in vars(kendallcodes)]
listed = dir(kendallcodes)
print(json.dumps(unbound))
print(json.dumps([name for name in kendallcodes.__all__ if name not in listed]))
print(json.dumps([m for m in ("checker", "table", "oracle") if "kendallcodes." + m in sys.modules]))
"""

# star-imports of the two modules that forward names, then whether either
# lazy module was loaded
COLD_STAR_IMPORTS = """
import sys
from kendallcodes.certifier import *
from kendallcodes.mahonian import *
print("kendallcodes.checker" in sys.modules, "kendallcodes.table" in sys.modules)
"""

# in a fresh interpreter: each forwarded name is unbound before its first
# read and bound after it, to the object its home module holds; a moved
# class or function names the module it moved to
COLD_FORWARDING = """
import importlib, json, sys
wrong = []
for where, names in json.loads(sys.argv[1]).items():
    module = importlib.import_module(where)
    for name, home in names.items():
        before = name in vars(module)
        value = getattr(module, name)
        if before or vars(module).get(name) is not value:
            wrong.append([where, name])
        elif getattr(importlib.import_module(home), name) is not value:
            wrong.append([where, name, home])
        elif where != "kendallcodes" and getattr(value, "__module__", home) != home:
            wrong.append([where, name, value.__module__])
print(json.dumps(wrong))
"""


def run_cold(script, *argv):
    """stdout of ``script`` run with ``argv`` in a bare interpreter (-S) on src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from kendallcodes import *", namespace)
    assert [name for name in kendallcodes.__all__ if name not in namespace] == []
    assert len(set(kendallcodes.__all__)) == len(kendallcodes.__all__)


@pytest.mark.parametrize(
    "module",
    [certifier, mahonian, numtheory, checker, table],
    ids=["certifier", "mahonian", "numtheory", "checker", "table"],
)
def test_star_import_binds_exactly_the_module_surface(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)


def test_tracer_only_imports_stay_out_of_the_certifier_surface():
    # perfbench's tracer wraps these at certifier, so they must still resolve there
    tracer_only = [
        "factorial",
        "ball_size",
        "build_table",
        "ball_closed_form",
        "divides_factorial",
        "factorial_valuation",
    ]
    assert all(hasattr(certifier, name) for name in tracer_only)
    assert [name for name in tracer_only if name in certifier.__all__] == []


def test_package_surface_is_the_module_surfaces_in_order():
    assert kendallcodes.__all__ == [
        *certifier.__all__,
        *mahonian.__all__,
        *numtheory.__all__,
        *kendallcodes._LAZY_HOMES,
    ]
    assert len(set(kendallcodes.__all__)) == len(kendallcodes.__all__)


def test_lazy_exports_are_the_surfaces_of_the_lazy_modules():
    assert kendallcodes._LAZY_HOMES == {
        **dict.fromkeys(checker.__all__, "checker"),
        **dict.fromkeys(table.__all__, "table"),
        **dict.fromkeys(ORACLE_EXPORTS, "oracle"),
    }


def test_dir_lists_every_export_and_loads_no_lazy_module():
    unbound, unlisted, loaded = map(json.loads, run_cold(COLD_PACKAGE).splitlines())
    assert unbound == list(kendallcodes._LAZY_HOMES)
    assert unlisted == []
    assert loaded == []


def test_star_imports_of_the_forwarding_modules_load_no_lazy_module():
    assert run_cold(COLD_STAR_IMPORTS) == "False False\n"


def test_certify_loads_neither_dataclasses_nor_the_oracle():
    assert run_cold(COLD_CERTIFY).splitlines() == [
        "0 False False False False False",
        "kendallcodes.oracle True",
    ]


def test_certify_never_compiles_the_record_pattern():
    # both record grammars are the checker's constants, which parsing the
    # first record loads
    assert run_cold(COLD_CERTIFY_PATTERN).splitlines() == ["0 False 0", "True 2"]


def test_only_the_checker_imports_re():
    # certifier writes the record text and checker reads it; numtheory is
    # arithmetic only, and loads no number kernel (such as decimal) beyond
    # the ones it uses
    imports = {}
    for path in sorted((ROOT / "src" / "kendallcodes").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
        imports[path.stem] = names
    assert [stem for stem, names in imports.items() if "re" in names] == ["checker"]
    assert imports["numtheory"] & {"re", "functools", "typing"} == set()
    assert imports["numtheory"] <= {"__future__", "math", "operator", "bisect", "itertools"}
    assert "functools" not in imports["checker"]


def test_one_shot_commands_import_argparse_only_when_the_table_reader_declines():
    cases = [
        (("scan", "--t", "3", "--from", "4", "--to", "6"), False),
        (("scan", "--format", "tsv", "--t", "3", "--from", "4", "--to", "6"), False),
        (("ball", "--n", "13", "--r", "3"), False),
        (("sphere", "--n", "13", "--i", "3"), False),
        (("table", "--max-n", "4"), False),
        (("table", "--max-r", "2", "--max-n", "4"), False),
        # argparse still reads what the table reader leaves to it
        (("certify", "--n=13", "--t=3"), True),
        (("ball", "--n", "+13", "--r", "3"), True),
    ]
    seen = [(argv, run_cold(COLD_COMMAND, *argv).split()[:2]) for argv, _ in cases]
    assert seen == [(argv, ["0", str(imports)]) for argv, imports in cases]


def test_one_shot_commands_load_the_table_module_only_for_table_and_verify():
    # (argv, checker loaded, table loaded); no command reads a record back
    cases = [
        (("certify", "--n", "13", "--t", "3"), False, False),
        (("certify", "--format", "tsv", "--n", "13", "--t", "3"), False, False),
        (("scan", "--t", "3", "--from", "4", "--to", "6"), False, False),
        (("ball", "--n", "13", "--r", "3"), False, False),
        (("sphere", "--n", "13", "--i", "3"), False, False),
        (("table", "--max-n", "4"), False, True),
        (("verify", "--n", "4"), False, True),
        # the pretty form names the closed form's factors, which the table states
        (("certify", "--format", "pretty", "--n", "13", "--t", "3"), False, True),
    ]
    seen = [(argv, run_cold(COLD_COMMAND, *argv).split()[2:]) for argv, _, _ in cases]
    assert seen == [(argv, [str(checks), str(tables)]) for argv, checks, tables in cases]


def test_forwarded_names_are_bound_on_first_read_to_their_home_object():
    assert run_cold(COLD_FORWARDING, json.dumps(FORWARDED)) == "[]\n"


def test_unknown_attribute_is_an_attribute_error():
    # the three modules that forward names must not forward unknown ones
    for module in (kendallcodes, certifier, mahonian):
        for name in ("no_such_export", "_telescoped", "checker_module", "__wrapped__"):
            with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
                getattr(module, name)


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
