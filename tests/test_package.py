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
