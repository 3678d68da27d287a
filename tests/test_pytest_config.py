"""The suite's pytest configuration reports a failing property and goes on.

``pyproject.toml`` makes every warning an error.  When hypothesis reports
a falsifying example, its pytest plugin triggers a ``DeprecationWarning``
from ``mypy_extensions``; as an error, that aborted the whole session with
INTERNALERROR and hid every test after the first failing property.  This
runs one failing property in a sub-session under the project's own
configuration.
"""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_is_reported_and_the_session_goes_on(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    path = pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_after():
            pass
        """
    )
    result = pytester.runpytest(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
