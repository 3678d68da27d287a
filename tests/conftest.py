import pytest

from kendallcodes import build_table

# the pytester fixture runs sub-sessions for tests of the suite's own configuration
pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def table150():
    """One shared recurrence table; large enough for every cross-check here."""
    return build_table(150)


@pytest.fixture(scope="session")
def table60():
    return build_table(60)
