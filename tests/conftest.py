import pytest
from hypothesis import settings

from vfvacuum import cli, dirac
from vfvacuum import constants as constants_module
from vfvacuum.constants import load_constants

# The same few examples on every run, with no wall-clock deadline and no
# example database, so that property tests are repeatable and tier-1 stays a
# few seconds.
settings.register_profile(
    "repeatable", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def clear_memos():
    """Start each test with empty memos: a test that patches a pipeline
    function must see it run, not an output kept from an earlier test."""
    cli._output.cache_clear()
    constants_module._parse_pinned.cache_clear()
    dirac._seed_independent.cache_clear()


@pytest.fixture(scope="session")
def constants():
    return load_constants()


@pytest.fixture(scope="session")
def electron(constants):
    return constants.lepton("electron")


@pytest.fixture(scope="session")
def muon(constants):
    return constants.lepton("muon")


@pytest.fixture(scope="session")
def tau(constants):
    return constants.lepton("tau")
