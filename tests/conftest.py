import functools
import os

import pytest
from hypothesis import HealthCheck, settings

from gridthresh import GridSpec, enumerate_by_lines, sieve

# deterministic property tests: derandomized profile, no deadline flakiness
settings.register_profile(
    "ci", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# seed for the explicitly randomized (non-hypothesis) checks; fixed by
# default, overridable for exploratory runs
RANDOM_SEED = int(os.environ.get("GRIDTHRESH_TEST_SEED", "24242"))


@pytest.fixture(scope="session")
def tables512():
    return sieve(512)


@pytest.fixture(scope="session")
def tables4096():
    return sieve(4096)


@pytest.fixture(scope="session")
def tables10m():
    return sieve(10**7)


@pytest.fixture(scope="session")
def universe():
    """universe(m, n): the line oracle's enumeration of the grid, built once per test run."""
    return functools.cache(lambda m, n: enumerate_by_lines(GridSpec(m, n)))
