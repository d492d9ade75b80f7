import pytest
from hypothesis import settings

from distlap import enumerate_connected

# every run draws the same examples, so tier-1 stays deterministic and fast
settings.register_profile("distlap", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("distlap")


@pytest.fixture(scope="session")
def corpus():
    """Connected graphs by order, 1..6; order 7 is exercised where a test
    really needs it to keep the default run quick."""
    return {n: list(enumerate_connected(n)) for n in range(1, 7)}
