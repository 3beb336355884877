import pytest

from access_oracle import recording


@pytest.fixture
def recorded():
    """Log and check every memory access of the machines the test builds."""
    with recording():
        yield
