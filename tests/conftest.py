import pytest

from pretzeltab.necklaces import point_columns


@pytest.fixture(scope="session")
def point_60():
    """The per-point route's p1, p2 and p3 columns for c <= 60, computed once."""
    return point_columns(60)
