import pytest

from pretzeltab.counts import MAX_C, columns
from pretzeltab.necklaces import point_columns


@pytest.fixture(scope="session")
def point_60():
    """The per-point route's p1, p2 and p3 columns for c <= 60, computed once."""
    return point_columns(60)


@pytest.fixture(scope="session")
def columns_max_c():
    """The column route's p1, p2 and p3 columns for c <= MAX_C, computed once."""
    return columns(MAX_C)
