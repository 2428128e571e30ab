"""Exponential growth fit p(c) ~ a * exp(b * c) for the link counts."""
import math
import statistics
from typing import Iterable, NamedTuple, Sequence

from .counts import count_rows


class FitResult(NamedTuple):
    """Least-squares fit of ln p against c over rows with p > 0."""

    a: float
    b: float
    r2: float
    c_min: int
    c_max: int
    n_points: int


def fit_points(points: Iterable[tuple[int, int]]) -> FitResult:
    """Ordinary least squares of ln(count) on c over (c, count) pairs.

    Pairs with count <= 0 are dropped; at least 3 usable pairs, at 2 or more
    distinct crossing numbers, are required.  Counts convert to logs at full
    integer precision.
    """
    usable: Sequence[tuple[int, int]] = sorted((c, p) for c, p in points if p > 0)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 crossing numbers with positive counts, got {len(usable)}")
    distinct = len({c for c, _ in usable})
    if distinct < 2:
        raise ValueError(f"need at least 2 distinct crossing numbers for a slope, got {distinct}")
    xs = [c for c, _ in usable]
    ys = [math.log(p) for _, p in usable]
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = 1.0 if len(set(ys)) == 1 else statistics.correlation(xs, ys) ** 2
    return FitResult(a=math.exp(intercept), b=slope, r2=r2,
                     c_min=xs[0], c_max=xs[-1], n_points=len(xs))


def fit_growth(min_c: int = 6, max_c: int = 50) -> FitResult:
    """Fit the mirror-pair count p(c) over min_c <= c <= max_c."""
    return fit_points((row.c, row.p) for row in count_rows(min_c, max_c))
