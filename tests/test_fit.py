import math

import pytest

from pretzeltab.fit import fit_growth, fit_points


class TestFitPoints:
    def test_exact_exponential_recovered(self):
        points = [(c, 2 ** c) for c in range(5, 20)]
        result = fit_points(points)
        assert result.r2 == pytest.approx(1.0, abs=1e-12)
        assert result.b == pytest.approx(math.log(2), abs=1e-12)
        assert result.a == pytest.approx(1.0, rel=1e-9)
        assert (result.c_min, result.c_max, result.n_points) == (5, 19, 15)

    def test_zero_counts_are_dropped(self):
        points = [(1, 0), (2, 0)] + [(c, 3 ** c) for c in range(3, 10)]
        result = fit_points(points)
        assert result.c_min == 3
        assert result.n_points == 7
        assert result.b == pytest.approx(math.log(3), abs=1e-12)

    def test_needs_three_usable_points(self):
        with pytest.raises(ValueError):
            fit_points([(1, 2), (2, 4)])
        with pytest.raises(ValueError):
            fit_points([(1, 0), (2, 0), (3, 0), (4, 5)])

    def test_needs_two_distinct_crossing_numbers(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_points([(10, 5), (10, 6), (10, 7)])
        with pytest.raises(ValueError, match="distinct"):
            fit_points([(10, 5), (10, 6), (10, 7), (11, 0)])  # the zero count is dropped
        result = fit_points([(10, 5), (10, 6), (11, 7)])
        assert result.n_points == 3 and (result.c_min, result.c_max) == (10, 11)

    def test_equal_counts_give_a_flat_exact_fit(self):
        result = fit_points([(1, 5), (2, 5), (3, 5)])
        assert result.b == 0
        assert result.r2 == 1.0
        assert result.a == pytest.approx(5.0)


class TestFitGrowth:
    def test_full_range_matches_expected_growth(self):
        result = fit_growth(6, 50)
        assert 0.578 <= result.b <= 0.598
        assert abs(result.a - 0.0775) <= 0.2 * 0.0775
        assert result.r2 >= 0.995
        assert (result.c_min, result.c_max) == (6, 50)

    def test_three_point_fit_runs(self):
        result = fit_growth(6, 8)
        assert result.n_points == 3
        assert result.c_min == 6 and result.c_max == 8

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            fit_growth(10, 10)
        with pytest.raises(ValueError):
            fit_growth(1, 5)  # every count in range is zero
