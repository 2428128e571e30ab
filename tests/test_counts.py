import math

import pytest

from pretzeltab import counts, necklaces
from pretzeltab.counts import MAX_C, CountRow, columns, count_row, count_rows
from pretzeltab.necklaces import (
    POINT_MAX_C,
    Type3Params,
    point_columns,
    type3_params,
)
from pretzeltab.tcodes import ResourceLimitError, enumerate_classes

from brute import count_type1_alt
from reference_data import COUNT_TABLE


class TestType3Params:
    def test_empty_below_six(self):
        for c in range(1, 6):
            assert type3_params(c) == []

    def test_six_crossings(self):
        assert type3_params(6) == [Type3Params(delta=0, n1=2, k1=2, n2=1, k2=1)]

    def test_points_satisfy_invariants_and_are_distinct(self):
        for c in range(1, 31):
            points = type3_params(c)
            assert len(points) == len(set(points))
            assert points == sorted(points, key=lambda p: (p.delta, p.k1, p.n1, p.k2, p.n2))
            for p in points:
                assert p.n1 >= p.k1 >= 0 and p.n2 >= p.k2 >= 0
                assert (p.k1 > 0 or p.n1 == 0) and (p.k2 > 0 or p.n2 == 0)
                assert p.delta + p.k1 + p.n1 + 2 * p.n2 == c
                assert p.delta + p.k1 >= 2 and (p.delta + p.k1) % 2 == 0
                assert p.k1 + p.k2 >= 3


class TestTypeCounters:
    def test_type1_examples(self, point_60):
        p1 = point_60[0]
        assert p1[9] == 1
        assert p1[8] == 0
        assert p1[20] == 47

    def test_type2_examples(self, point_60):
        p2 = point_60[1]
        assert p2[14] == 13
        assert p2[7] == 0
        assert p2[50] == 675174

    def test_type3_examples(self, point_60):
        p3 = point_60[2]
        assert p3[10] == 38
        assert p3[6] == 1
        assert p3[50] == 549639730670

    def test_parity_nulls(self, point_60):
        p1, p2, p3 = point_60
        for c in range(1, 61, 2):
            assert p2[c] == 0, c
        for c in range(1, 9):
            assert p1[c] == 0, c
        for c in range(1, 6):
            assert p2[c] == 0
            assert p3[c] == 0

    def test_counters_match_enumeration_on_small_range(self):
        for c in range(1, 21):
            for link_type in (1, 2, 3):
                assert columns(c)[link_type - 1][c] == len(enumerate_classes(c, link_type)), \
                    (c, link_type)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            point_columns(0)

    def test_refuses_c_above_the_point_limit(self, monkeypatch):
        for counter in (type3_params, count_type1_alt, point_columns):
            with pytest.raises(ResourceLimitError, match="necklaces.POINT_MAX_C"):
                counter(POINT_MAX_C + 1)
        monkeypatch.setattr(necklaces, "POINT_MAX_C", 10)
        assert point_columns(10)[2][10] == 38
        with pytest.raises(ResourceLimitError):
            point_columns(11)


class TestCountRow:
    def test_examples(self):
        assert count_row(10) == CountRow(10, 1, 4, 38, 43, 86)
        assert count_row(5) == CountRow(5, 0, 0, 0, 0, 0)
        assert count_row(26) == CountRow(26, 241, 372, 293479, 294092, 588184)

    def test_row_consistency(self):
        for c in (6, 11, 24, 37):
            row = count_row(c)
            assert row.p == row.p1 + row.p2 + row.p3
            assert row.total == 2 * row.p

    def test_sample_against_count_table(self):
        for c in (6, 7, 12, 19, 30, 44):
            row = count_row(c)
            assert (row.p1, row.p2, row.p3, row.p) == COUNT_TABLE[c]


class TestColumns:
    def test_matches_per_point_route(self):
        assert point_columns(100) == columns(100)

    @pytest.mark.slow
    def test_matches_per_point_route_at_the_point_limit(self):
        # about 20 s: left out of the default run, see pyproject.toml
        assert point_columns(POINT_MAX_C) == columns(POINT_MAX_C)

    def test_type1_matches_per_point_route_up_to_1000(self, monkeypatch):
        monkeypatch.setattr(necklaces, "POINT_MAX_C", 1000)
        p1 = columns(1000)[0]
        for c in (150, 400, 1000):
            assert p1[c] == count_type1_alt(c), c

    def test_type2_counts_binary_bracelets_up_to_2000(self):
        # at c = 2n: the binary bracelets of length n (OEIS A000029), less the
        # empty one and the 1 and n // 2 with one or two ones (k = 1, 2)
        p2 = columns(2000)[1]
        phi = [0] + [sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
                     for d in range(1, 1001)]
        for n in range(1, 1001):
            burnside = sum(phi[d] * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
            burnside += n * 2 ** ((n + 1) // 2) if n % 2 else 3 * n * 2 ** (n // 2 - 1)
            assert burnside % (2 * n) == 0, n
            assert p2[2 * n] == burnside // (2 * n) - 2 - n // 2, n
            assert p2[2 * n - 1] == 0, n

    def test_zero_below_six(self):
        assert columns(5) == ([0] * 6, [0] * 6, [0] * 6)

    def test_rejects_non_positive_max(self):
        for max_c in (0, -1, -7):
            with pytest.raises(ValueError):
                columns(max_c)

    def test_rows_read_a_longer_column(self):
        p1, p2, p3 = columns(40)
        for c in (6, 17, 33):
            p = p1[c] + p2[c] + p3[c]
            assert count_row(c) == CountRow(c, p1[c], p2[c], p3[c], p, 2 * p)
        assert count_rows(30, 40)[3] == count_row(33)

    def test_rows_reject_a_reversed_range(self):
        with pytest.raises(ValueError):
            count_rows(9, 6)
        assert len(count_rows(9, 9)) == 1

    def test_refuses_max_c_above_the_limit(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            columns(MAX_C + 1)
        monkeypatch.setattr(counts, "MAX_C", 50)
        assert columns(50)[2][50] == COUNT_TABLE[50][2]
        with pytest.raises(ResourceLimitError):
            columns(51)
