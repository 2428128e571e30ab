import hashlib
import json
import math
from decimal import Decimal, localcontext

import pytest

from pretzeltab import counts, necklaces
from pretzeltab.combinat import ResourceLimitError
from pretzeltab.counts import MAX_C, CountRow, columns, count_row, count_rows
from pretzeltab.necklaces import (
    POINT_MAX_C,
    Type3Params,
    point_columns,
    type3_params,
)
from pretzeltab.tcodes import enumerate_classes

from brute import count_type1_alt
from helpers import ROOT
from reference_data import COUNT_TABLE


# Each root in (0, 1) of a cubic r^3 + a r^2 - 1, as (a, a float guess); the
# singularity of a column's series that sets its growth (F&S, Ch. V-VI)
RHO = (3, 1 / (2 * math.cos(math.pi / 9)))  # type 3 and the total: 1/rho = 2 cos(pi/9)
SIGMA = (1, 0.7548776662466927)  # type 1: 1/sigma is the plastic number


def cyclic_form(c, r):
    """r^-c sum_{j<c} r^j / (c - j): [x^c] of log 1/(1 - x/r), summed by 1/(1 - x)."""
    total, power = Decimal(0), Decimal(1)
    for j in range(c):
        total += power / (c - j)
        power *= r
    return total / r ** c


def log_gap(p, c, form, root=None):
    """|ln p - ln form(c, r)| at 60 digits, where r is the root of the cubic
    that root names, refined from its guess by Newton's method (16 digits,
    then 32, 64 and 128), or None for a form that needs no root."""
    with localcontext() as ctx:
        ctx.prec = 60
        r = None
        if root is not None:
            a, guess = root
            r = Decimal(guess)
            for _ in range(3):
                r -= (r ** 3 + a * r ** 2 - 1) / (3 * r ** 2 + 2 * a * r)
        return abs(Decimal(p).ln() - form(c, r).ln())


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

    def test_counters_match_enumeration_on_small_range(self):
        for c in range(1, 21):
            for link_type in (1, 2, 3):
                assert columns(c)[link_type - 1][c] == len(enumerate_classes(c, link_type)), \
                    (c, link_type)

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

    def test_total_follows_its_asymptotic_form_up_to_max_c(self, columns_max_c):
        # an independent check of p = p1 + p2 + p3 where no other route reaches:
        # by c = 1,000 the only gap left is the 60-digit rounding
        p1, p2, p3 = columns_max_c
        bounds = {150: "1e-12", 200: "1e-17", 1000: "1e-40", 5000: "1e-40", MAX_C: "1e-40"}
        for c, bound in bounds.items():
            assert log_gap(p1[c] + p2[c] + p3[c], c, lambda c, rho: cyclic_form(c, rho) / 4,
                           RHO) < Decimal(bound), c

    def test_types_1_and_2_follow_their_asymptotic_forms_up_to_max_c(self, columns_max_c):
        # p1 and p2 are below 1e-120 of p from c = 1,000, so the total's check
        # cannot see them.  Type 1: 1 - Q = (1 - x^2 - x^3)/(1 - x^2), summed by
        # 1/(1 - x).  Type 2: 1 - N = (1 - 2x^2)/(1 - x^2), so half the cyclic
        # count, 2^(c/2)/c at even c, and none at odd c.  The next singularities
        # leave gaps of about 0.87^c and c 0.84^c; from c = 1,000 only the
        # 60-digit rounding is left
        p1, p2, _ = columns_max_c
        bounds = {150: ("2e-9", "1e-9"), 200: ("2e-12", "5e-13"), 1000: ("1e-40", "1e-40"),
                  1001: ("1e-40", None), 5000: ("1e-40", "1e-40"), MAX_C: ("1e-40", "1e-40")}
        for c, (bound1, bound2) in bounds.items():
            assert log_gap(p1[c], c, cyclic_form, SIGMA) < Decimal(bound1), c
            if bound2 is None:
                assert p2[c] == 0, c
            else:
                assert log_gap(p2[c], c, lambda c, _: Decimal(2) ** (c // 2) / c) < \
                    Decimal(bound2), c

    def test_digest_up_to_2000(self):
        # the decimal text of all three columns, as the column route gave it
        # before it computed each series once
        text = "\n".join(",".join(map(str, column)) for column in columns(2000))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "343c0affd4d55a535bd15c4ce6e6501911e77dd12d995ad21d014ef34fc2973b")

    def test_matches_the_benchmarks_frozen_rows(self):
        # perfbench/run.py checks each command's output against these rows, the
        # ones that reference_data.COUNT_TABLE does not hold: verify's c = 1..5,
        # table's 51..80 and point's 139..141
        rows = json.loads((ROOT / "perfbench" / "frozen.json").read_text())["rows"]
        assert sorted(map(int, rows)) == [*range(1, 6), *range(51, 81), 139, 140, 141]
        p1, p2, p3 = columns(141)
        for c, row in rows.items():
            c = int(c)
            assert [p1[c], p2[c], p3[c]] == row, c

    def test_zero_below_six(self):
        assert columns(5) == ([0] * 6, [0] * 6, [0] * 6)

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
