import pytest

from pretzeltab.combinat import DEFAULT_ENUM_CEILING, MAX_C, ResourceLimitError, exact_div, totient
from pretzeltab.counts import columns, count_rows
from pretzeltab.necklaces import POINT_MAX_C, binom, composition_count, point_columns, type3_params
from pretzeltab.tcodes import TCode, canonicalize, enumerate_classes
from pretzeltab.walk import class_counts

from brute import compositions


def brute_totient(d):
    from math import gcd
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


class TestTotient:
    def test_examples(self):
        assert totient(1) == 1
        assert totient(6) == 2
        assert totient(7) == 6

    def test_matches_brute_force(self):
        for d in range(1, 201):
            assert totient(d) == brute_totient(d)

    def test_divisor_sum_identity(self):
        # sum of totient(d) over d | m recovers m
        for m in range(1, 201):
            assert sum(totient(d) for d in range(1, m + 1) if m % d == 0) == m

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            totient(0)


class TestExactDiv:
    def test_names_the_remainder_of_a_huge_dividend(self):
        # the dividend has more digits than str() converts: still ArithmeticError
        with pytest.raises(ArithmeticError) as excinfo:
            exact_div(10**5000 + 1, 2, "x")
        assert str(excinfo.value) == "x: remainder 1 on division by 2"


# Each public entry point that takes a crossing number, called at c, and the
# limit on c there: its value and where it is set.
CROSSING_ENTRY_POINTS = {
    "columns": (columns, MAX_C, "combinat.MAX_C"),
    "count_rows": (lambda c: count_rows(min(c, 6), max(c, 6)), MAX_C, "combinat.MAX_C"),
    "point_columns": (point_columns, POINT_MAX_C, "necklaces.POINT_MAX_C"),
    "type3_params": (type3_params, POINT_MAX_C, "necklaces.POINT_MAX_C"),
    "enumerate_classes": (lambda c: enumerate_classes(c, 3), DEFAULT_ENUM_CEILING,
                          "raise it with --ceiling"),
    "class_counts": (class_counts, DEFAULT_ENUM_CEILING, "raise it with --ceiling"),
}


class TestCheckC:
    @pytest.mark.parametrize("c", [0, -1])
    @pytest.mark.parametrize("entry", CROSSING_ENTRY_POINTS)
    def test_every_entry_point_refuses_with_one_message(self, entry, c):
        with pytest.raises(ValueError) as excinfo:
            CROSSING_ENTRY_POINTS[entry][0](c)
        assert str(excinfo.value) == f"crossing number must be positive, got {c}"

    @pytest.mark.parametrize("entry", CROSSING_ENTRY_POINTS)
    def test_every_entry_point_refuses_above_its_limit(self, entry):
        call, limit, name = CROSSING_ENTRY_POINTS[entry]
        with pytest.raises(ResourceLimitError) as excinfo:
            call(limit + 1)
        assert str(excinfo.value).endswith(
            f" {limit + 1} crossings exceeds the limit of {limit} ({name})")

    def test_canonicalize_refuses_above_max_c(self):
        # three strips of 3 and MAX_C - 8 horizontal twists: one crossing over
        with pytest.raises(ResourceLimitError) as excinfo:
            canonicalize(TCode(1, MAX_C - 8, (3, 3, 3)))
        assert str(excinfo.value) == (
            f"a code of {MAX_C + 1} crossings exceeds the limit of {MAX_C} (combinat.MAX_C)")


class TestBinom:
    def test_examples(self):
        assert binom(6, 2) == 15
        assert binom(0, 1) == 0
        assert binom(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom(-1, 0) == 0
        assert binom(5, -2) == 0
        assert binom(3, 4) == 0
        assert binom(-3, -3) == 0

    def test_matches_pascal_triangle(self):
        tri = pascal_triangle(60)
        for a in range(61):
            for b in range(a + 1):
                assert binom(a, b) == tri[a][b]

    def test_pascal_recurrence_with_conventions(self):
        # the recurrence needs a >= 1; at (0, 0) the conventions fix the value directly
        for a in range(1, 61):
            for b in range(a + 1):
                assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)
        assert binom(0, 0) == 1

    def test_hockey_stick_identity(self):
        # sum of C(i, k) for k <= i <= n telescopes to C(n+1, k+1)
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert sum(binom(i, k) for i in range(k, n + 1)) == binom(n + 1, k + 1)

    def test_weighted_hockey_stick_identity(self):
        # sum of j * C(n-j, k) for 1 <= j <= n-k equals C(n+1, k+2)
        for n in range(1, 41):
            for k in range(1, n + 1):
                lhs = sum(j * binom(n - j, k) for j in range(1, n - k + 1))
                assert lhs == binom(n + 1, k + 2)


class TestCompositionCount:
    def test_examples(self):
        assert composition_count(0, 0) == 1
        assert composition_count(3, 0) == 0
        assert composition_count(0, 2) == 0
        assert composition_count(7, 3) == 15


class TestCompositions:
    def test_examples(self):
        assert list(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert list(compositions(3, 4)) == []
        assert list(compositions(3, 3)) == [(1, 1, 1)]

    def test_degenerate(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []
        assert list(compositions(0, 2)) == []

    def test_stream_length_is_binomial(self):
        # excludes (0, 0), where the one empty tuple beats binom(-1, -1) = 0
        for n in range(19):
            for k in range(n + 1):
                if (n, k) == (0, 0):
                    continue
                assert sum(1 for _ in compositions(n, k)) == binom(n - 1, k - 1), (n, k)

    def test_stream_length_is_composition_count(self):
        # includes (0, 0): one empty tuple, where binom(-1, -1) = 0
        for n in range(19):
            for k in range(n + 2):
                assert sum(1 for _ in compositions(n, k)) == composition_count(n, k), (n, k)

    def test_each_tuple_once_sorted_and_valid(self):
        for n, k in [(7, 3), (9, 4), (6, 6), (8, 1)]:
            seen = list(compositions(n, k))
            assert len(seen) == len(set(seen))
            assert seen == sorted(seen)
            for t in seen:
                assert len(t) == k
                assert sum(t) == n
                assert all(part >= 1 for part in t)
