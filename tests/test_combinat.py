import pytest

from pretzeltab.combinat import DEFAULT_ENUM_CEILING, MAX_C, ResourceLimitError, exact_div, totient
from pretzeltab.counts import columns, count_rows
from pretzeltab.necklaces import POINT_MAX_C, point_columns, type3_params
from pretzeltab.tcodes import TCode, canonicalize, enumerate_classes
from pretzeltab.walk import class_counts


def brute_totient(d):
    from math import gcd
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


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

    @pytest.mark.parametrize("c", [5.0, True])
    @pytest.mark.parametrize("entry", CROSSING_ENTRY_POINTS)
    def test_every_entry_point_refuses_what_is_not_an_int(self, entry, c):
        with pytest.raises(ValueError) as excinfo:
            CROSSING_ENTRY_POINTS[entry][0](c)
        assert str(excinfo.value) == f"crossing number must be an int, got {c!r}"

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
