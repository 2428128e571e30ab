import pytest

from pretzeltab.combinat import DEFAULT_ENUM_CEILING, MAX_C, ResourceLimitError, exact_div, totient
from pretzeltab.counts import columns, count_rows
from pretzeltab.necklaces import (
    POINT_MAX_C,
    bracelet_count,
    necklace_count,
    point_columns,
    signed_bracelet_count,
    type3_params,
)
from pretzeltab.tcodes import TCode, canonicalize, class_strips, enumerate_classes
from pretzeltab.walk import class_counts

import brute


class TestTotient:
    def test_matches_brute_force(self):
        for d in range(1, 201):
            assert totient(d) == brute.totient(d)

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
    "count_rows_max_c": (lambda c: count_rows(1, c), MAX_C, "combinat.MAX_C"),
    "point_columns": (point_columns, POINT_MAX_C, "necklaces.POINT_MAX_C"),
    "type3_params": (type3_params, POINT_MAX_C, "necklaces.POINT_MAX_C"),
    "enumerate_classes": (lambda c: enumerate_classes(c, 3), DEFAULT_ENUM_CEILING,
                          "raise it with --ceiling"),
    "class_counts": (class_counts, DEFAULT_ENUM_CEILING, "raise it with --ceiling"),
}


class TestCheckC:
    @pytest.mark.parametrize("c", [0, -1, -7])
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


def first_class(*args):
    """class_strips refuses when its first class is asked for."""
    return next(class_strips(*args))


# Each library refusal of an argument other than the crossing number, by the
# call that makes it: the function, its arguments and the ValueError's message.
ORACLE = {"class_counts": (class_counts, (9,)), "enumerate_classes": (enumerate_classes, (9, 3)),
          "class_strips": (first_class, (9, 3))}
PER_POINT = {"necklace_count": (necklace_count, (7, 3)), "bracelet_count": (bracelet_count, (7, 3)),
             "signed_bracelet_count": (signed_bracelet_count, (4, 2, 2, 2))}
LIBRARY_REFUSALS = {f"{name}{args}": (call, args, message) for name, call, args, message in [
    *[(name, call, (*args, ceiling), f"the enumeration ceiling must be positive, got {ceiling}")
      for ceiling in (0, -2) for name, (call, args) in ORACLE.items()],
    *[(name, call, (*args, ceiling), f"the enumeration ceiling must be an int, got {ceiling!r}")
      for ceiling in (9.0, True, None) for name, (call, args) in ORACLE.items()],
    *[(name, ORACLE[name][0], (9, link_type), f"link type must be 1, 2 or 3, got {link_type}")
      for link_type in (0, 4, True, 3.0) for name in ("enumerate_classes", "class_strips")],
    *[(name, call, args[:at] + (bad,) + args[at + 1:],
       f"the per-point counters take int arguments, got {bad!r}")
      for name, (call, args) in PER_POINT.items()
      for at in range(len(args)) for bad in (float(args[at]), True)],
]}


class TestLibraryRefusals:
    @pytest.mark.parametrize("cell", LIBRARY_REFUSALS)
    def test_refuses_with_its_message(self, cell):
        call, args, message = LIBRARY_REFUSALS[cell]
        with pytest.raises(ValueError) as excinfo:
            call(*args)
        assert (excinfo.type, str(excinfo.value)) == (ValueError, message)
