"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import time
from contextlib import contextmanager

from pretzeltab import cli
from pretzeltab.counts import columns, count_row
from pretzeltab.fit import fit_growth
from pretzeltab.necklaces import (
    Type3Params,
    bracelet_count,
    necklace_count,
    point_columns,
    signed_bracelet_count,
    type3_params,
)
from pretzeltab.tcodes import TCode, canonicalize, enumerate_classes

from brute import composition_class_count, count_type1_alt
from reference_data import COUNT_TABLE, SIGNED_BRACELET_10, TYPE3_CLASSES_10, TYPE3_PARAMS_10


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {summary}")
        raise
    print(f"criterion {number:2d}: PASS - {summary}")


def test_criterion_01_full_table_reproduction(capsys):
    with criterion(1, "table 6..50 matches all four count columns, under 0.5 s"):
        start = time.perf_counter()
        assert cli.main(["table", "--min", "6", "--max", "50", "--format", "csv"]) == 0
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "c,p1,p2,p3,p,total"
        assert len(lines) == 1 + 45
        for line in lines[1:]:
            c, p1, p2, p3, p, total = (int(x) for x in line.split(","))
            assert (p1, p2, p3, p) == COUNT_TABLE[c], f"row c={c}"
            assert total == 2 * p
        assert elapsed < 0.5, f"table took {elapsed:.2f}s"


def test_criterion_02_worked_examples(point_60):
    with criterion(2, "closed formulas give 13 type 2 links at c=14 and 38 type 3 at c=10"):
        assert point_60[1][14] == 13
        assert point_60[2][10] == 38


def test_criterion_03_parameter_set_at_ten_crossings():
    with criterion(3, "the 23 type 3 parameter points at c=10 match the worked set"):
        points = type3_params(10)
        assert len(points) == 23
        assert set(points) == {Type3Params(*q) for q in TYPE3_PARAMS_10}


def test_criterion_04_signed_bracelet_spot_checks():
    with criterion(4, "all 23 signed bracelet values at c=10 reproduced exactly"):
        for (n1, k1, n2, k2), expected in SIGNED_BRACELET_10:
            assert signed_bracelet_count(n1, k1, n2, k2) == expected, (n1, k1, n2, k2)


def test_criterion_05_formulas_match_enumeration(capsys):
    with criterion(5, "closed forms equal exhaustive class counts for c<=16; verify exits 0; under 5 s"):
        start = time.perf_counter()
        for c in range(1, 17):
            for link_type in (1, 2, 3):
                formula = columns(c)[link_type - 1][c]
                enumerated = len(enumerate_classes(c, link_type))
                assert formula == enumerated, (c, link_type, formula, enumerated)
        assert cli.main(["verify", "--max", "16"]) == 0
        capsys.readouterr()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"verification took {elapsed:.2f}s"


def test_criterion_06_ground_truth_listing():
    with criterion(6, "enumerated type 3 classes at c=10 equal the 38 known representatives"):
        enumerated = set(enumerate_classes(10, 3))
        known = {canonicalize(TCode(3, delta, strips)) for delta, strips in TYPE3_CLASSES_10}
        assert len(known) == 38
        assert enumerated == known


def test_criterion_07_dual_path_type1(point_60):
    with criterion(7, "both type 1 evaluation routes agree for 6 <= c <= 60"):
        for c in range(6, 61):
            assert point_60[0][c] == count_type1_alt(c), c


def test_criterion_08_micro_oracle_and_integrality():
    with criterion(8, "necklace/bracelet formulas match brute force for n<=14; "
                      "exactness checks hold there and on all parameter points for c<=30"):
        for n in range(1, 15):
            for k in range(1, n + 1):
                assert necklace_count(n, k) == composition_class_count(n, k), (n, k)
                assert bracelet_count(n, k) == composition_class_count(n, k, dihedral=True), (n, k)
        # evaluating exercises every internal exact-division assertion; the
        # values summed at each c are the paper's type 3 count
        p3 = point_columns(30)[2]
        for c in range(1, 31):
            assert sum(signed_bracelet_count(p.n1, p.k1, p.n2, p.k2)
                       for p in type3_params(c)) == p3[c], c


def test_criterion_09_growth_fit():
    with criterion(9, "growth fit lands at b in [0.578, 0.598], a within 20% of 0.0775, r2 >= 0.995"):
        result = fit_growth(6, 50)
        assert 0.578 <= result.b <= 0.598, result
        assert abs(result.a - 0.0775) <= 0.2 * 0.0775, result
        assert result.r2 >= 0.995, result


def test_criterion_10_parity_nulls(point_60):
    with criterion(10, "type 2 vanishes at odd c, type 1 below 9, everything below 6"):
        p1, p2, _ = point_60
        for c in range(1, 61, 2):
            assert p2[c] == 0, c
        for c in range(1, 9):
            assert p1[c] == 0, c
        for c in range(1, 6):
            row = count_row(c)
            assert (row.p1, row.p2, row.p3, row.p, row.total) == (0, 0, 0, 0, 0), c
