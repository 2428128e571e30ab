import math
from itertools import chain

import pytest

from pretzeltab.necklaces import (
    MAX_ANSWER_BITS,
    MAX_GCD,
    _binom_bits,
    _reflection_sum,
    binom,
    bracelet_count,
    composition_count,
    necklace_count,
    signed_bracelet_count,
)

from brute import (binary_bracelets, composition_class_count, compositions, interleavings,
                   signed_class_count, totient)
from helpers import ROOT, run_python

TESTS = ROOT / "tests"


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


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
        assert binom(-1, -1) == 0

    def test_matches_pascal_triangle(self):
        tri = pascal_triangle(60)
        for a in range(61):
            for b in range(a + 1):
                assert binom(a, b) == tri[a][b]


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


class TestNecklaceCount:
    def test_zero_extension(self):
        assert necklace_count(0, 0) == 0
        assert necklace_count(5, 0) == 0
        assert necklace_count(4, 9) == 0
        assert composition_class_count(0, 0) == 0
        assert composition_class_count(0, 0, dihedral=True) == 0

    def test_matches_brute_force(self):
        for n in range(1, 19):
            for k in range(1, n + 1):
                assert necklace_count(n, k) == composition_class_count(n, k), (n, k)

    def test_cyclic_compositions_up_to_60(self):
        # summed over k, the classes of all compositions of n (OEIS A008965):
        # (1/n) * sum over d | n of phi(d) * (2^(n/d) - 1); their bracelets are
        # the binary bracelets of length n less the empty one
        for n in range(1, 61):
            burnside = sum(totient(d) * (2 ** (n // d) - 1)
                           for d in range(1, n + 1) if n % d == 0)
            assert n * sum(necklace_count(n, k) for k in range(1, n + 1)) == burnside, n
            bracelets = sum(bracelet_count(n, k) for k in range(1, n + 1))
            assert bracelets + 1 == binary_bracelets(n), n
            assert necklace_count(n, n) == bracelet_count(n, n) == 1, n


class TestBraceletCount:
    def test_examples(self):
        assert bracelet_count(7, 3) == 4
        assert bracelet_count(7, 5) == 3
        assert bracelet_count(5, 5) == 1

    def test_zero_extension(self):
        assert bracelet_count(2, 3) == 0
        assert bracelet_count(6, 0) == 0

    def test_matches_brute_force(self):
        for n in range(1, 19):
            for k in range(1, n + 1):
                assert bracelet_count(n, k) == composition_class_count(n, k, dihedral=True), (n, k)


def brute_reflection_average(n1, k1, n2, k2):
    """Independent oracle: mean number of signed tuples fixed per reflection."""
    family = list(interleavings(n1, k1, n2, k2))
    k = k1 + k2
    total = sum(all(t[i] == t[(axis - i) % k] for i in range(k))
                for axis in range(k) for t in family)
    assert total % k == 0
    return total // k


def param_grid(max_k, max_n):
    for k1 in range(1, max_k):
        for k2 in range(1, max_k - k1 + 1):
            for n1 in range(k1, max_n + 1):
                for n2 in range(k2, max_n + 1):
                    yield n1, k1, n2, k2


class TestSignedReflectionSum:
    # _reflection_sum adds up the fixed signed tuples over all k1 + k2 reflections.
    def test_matches_brute_force(self):
        # one family (k2 = 0) for n <= 12, then both families
        one_family = ((n, k, 0, 0) for n in range(1, 13) for k in range(1, n + 1))
        for n1, k1, n2, k2 in chain(one_family, param_grid(max_k=6, max_n=7)):
            assert _reflection_sum(n1, k1, n2, k2) == \
                (k1 + k2) * brute_reflection_average(n1, k1, n2, k2), (n1, k1, n2, k2)


class TestSignedBraceletCount:
    def test_degenerate_cases_reduce_to_one_colour(self):
        for n in range(1, 19):
            for k in range(1, n + 1):
                assert signed_bracelet_count(n, k, 0, 0) == bracelet_count(n, k)
                assert signed_bracelet_count(0, 0, n, k) == bracelet_count(n, k)

    def test_matches_brute_force(self):
        # full sweep of the documented verification range
        for n1, k1, n2, k2 in param_grid(max_k=7, max_n=9):
            assert signed_bracelet_count(n1, k1, n2, k2) == \
                signed_class_count(n1, k1, n2, k2), (n1, k1, n2, k2)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            signed_bracelet_count(1, 2, 0, 0)  # n1 < k1
        with pytest.raises(ValueError):
            signed_bracelet_count(3, 0, 2, 2)  # weight without beads
        with pytest.raises(ValueError):
            signed_bracelet_count(2, 2, 5, 0)


_FAULTS_UNDER_O = f"""
import sys
sys.path.insert(0, {str(TESTS)!r})
from helpers import counts_faults
from pretzeltab import counts, necklaces
assert False, "assert statements must be stripped by -O"
composition_count = necklaces.composition_count
necklaces.composition_count = lambda n, k: composition_count(n, k) + 1

def report(call):
    try:
        call()
    except ArithmeticError as exc:
        print("ArithmeticError:", exc)

report(lambda: necklaces.necklace_count(7, 3))
for name, fault in counts_faults(counts).values():
    kept = getattr(counts, name)
    setattr(counts, name, fault)
    report(lambda: counts.columns(20))
    setattr(counts, name, kept)
"""


def test_exactness_checks_survive_optimize_flag():
    # the necklace counter's check, then each check of counts.columns, each
    # naming its own sum
    result = run_python("-O", "-c", _FAULTS_UNDER_O)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4 and lines[0].startswith("ArithmeticError:"), lines
    for line, check in zip(lines[1:], ["cyclic sum", "dihedral sum", "parity average"]):
        assert line.startswith(f"ArithmeticError: {check}: "), lines


def test_huge_gcd_costs_its_square_root():
    # the rotation sum walks the divisors of gcd = 10**12 up to 10**6 only
    result = run_python("-c", "from pretzeltab.necklaces import bracelet_count, necklace_count;"
                              "print(necklace_count(10**12, 10**12), bracelet_count(10**12, 10**12))",
                        timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 1\n"


_REFUSED = """
from pretzeltab.combinat import ResourceLimitError
from pretzeltab.necklaces import bracelet_count, necklace_count, signed_bracelet_count
for call in ({}):
    try:
        call()
    except ResourceLimitError as exc:
        print(exc)
"""


def test_a_gcd_over_max_gcd_is_refused_before_its_divisor_walk():
    # at 10**24 the walk would take 10**12 steps, and the answer is 1; the
    # first gcd over the limit too, whatever its factors
    calls = ("lambda: necklace_count(10**24, 10**24), lambda: bracelet_count(10**24, 10**24), "
             "lambda: signed_bracelet_count(10**24, 10**24, 0, 0), "
             f"lambda: signed_bracelet_count({2 * (MAX_GCD + 1)}, {MAX_GCD + 1}, {MAX_GCD + 1}, "
             f"{MAX_GCD + 1})")
    result = run_python("-c", _REFUSED.format(calls), timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"the gcd of the arguments exceeds the limit of {MAX_GCD} (necklaces.MAX_GCD)"] * 4


def test_an_answer_over_max_answer_bits_is_refused_before_any_work():
    # just over the limit, far over it (an answer of 10**8 bits takes minutes
    # to compute) and one of more bits than a float holds
    calls = ("lambda: necklace_count(100_003, 50_001), lambda: bracelet_count(100_003, 50_001), "
             "lambda: signed_bracelet_count(10**5, 5 * 10**4, 10**5, 5 * 10**4), "
             "lambda: necklace_count(10**8, 5 * 10**7), lambda: bracelet_count(10**400, 10**399 + 1)")
    result = run_python("-c", _REFUSED.format(calls), timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"the estimated answer exceeds the limit of {MAX_ANSWER_BITS} bits "
        "(necklaces.MAX_ANSWER_BITS)"] * 5


def test_an_answer_just_under_max_answer_bits_is_computed():
    # the refusals' neighbours: the estimate errs upwards by some bits only,
    # and a huge n with few parts has a small answer
    assert necklace_count(100_001, 50_000).bit_length() == 99_976
    assert necklace_count(10**1000, 3) == binom(10**1000 - 1, 2) // 3


def test_binom_bits_bounds_the_binomial_from_above_and_closely():
    for a in [*range(60), 1000, 10**5]:
        for b in {*range(min(a + 1, 60)), a // 3, a // 2, max(a - 1, 0), a}:
            exact = math.log2(binom(a, b))
            j = min(b, a - b)
            assert exact <= _binom_bits(a, b) <= exact + math.log2(max(j, 1)) + 2, (a, b)
    assert _binom_bits(-1, -1) == _binom_bits(5, 0) == 0
    # C(a, j) >= 2**j: over the limit, so not estimated further
    assert _binom_bits(10**400, MAX_ANSWER_BITS + 1) == math.inf
