import math
import subprocess
import sys

from pretzeltab.necklaces import _reflection_sum, bracelet_count, necklace_count

from brute import composition_class_count
from helpers import ROOT, fresh_env

TESTS = ROOT / "tests"


class TestNecklaceCount:
    def test_examples(self):
        assert necklace_count(7, 3) == 5
        assert necklace_count(3, 3) == 1
        assert necklace_count(2, 3) == 0

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
        # (1/n) * sum over d | n of phi(d) * (2^(n/d) - 1)
        for n in range(1, 61):
            phi = {d: sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
                   for d in range(1, n + 1) if n % d == 0}
            burnside = sum(f * (2 ** (n // d) - 1) for d, f in phi.items())
            assert n * sum(necklace_count(n, k) for k in range(1, n + 1)) == burnside, n
            assert necklace_count(n, n) == bracelet_count(n, n) == 1, n


class TestReflectionSum:
    # _reflection_sum adds up the fixed compositions over all k reflections.
    def test_examples(self):
        assert _reflection_sum(7, 3, 0, 0) == 9
        assert _reflection_sum(7, 7, 0, 0) == 7
        assert _reflection_sum(4, 2, 0, 0) == 4


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

    def test_bracelet_necklace_sandwich(self):
        # merging orbits under reversal can at most halve the count
        for n in range(1, 19):
            for k in range(1, n + 1):
                b = bracelet_count(n, k)
                necklaces = necklace_count(n, k)
                assert b <= necklaces <= 2 * b


def test_divisibility_assertions_hold_up_to_40():
    # evaluating triggers the internal exact-division checks
    for n in range(1, 41):
        for k in range(1, n + 1):
            necklace_count(n, k)
            bracelet_count(n, k)


_FAULTS_UNDER_O = f"""
import sys
sys.path.insert(0, {str(TESTS)!r})
from helpers import counts_faults
from pretzeltab import combinat, counts, necklaces
assert False, "assert statements must be stripped by -O"
necklaces.composition_count = lambda n, k: combinat.composition_count(n, k) + 1

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


def _run_fresh(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=fresh_env(), capture_output=True,
                          text=True, timeout=timeout)


def test_exactness_checks_survive_optimize_flag():
    # the necklace counter's check, then each check of counts.columns, each
    # naming its own sum
    result = _run_fresh("-O", "-c", _FAULTS_UNDER_O, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4 and lines[0].startswith("ArithmeticError:"), lines
    for line, check in zip(lines[1:], ["cyclic sum", "dihedral sum", "parity average"]):
        assert line.startswith(f"ArithmeticError: {check}: "), lines


def test_huge_gcd_costs_its_square_root():
    # the rotation sum walks the divisors of gcd = 10**12 up to 10**6 only
    result = _run_fresh("-c", "from pretzeltab.necklaces import bracelet_count, necklace_count;"
                              "print(necklace_count(10**12, 10**12), bracelet_count(10**12, 10**12))",
                        timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 1\n"
