"""Burnside counts for circles of weighted beads, and the paper's per-point
formula that sums them.

A circle holds k1 positive beads of total weight n1 and k2 negative beads of
total weight n2; an empty family (n = k = 0) leaves the one-family case, k
beads whose weights are a composition of n.  ``_rotation_sum`` and
``_reflection_sum`` add up the arrangements fixed by each rotation and each
reflection of the k = k1 + k2 positions.  ``necklace_count`` and
``signed_bracelet_count`` are each one exact division of them, and a
remainder raises ``ArithmeticError``; ``bracelet_count`` is
``signed_bracelet_count``'s one-family case.  Each first refuses, with
``ValueError``, an argument that is not an int (bools included), and then,
with ``ResourceLimitError``, arguments whose gcd is over ``MAX_GCD`` or whose
answer is over ``MAX_ANSWER_BITS``.  For odd k each of the k reflection axes
passes through one bead, from either family; for even k, k/2 axes pass
through two beads and k/2 through none.  The other beads form mirrored pairs.

``point_columns`` is the paper's formula: these counts summed over every
admissible parameter point, one walk over the O(C^4) type 3 strip families
for all c <= C at once.  It is the tests' independent check of
``counts.columns`` and refuses C above POINT_MAX_C.
"""
import math
from itertools import accumulate
from typing import Iterator, NamedTuple

from .combinat import ResourceLimitError, check_c, exact_div, totient

# Largest c that the per-point route accepts, a bound on time: point_columns
# walks its O(c^4) type 3 families one at a time.  In a fresh process it takes
# 3.8 s at 100 and 20.0 s at 150, both at 13.7 MiB of peak RSS, the bare
# interpreter's (CPython 3.11, x86-64 Linux, 2 shared cores).
POINT_MAX_C = 150

# Largest gcd of their arguments that the per-point counters take.  Their
# rotation sum walks the divisors of the gcd up to its square root and factors
# each by trial division, whatever the answer: a prime just above 10**12 takes
# 0.10 s, and one just above 10**14 1.04 s (CPython 3.11, x86-64 Linux, 2
# shared cores).
MAX_GCD = 10**12

# Largest answer, in bits, that the per-point counters compute, as estimated
# before any work.  The largest answers accepted, of about 10**5 bits, take
# 0.2 s in ``necklace_count`` and ``bracelet_count`` (n = 100,001,
# k = 50,000) and 0.08 s in ``signed_bracelet_count``, while
# ``signed_bracelet_count(10**5, 5 * 10**4, 10**5, 5 * 10**4)``, of
# 3 * 10**5 bits, took 1.14 s (same machine).
MAX_ANSWER_BITS = 100_000


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), total over all integer arguments.

    Returns 0 whenever a < 0, b < 0 or b > a, so callers can sum binomials
    without guarding index ranges; C(0, 0) = 1.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def composition_count(n: int, k: int) -> int:
    """Number of k-part compositions of n: binom(n - 1, k - 1), and 1 for the
    empty family n = k = 0, which has exactly one composition, the empty tuple."""
    return 1 if n == k == 0 else binom(n - 1, k - 1)


def _weightings(n: int, a: int, m: int) -> int:
    """[x^n] (x/(1-x))^a (x^2/(1-x^2))^m, for a in {0, 1, 2} beads on the axis
    and m mirrored pairs."""
    if a == 0:
        return 0 if n % 2 else composition_count(n // 2, m)
    if a == 1:
        return binom((n - 1) // 2, m)
    return binom(n // 2, m + 1) + binom((n - 1) // 2, m + 1)


def _rotation_sum(n1: int, k1: int, n2: int, k2: int) -> int:
    """Arrangements fixed by each of the k1 + k2 rotations, summed: for each d
    dividing all four arguments, the totient(d) rotations of order d fix those
    made of d copies of one block."""
    g = math.gcd(k1, k2, n1, n2)
    k = k1 + k2
    total = 0
    for s in range(1, math.isqrt(g) + 1):  # each divisor up to sqrt(g), and its cofactor
        if g % s:
            continue
        for d in ((s, g // s) if s * s < g else (s,)):
            total += (totient(d) * binom(k // d, k1 // d)
                      * composition_count(n1 // d, k1 // d) * composition_count(n2 // d, k2 // d))
    return total


def _reflection_sum(n1: int, k1: int, n2: int, k2: int) -> int:
    """Arrangements fixed by each of the k1 + k2 reflections, summed: per axis
    type and split of its beads into a1 positive and a2 negative, the ways to
    sign the axis beads and the pairs, times each family's weightings."""
    k = k1 + k2
    axis_types = ((k, 1),) if k % 2 else ((k // 2, 2), (k // 2, 0))
    total = 0
    for axes, on_axis in axis_types:
        # a family with too few beads for the axis gets m = -1: binom(m1 + m2, m1) = 0
        for a1 in range(k1 % 2, on_axis + 1, 2):
            a2 = on_axis - a1
            m1, m2 = (k1 - a1) // 2, (k2 - a2) // 2
            total += (axes * binom(on_axis, a1) * binom(m1 + m2, m1)
                      * _weightings(n1, a1, m1) * _weightings(n2, a2, m2))
    return total


def _binom_bits(a: int, b: int) -> float:
    """log2 C(a, b) from above, by the entropy bound j log2(a/j) + (a - j)
    log2(a/(a - j)) with j = min(b, a - b), within log2(j) + 2 bits; no
    binomial is computed, and no float overflows.  0 when j <= 0."""
    j = min(b, a - b)
    if j <= 0:
        return 0.0
    if j > MAX_ANSWER_BITS:  # C(a, j) >= 2**j, as a >= 2j
        return math.inf
    r = j / (a - j)  # in (0, 1], and 0.0 only by underflow
    return j * (math.log2(a) - math.log2(j) + (math.log1p(r) / r if r else 1) / math.log(2))


def _check_ints(*args: int) -> None:
    """Refuse an argument of a per-point counter that is not an int, bools
    included, before the counter's zero-extension guards."""
    for arg in args:
        if type(arg) is not int:
            raise ValueError(f"the per-point counters take int arguments, got {arg!r}")


def _check_size(n1: int, k1: int, n2: int, k2: int) -> None:
    """Refuse, before any work, arguments whose gcd is over ``MAX_GCD`` or
    whose answer is estimated over ``MAX_ANSWER_BITS`` bits.  The estimate is
    the bits of the identity's term of the rotation sum, C(k, k1)
    C(n1 - 1, k1 - 1) C(n2 - 1, k2 - 1): the answer is at least that over 2k,
    and about that over k or 2k when the answer is large."""
    if math.gcd(k1, k2, n1, n2) > MAX_GCD:
        raise ResourceLimitError(f"the gcd of the arguments exceeds the limit of {MAX_GCD} "
                                 "(necklaces.MAX_GCD)")
    if (_binom_bits(k1 + k2, k1) + _binom_bits(n1 - 1, k1 - 1)
            + _binom_bits(n2 - 1, k2 - 1) > MAX_ANSWER_BITS):
        raise ResourceLimitError(f"the estimated answer exceeds the limit of {MAX_ANSWER_BITS} "
                                 "bits (necklaces.MAX_ANSWER_BITS)")


def _bracelets(n1: int, k1: int, n2: int, k2: int) -> int:
    """Dihedral classes of arrangements with k1 + k2 >= 1 beads."""
    return exact_div(_rotation_sum(n1, k1, n2, k2) + _reflection_sum(n1, k1, n2, k2),
                     2 * (k1 + k2), "dihedral Burnside sum")


def necklace_count(n: int, k: int) -> int:
    """Number of cyclic classes of k-part compositions of n.

    Equals (1/k) * sum over d | gcd(n, k) of phi(d) * C(n/d - 1, k/d - 1);
    zero when k = 0 or n < k.
    """
    _check_ints(n, k)
    if k <= 0 or n < k:
        return 0
    _check_size(n, k, 0, 0)
    return exact_div(_rotation_sum(n, k, 0, 0), k, "rotation-fixed sum")


def bracelet_count(n: int, k: int) -> int:
    """Number of dihedral classes of k-part compositions of n.

    Burnside over the dihedral group: the mean of the rotation-fixed and
    reflection-fixed counts over its 2k elements; zero when k = 0 or n < k.
    """
    _check_ints(n, k)
    return signed_bracelet_count(n, k, 0, 0) if 0 < k <= n else 0


def signed_bracelet_count(n1: int, k1: int, n2: int, k2: int) -> int:
    """Number of dihedral classes of signed weighted arrangements.

    Burnside over the dihedral group of order 2k; an empty family gives the
    one-colour ``bracelet_count``, and no beads at all give 0.
    """
    _check_ints(n1, k1, n2, k2)
    if not (n1 >= k1 >= 0 and n2 >= k2 >= 0):
        raise ValueError(f"need n1 >= k1 >= 0 and n2 >= k2 >= 0, got ({n1},{k1},{n2},{k2})")
    if (k1 == 0 and n1 != 0) or (k2 == 0 and n2 != 0):
        raise ValueError(f"a family with no beads carries no weight, got ({n1},{k1},{n2},{k2})")
    if not k1 + k2:
        return 0
    _check_size(n1, k1, n2, k2)
    return _bracelets(n1, k1, n2, k2)


class Type3Params(NamedTuple):
    """One admissible parameter point for the type 3 count.

    delta: crossings in the horizontal twist group;
    n1, k1: reduced weight and count of positive strips;
    n2, k2: reduced weight and count of negative strips.
    A point satisfies delta + k1 + n1 + 2*n2 = c, delta + k1 even and >= 2,
    k1 + k2 >= 3, n1 >= k1 >= 0, n2 >= k2 >= 0, and a family is weightless
    exactly when it is empty.
    """

    delta: int
    n1: int
    k1: int
    n2: int
    k2: int


def _type3_points(max_c: int) -> Iterator[Type3Params]:
    """Each type 3 strip family (n1, k1, n2, k2) whose least c is at most max_c,
    once, at its least delta (2 for k1 = 0, else k1 mod 2), in ascending order
    on (k1, n1, k2, n2).  At c its delta is c - (k1 + n1 + 2*n2)."""
    for k1 in range(max_c + 1):
        delta = 2 if k1 == 0 else k1 % 2
        for n1 in range(k1, max_c - delta - k1 + 1) if k1 else (0,):
            most_n2 = (max_c - delta - k1 - n1) // 2
            for k2 in range(max(0, 3 - k1), most_n2 + 1):
                for n2 in range(k2, most_n2 + 1) if k2 else (0,):
                    yield Type3Params(delta, n1, k1, n2, k2)


def type3_params(c: int) -> list[Type3Params]:
    """All type 3 parameter points at crossing number c.

    Deterministic order: ascending lexicographic on (delta, k1, n1, k2, n2).
    """
    check_c(c, POINT_MAX_C, "the per-point route at", "necklaces.POINT_MAX_C")
    points = (p._replace(delta=c - p.k1 - p.n1 - 2 * p.n2) for p in _type3_points(c))
    # a stable sort: within one delta the families keep their (k1, n1, k2, n2) order
    return sorted((p for p in points if (p.delta + p.k1) % 2 == 0), key=lambda p: p.delta)


def point_columns(max_c: int) -> tuple[list[int], list[int], list[int]]:
    """The p1, p2 and p3 columns for 0 <= c <= max_c, by the per-point formula:
    type 1 sums cyclic classes of k >= 3 odd strips over every crossing budget
    b = c - delta; type 2 sums bracelet counts over 3 <= k <= c/2 at even c;
    type 3 adds each family's signed bracelet count at its least c and carries
    it on to c + 2, c + 4, ...
    """
    check_c(max_c, POINT_MAX_C, "the per-point route at", "necklaces.POINT_MAX_C")
    n = max_c + 1
    p1 = list(accumulate(sum(necklace_count((b - k) // 2, k)
                             for k in range(3, b // 3 + 1) if (b - k) % 2 == 0)
                         for b in range(n)))
    p2 = [0 if c % 2 else sum(bracelet_count(c // 2, k) for k in range(3, c // 2 + 1))
          for c in range(n)]
    p3 = [0] * n
    for delta, n1, k1, n2, k2 in _type3_points(max_c):
        p3[delta + k1 + n1 + 2 * n2] += _bracelets(n1, k1, n2, k2)
    for c in range(2, n):
        p3[c] += p3[c - 2]
    return p1, p2, p3

