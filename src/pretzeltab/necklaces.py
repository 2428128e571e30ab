"""Burnside counts for circles of weighted beads, and the paper's per-point
formula that sums them.

A circle holds k1 positive beads of total weight n1 and k2 negative beads of
total weight n2; an empty family (n = k = 0) leaves the one-family case, k
beads whose weights are a composition of n.  ``_rotation_sum`` and
``_reflection_sum`` add up the arrangements fixed by each rotation and each
reflection of the k = k1 + k2 positions; each count of necklaces, bracelets
or signed bracelets is one exact division of them, and a remainder raises
``ArithmeticError``.  For odd k each of the k reflection axes passes through
one bead; for even k, k/2 axes pass through two beads and k/2 through none.
The other beads form mirrored pairs.

``count_type1``, ``count_type2`` and ``count_type3`` are the paper's formula:
these counts summed over every admissible parameter point, O(c^4) points for
type 3.  They are the tests' independent check of ``counts.columns`` and
refuse c above POINT_MAX_C.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .combinat import ResourceLimitError, binom, composition_count, exact_div, totient

# Largest c that the per-point route accepts: type3_params(c) holds all its
# O(c^4) points at once.  At 150, 1,320,013 points take 1.5 s to build and
# count_type3 8.1 s, at 146 MiB of peak RSS (CPython 3.11, one Xeon core).
POINT_MAX_C = 150


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


def _bracelets(n1: int, k1: int, n2: int, k2: int) -> int:
    """Dihedral classes of arrangements with k1 + k2 >= 1 beads."""
    return exact_div(_rotation_sum(n1, k1, n2, k2) + _reflection_sum(n1, k1, n2, k2),
                     2 * (k1 + k2), "dihedral Burnside sum")


def necklace_count(n: int, k: int) -> int:
    """Number of cyclic classes of k-part compositions of n.

    Equals (1/k) * sum over d | gcd(n, k) of phi(d) * C(n/d - 1, k/d - 1);
    zero when k = 0 or n < k.
    """
    if k <= 0 or n < k:
        return 0
    return exact_div(_rotation_sum(n, k, 0, 0), k, "rotation-fixed sum")


def bracelet_count(n: int, k: int) -> int:
    """Number of dihedral classes of k-part compositions of n.

    Burnside over the dihedral group: the mean of the rotation-fixed and
    reflection-fixed counts over its 2k elements; zero when k = 0 or n < k.
    """
    if k <= 0 or n < k:
        return 0
    return _bracelets(n, k, 0, 0)


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


def _check_point_c(c: int) -> None:
    if c < 1:
        raise ValueError(f"crossing number must be positive, got {c}")
    if c > POINT_MAX_C:
        raise ResourceLimitError(f"the per-point route at {c} crossings exceeds the limit "
                                 f"of {POINT_MAX_C} (necklaces.POINT_MAX_C)")


def type3_params(c: int) -> list[Type3Params]:
    """All type 3 parameter points at crossing number c.

    Deterministic order: ascending lexicographic on (delta, k1, n1, k2, n2).
    """
    _check_point_c(c)
    points = []
    for delta in range(c + 1):
        for k1 in range(c - delta + 1):
            if (delta + k1) % 2 or delta + k1 < 2:
                continue
            for n1 in range(k1, c - delta - k1 + 1):
                if k1 == 0 and n1 > 0:
                    break
                rem = c - delta - k1 - n1
                if rem % 2:
                    continue
                n2 = rem // 2
                if n2 == 0:
                    if k1 >= 3:
                        points.append(Type3Params(delta, n1, k1, 0, 0))
                else:
                    for k2 in range(max(1, 3 - k1), n2 + 1):
                        points.append(Type3Params(delta, n1, k1, n2, k2))
    return points


def count_type1(c: int) -> int:
    """Type 1 links with c crossings: cyclic classes summed over delta and k."""
    _check_point_c(c)
    total = 0
    for delta in range(max(0, c - 8)):
        budget = c - delta
        for k in range(3, budget // 3 + 1):
            if (budget - k) % 2 == 0:
                total += necklace_count((budget - k) // 2, k)
    return total


def count_type1_alt(c: int) -> int:
    """Type 1 count by an independent route, for cross-checking.

    Folds the (delta, k) double sum by the parity of c: with q = c // 2 the
    inner index j = (delta + k - (c % 2)) / 2 starts at floor(k/2) for odd c
    and ceil(k/2) for even c.
    """
    _check_point_c(c)
    q, odd = divmod(c, 2)
    total = 0
    for i in range(3, q + 1):
        start = i // 2 if odd else (i + 1) // 2
        for j in range(start, q - i + 1):
            total += necklace_count(q - j, i)
    return total


def count_type2(c: int) -> int:
    """Type 2 links with c crossings: bracelet counts over 3 <= k <= c/2, 0 for odd c."""
    _check_point_c(c)
    if c % 2 or c < 6:
        return 0
    n = c // 2
    return sum(bracelet_count(n, k) for k in range(3, n + 1))


def count_type3(c: int) -> int:
    """Type 3 links with c crossings: signed bracelet counts over ``type3_params(c)``."""
    return sum(_bracelets(p.n1, p.k1, p.n2, p.k2) for p in type3_params(c))
