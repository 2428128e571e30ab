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

``point_columns`` is the paper's formula: these counts summed over every
admissible parameter point, one walk over the O(C^4) type 3 strip families
for all c <= C at once.  It is the tests' independent check of
``counts.columns`` and refuses C above POINT_MAX_C.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator, NamedTuple

from .combinat import ResourceLimitError, binom, composition_count, exact_div, totient

# Largest c that the per-point route accepts, a bound on time: point_columns
# walks its O(c^4) type 3 families one at a time.  In a fresh process it takes
# 3.8 s at 100 and 20.0 s at 150, both at 13.7 MiB of peak RSS, the bare
# interpreter's (CPython 3.11, x86-64 Linux, 2 shared cores).
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
    _check_point_c(c)
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
    _check_point_c(max_c)
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

