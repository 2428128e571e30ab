"""Burnside counts for circles of one or two families of weighted beads.

A circle holds k1 positive beads of total weight n1 and k2 negative beads of
total weight n2; an empty family (n = k = 0) leaves the one-family case, k
beads whose weights are a composition of n.  ``_rotation_sum`` and
``_reflection_sum`` add up the arrangements fixed by each rotation and each
reflection of the k = k1 + k2 positions.  Every counter here and in
``signed_bracelets`` is one exact division of them; a remainder raises
``ArithmeticError``.  For odd k each of the k reflection axes passes through
one bead; for even k, k/2 axes pass through two beads and k/2 through none.
The other beads form mirrored pairs.
"""
from __future__ import annotations

import math

from .combinat import binom, composition_count, exact_div, totient


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
    for d in range(1, g + 1):
        if g % d == 0:
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
