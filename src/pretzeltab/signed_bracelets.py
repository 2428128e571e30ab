"""Bracelet counts for circular arrangements of signed weighted beads.

The beads come in two families: k1 beads carrying positive integer weights
with total n1, and k2 beads carrying negative integer weights whose absolute
values total n2.  ``signed_bracelet_count`` counts arrangements up to
rotation and reversal of the k1 + k2 positions.

The reflection term splits into parity cases.  Writing k = k1 + k2:

  * k odd: exactly one family has an odd bead count; a reflection axis must
    pass through a bead of that family, and the fixed count is a product of
    three binomials chosen by the parities of n1 and n2.  If the odd-count
    family has an odd total weight on the other side (k1, n2 both odd, or
    k2, n1 both odd) nothing is fixed.
  * k even with k1, k2 odd: the axis pairs one bead of each family.
  * k, k1, k2 all even: axes through two beads and axes through two gaps
    both contribute; with n1, n2 both odd nothing is fixed.

All arithmetic is exact; the final division by the group order is checked.
"""
from __future__ import annotations

import math

from .combinat import binom, divisors, totient
from .necklaces import bracelet_count


def _check_params(n1: int, k1: int, n2: int, k2: int) -> None:
    if not (n1 >= k1 >= 0 and n2 >= k2 >= 0):
        raise ValueError(f"need n1 >= k1 >= 0 and n2 >= k2 >= 0, got ({n1},{k1},{n2},{k2})")
    if (k1 == 0 and n1 != 0) or (k2 == 0 and n2 != 0):
        raise ValueError(f"a family with no beads carries no weight, got ({n1},{k1},{n2},{k2})")


def signed_reflection_fixed_count(n1: int, k1: int, n2: int, k2: int) -> int:
    """Average number of signed arrangements fixed by a reflection.

    Requires at least one bead of each sign (k1, k2 >= 1); the one-family
    cases belong to ``necklaces.reflection_fixed_count``.  Internally works
    with four times the half-weighted Burnside term so that the all-even
    case, whose three summands carry quarter weights, stays in integers.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError(f"both families need a bead, got k1={k1}, k2={k2}")
    k = k1 + k2
    if k % 2:
        if k1 % 2:
            if n2 % 2:
                quadrupled = 0
            elif n1 % 2:
                quadrupled = 2 * (binom((k - 1) // 2, k2 // 2)
                                  * binom((n1 - 1) // 2, (k1 - 1) // 2)
                                  * binom(n2 // 2 - 1, k2 // 2 - 1))
            else:
                quadrupled = 2 * (binom((k - 1) // 2, k2 // 2)
                                  * binom(n1 // 2 - 1, (k1 - 1) // 2)
                                  * binom(n2 // 2 - 1, k2 // 2 - 1))
        else:  # k2 odd
            if n1 % 2:
                quadrupled = 0
            elif n2 % 2:
                quadrupled = 2 * (binom((k - 1) // 2, k1 // 2)
                                  * binom(n1 // 2 - 1, k1 // 2 - 1)
                                  * binom((n2 - 1) // 2, (k2 - 1) // 2))
            else:
                quadrupled = 2 * (binom((k - 1) // 2, k1 // 2)
                                  * binom(n1 // 2 - 1, k1 // 2 - 1)
                                  * binom(n2 // 2 - 1, (k2 - 1) // 2))
    elif k1 % 2:  # k even, k1 and k2 both odd
        lead = binom(k // 2 - 1, (k1 - 1) // 2)
        f1 = binom((n1 - 1) // 2, (k1 - 1) // 2) if n1 % 2 else binom(n1 // 2 - 1, (k1 - 1) // 2)
        f2 = binom((n2 - 1) // 2, (k2 - 1) // 2) if n2 % 2 else binom(n2 // 2 - 1, (k2 - 1) // 2)
        quadrupled = 2 * lead * f1 * f2
    else:  # k, k1, k2 all even
        if n1 % 2 and n2 % 2:
            quadrupled = 0
        elif n1 % 2:
            quadrupled = 2 * (binom(k // 2 - 1, k2 // 2)
                              * binom(n2 // 2 - 1, k2 // 2 - 1)
                              * binom((n1 - 1) // 2, k1 // 2))
        elif n2 % 2:
            quadrupled = 2 * (binom(k // 2 - 1, k1 // 2)
                              * binom(n1 // 2 - 1, k1 // 2 - 1)
                              * binom((n2 - 1) // 2, k2 // 2))
        else:
            quadrupled = (binom(k // 2 - 1, k2 // 2) * binom(n2 // 2 - 1, k2 // 2 - 1)
                          * (binom(n1 // 2, k1 // 2) + binom(n1 // 2 - 1, k1 // 2))
                          + binom(k // 2 - 1, k1 // 2) * binom(n1 // 2 - 1, k1 // 2 - 1)
                          * (binom(n2 // 2, k2 // 2) + binom(n2 // 2 - 1, k2 // 2))
                          + binom(k // 2, k1 // 2) * binom(n1 // 2 - 1, k1 // 2 - 1)
                          * binom(n2 // 2 - 1, k2 // 2 - 1))
    count, rem = divmod(quadrupled, 2)
    if rem:
        raise ArithmeticError(f"reflection term not integral at ({n1},{k1},{n2},{k2})")
    return count


def signed_bracelet_count(n1: int, k1: int, n2: int, k2: int) -> int:
    """Number of dihedral classes of signed weighted arrangements.

    Falls back to the one-colour ``bracelet_count`` when either family is
    empty.  Otherwise Burnside over the dihedral group of order 2k: the
    rotation-fixed sum runs over d | gcd(k1, k2, n1, n2) and the division by
    2k is checked to be exact.
    """
    _check_params(n1, k1, n2, k2)
    if k2 == 0:
        return bracelet_count(n1, k1)
    if k1 == 0:
        return bracelet_count(n2, k2)
    k = k1 + k2
    rotation_fixed = 0
    for d in divisors(math.gcd(k1, k2, n1, n2)):
        rotation_fixed += (totient(d)
                           * binom(k // d, k1 // d)
                           * binom(n1 // d - 1, k1 // d - 1)
                           * binom(n2 // d - 1, k2 // d - 1))
    doubled = rotation_fixed + k * signed_reflection_fixed_count(n1, k1, n2, k2)
    count, rem = divmod(doubled, 2 * k)
    if rem:
        raise ArithmeticError(
            f"Burnside sum {doubled} not divisible by 2k={2 * k} at ({n1},{k1},{n2},{k2})")
    return count
