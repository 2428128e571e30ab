"""Weighted necklace and bracelet counts for compositions.

A composition of n into k positive parts is read as a circular arrangement of
k beads whose weights sum to n.  ``necklace_count`` counts arrangements up to
rotation, ``bracelet_count`` up to rotation and reversal.  Both are evaluated
by Burnside averaging in exact integer arithmetic; a division that leaves a
remainder raises ``ArithmeticError``.
"""
from __future__ import annotations

import math

from .combinat import binom, divisors, totient


def necklace_count(n: int, k: int) -> int:
    """Number of cyclic classes of k-part compositions of n.

    Equals (1/k) * sum over d | gcd(n, k) of phi(d) * C(n/d - 1, k/d - 1);
    zero when k = 0 or n < k.
    """
    if k <= 0 or n < k:
        return 0
    total = 0
    for d in divisors(math.gcd(n, k)):
        total += totient(d) * binom(n // d - 1, k // d - 1)
    count, rem = divmod(total, k)
    if rem:
        raise ArithmeticError(f"rotation-fixed sum {total} not divisible by k={k}")
    return count


def reflection_fixed_count(n: int, k: int) -> int:
    """Average number of k-part compositions of n fixed by a reflection.

    The average over the k reflections of the dihedral group is always an
    integer; it is the second Burnside term in ``bracelet_count``.  Which
    binomial applies depends only on the parities of n and k.
    """
    if n < 1 or k < 1:
        raise ValueError(f"reflection count needs n >= 1 and k >= 1, got ({n}, {k})")
    if n % 2:
        if k % 2:
            return binom((n - 1) // 2, (k - 1) // 2)
        return binom((n - 1) // 2, k // 2)
    if k % 2:
        return binom(n // 2 - 1, (k - 1) // 2)
    return binom(n // 2, k // 2)


def bracelet_count(n: int, k: int) -> int:
    """Number of dihedral classes of k-part compositions of n.

    Burnside over the dihedral group: the mean of the rotation term
    (``necklace_count``) and the reflection term; zero when k = 0 or n < k.
    """
    if k <= 0 or n < k:
        return 0
    doubled = necklace_count(n, k) + reflection_fixed_count(n, k)
    count, rem = divmod(doubled, 2)
    if rem:
        raise ArithmeticError(f"dihedral Burnside sum odd for (n={n}, k={k})")
    return count
