"""Bracelet counts for circular arrangements of signed weighted beads.

k1 beads carry positive integer weights with total n1, and k2 beads carry
negative weights whose absolute values total n2.  ``signed_bracelet_count``
counts arrangements up to rotation and reversal of the k1 + k2 positions, from
the rotation and reflection sums of ``necklaces``, whose axis beads may come
from either family.
"""
from .necklaces import _bracelets


def signed_bracelet_count(n1: int, k1: int, n2: int, k2: int) -> int:
    """Number of dihedral classes of signed weighted arrangements.

    Burnside over the dihedral group of order 2k; an empty family gives the
    one-colour ``necklaces.bracelet_count``, and no beads at all give 0.
    """
    if not (n1 >= k1 >= 0 and n2 >= k2 >= 0):
        raise ValueError(f"need n1 >= k1 >= 0 and n2 >= k2 >= 0, got ({n1},{k1},{n2},{k2})")
    if (k1 == 0 and n1 != 0) or (k2 == 0 and n2 != 0):
        raise ValueError(f"a family with no beads carries no weight, got ({n1},{k1},{n2},{k2})")
    return _bracelets(n1, k1, n2, k2) if k1 + k2 else 0
