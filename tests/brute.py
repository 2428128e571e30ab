"""Brute-force references that the tests check the closed forms and the oracle against.

Each counter builds the objects it counts, or asks the oracle's generator in
``walk`` for them, and shares no arithmetic with the Burnside counters.
The exception is ``count_type1_alt``, a second route to the type 1 count: it
sums ``necklaces.necklace_count`` in another order than the type 1 column of
``necklaces.point_columns``, which sums it by crossing budget.  ``orbit``
lists the images of a code under rotation and, for types 2 and 3, reversal,
which ``canonicalize`` must map to one form.  The divisor sums are checked
against ``totient``, which counts by the definition, and
``binary_bracelets``, a textbook Burnside count of other objects.
"""
from functools import cache
from itertools import combinations
from math import gcd
from operator import itemgetter

from pretzeltab import necklaces
from pretzeltab.combinat import check_c
from pretzeltab.necklaces import necklace_count
from pretzeltab.tcodes import TCode, _least_dihedral, _least_rotation
from pretzeltab.walk import _necklaces


@cache
def totient(d):
    """Euler's totient by its definition: how many of 1..d are coprime to d."""
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


def binary_bracelets(n):
    """The binary bracelets of length n (OEIS A000029), the empty one
    included: Burnside's average over the n rotations and n reflections."""
    total = sum(totient(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    total += n * 2 ** ((n + 1) // 2) if n % 2 else 3 * n * 2 ** (n // 2 - 1)
    assert total % (2 * n) == 0, n
    return total // (2 * n)


def compositions(n, k):
    """Yield every k-tuple of positive integers summing to n, each once, in
    lexicographic order: the gaps between k - 1 cuts among 1..n - 1 (stars and
    bars).  The stream holds composition_count(n, k) tuples."""
    if k < 1 or n < k:
        if n == k == 0:
            yield ()
        return
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def interleavings(n1, k1, n2, k2):
    """Every tuple of k1 positive entries summing to n1 and k2 negative
    entries whose sizes sum to n2, placed at every choice of the k2 negative
    positions among the k1 + k2."""
    k = k1 + k2
    positives = list(compositions(n1, k1))
    negatives = [tuple(-a for a in parts) for parts in compositions(n2, k2)]
    for negative_spots in combinations(range(k), k2):
        # position i of the tuple takes entry order[i] of pos_parts + neg_parts
        pos_at, neg_at = iter(range(k1)), iter(range(k1, k))
        order = [next(neg_at) if i in negative_spots else next(pos_at) for i in range(k)]
        pick = itemgetter(*order) if k > 1 else tuple  # one index gives a bare entry
        for pos_parts in positives:
            for neg_parts in negatives:
                yield pick(pos_parts + neg_parts)


def least_rotations(values, k, budget, parity):
    """Every k-tuple over the sorted values whose sizes sum to budget, whose
    count of positive entries has the parity, and that is its own least
    rotation, in lexicographic order: each tuple that starts with its least
    entry is built and tested, with no bound but the least size."""
    least = min(map(abs, values))
    found = []

    def grow(prefix, rem):
        if len(prefix) == k:
            if (not rem and sum(s > 0 for s in prefix) % 2 == parity
                    and prefix == _least_rotation(prefix)):
                found.append(prefix)
            return
        for v in values:
            # each entry still to come takes at least the least size
            if (not prefix or v >= prefix[0]) and abs(v) <= rem - least * (k - len(prefix) - 1):
                grow(prefix + (v,), rem - abs(v))

    grow((), budget)
    return found


@cache
def _composition_walk(n, dihedral):
    """The oracle generator's walk of the parts 1..n at n: it serves every k."""
    return _necklaces(list(range(1, n + 1)), n, dihedral)


def composition_class_count(n, k, dihedral=False):
    """Orbit count of k-part compositions of n under rotation: the oracle
    generator's necklaces, or with dihedral its bracelets.  The generator
    closes only k >= 3, so two parts come from ``least_rotations``."""
    if not 1 <= k <= n:
        return 0
    if k == 1:
        return 1
    if k == 2:
        return len([t for t in least_rotations(list(range(1, n + 1)), 2, n, 0)
                    if not dihedral or t == _least_dihedral(t)])
    return len(_composition_walk(n, dihedral)[n][k])


def by_parity(tuples, parity):
    """The tuples whose count of positive entries has the parity, in their
    order: a list of ``_necklaces`` holds both parities."""
    return [t for t in tuples if sum(s > 0 for s in t) % 2 == parity]


def signed_class_count(n1, k1, n2, k2):
    """Count of dihedral classes of signed tuples: k1 positive entries summing
    to n1 and k2 negative entries whose sizes sum to n2, under rotation and
    reversal of the k1 + k2 positions.

    Keeps the interleavings that start with their least entry and whose
    second entry is at most their last: every dihedral canonical form is one
    of them, since otherwise a rotation of the tuple or of its reversal would
    be less.  The classes of those tuples, by ``_least_dihedral``, are counted.
    """
    k = k1 + k2
    if k == 0:
        return 0  # the empty tuple is no pretzel code
    return len({_least_dihedral(t) for t in interleavings(n1, k1, n2, k2)
                if t[0] == min(t) and (k < 2 or t[1] <= t[-1])})


def orbit(code):
    """Every rotation of the code's strips and, for types 2 and 3, of their
    reversal, as ``TCode``s: the images that ``canonicalize`` maps to one form."""
    k = len(code.strips)
    bases = (code.strips,) if code.link_type == 1 else (code.strips, code.strips[::-1])
    return [TCode(code.link_type, code.delta, (base + base)[i:i + k])
            for base in bases for i in range(k)]


def count_type1_alt(c: int) -> int:
    """Type 1 count by an independent route, for cross-checking; like the
    per-point route it refuses c above ``necklaces.POINT_MAX_C``.

    Folds the (delta, k) double sum by the parity of c: with q = c // 2 the
    inner index j = (delta + k - (c % 2)) / 2 starts at floor(k/2) for odd c
    and ceil(k/2) for even c.
    """
    check_c(c, necklaces.POINT_MAX_C, "the per-point route at", "necklaces.POINT_MAX_C")
    q, odd = divmod(c, 2)
    total = 0
    for i in range(3, q + 1):
        start = i // 2 if odd else (i + 1) // 2
        for j in range(start, q - i + 1):
            total += necklace_count(q - j, i)
    return total
