"""Brute-force reference counters that the tests check the closed forms against.

Each builds the objects it counts, or asks the oracle's generator in
``tcodes`` for them, and shares no arithmetic with the Burnside counters.
"""
from itertools import combinations
from operator import itemgetter

from pretzeltab.tcodes import _least_dihedral, _least_rotation, _necklaces


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


def composition_class_count(n, k, dihedral=False):
    """Orbit count of k-part compositions of n under rotation: the oracle
    generator's necklaces, or with dihedral its bracelets."""
    if not 1 <= k <= n:
        return 0
    if k == 1:
        return 1
    return len(_necklaces(list(range(1, n + 1)), k, n, k % 2, dihedral))


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
