"""Strip codes for alternating oriented pretzel links and the exhaustive oracle.

A code carries a type tag (1, 2 or 3), the horizontal twist count delta, and
the ordered tuple of strip sizes (negative entries are negatively signed
strips).  Two codes describe the same link exactly when they have equal type
and delta and their strip tuples agree up to rotation (type 1) or up to
rotation and reversal (types 2 and 3).

``enumerate_classes`` is the brute-force ground truth that the closed-form
counters in ``counts`` are checked against: the list of ``class_strips``,
which yields each class once, as its canonical ``TCode``, already in
``list`` order, so no dedup set and no sort is needed.  ``class_counts``
returns their counts, with no tuple held, as the columns of ``counts.columns``.
Both read ``_necklaces``, an orderly generator that walks each type once, at
the top budget, for every budget and strip count, and extends only the
prefixes that can still be the least rotation (for types 2 and 3, the least
dihedral image) of a strip tuple; its docstring holds the walk in full.

Enumeration grows exponentially with the crossing number, so it refuses to
run above a ceiling (``ceiling`` argument, the CLI's ``--ceiling``), and
``canonicalize`` refuses codes above ``combinat.MAX_C`` crossings.  The
module holds the oracle only; the tests' brute-force orbit counters live in
``tests/brute.py``.
"""
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, NamedTuple

from .combinat import DEFAULT_ENUM_CEILING, MAX_C, ResourceLimitError, check_c


def check_ceiling(c: int, ceiling: int) -> None:
    """Refuse exhaustive enumeration at c crossings below 1 or above the ceiling."""
    if ceiling < 1:
        raise ValueError(f"the enumeration ceiling must be positive, got {ceiling}")
    check_c(c)
    if c > ceiling:
        raise ResourceLimitError(
            f"exhaustive enumeration at {c} crossings exceeds the ceiling of {ceiling}"
            " (raise it with --ceiling)")


class TCode(NamedTuple):
    """A typed pretzel strip code: (link_type, delta, strips)."""

    link_type: int
    delta: int
    strips: tuple[int, ...]

    def __str__(self) -> str:
        body = ",".join(str(s) for s in self.strips)
        if self.link_type == 2:
            return f"P2({body})"
        return f"P{self.link_type}({self.delta};{body})"


def violation(code: TCode) -> str | None:
    """None if the code is structurally valid, else the first violated rule."""
    if code.link_type not in (1, 2, 3):
        return f"link type must be 1, 2 or 3, got {code.link_type}"
    if code.delta < 0:
        return "delta must be non-negative"
    if len(code.strips) < 3:
        return "a pretzel code needs at least 3 strips"
    if any(s == 0 for s in code.strips):
        return "strip entries must be non-zero"
    if code.link_type == 1:
        if any(s < 3 or s % 2 == 0 for s in code.strips):
            return "type 1 strips must be odd and at least 3"
    elif code.link_type == 2:
        if code.delta != 0:
            return "type 2 codes have no horizontal twist group (delta must be 0)"
        if any(s < 2 or s % 2 for s in code.strips):
            return "type 2 strips must be even and at least 2"
    else:
        if any(0 < s < 2 for s in code.strips):
            return "type 3 positive strips must be at least 2"
        if any(s < 0 and (s % 2 or s > -2) for s in code.strips):
            return "type 3 negative strips must be even and at least 2 in size"
        positive = sum(1 for s in code.strips if s > 0)
        if code.delta + positive < 2 or (code.delta + positive) % 2:
            return "delta plus the number of positive strips must be even and at least 2"
    return None


def _least_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(t[i:] + t[:i] for i in range(len(t)))


def _least_dihedral(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(_least_rotation(t), _least_rotation(t[::-1]))


def canonicalize(code: TCode) -> TCode:
    """The representative of the code's equivalence class.

    Lexicographically least strip tuple over the class: the k rotations for
    type 1, the 2k rotations and reversed rotations for types 2 and 3.
    Entries compare in ordinary integer order, so negative strips sort first.
    Idempotent; delta and type are preserved.  Refuses, before any work, a
    code of more than ``combinat.MAX_C`` crossings: the cost is quadratic in
    the strip count.
    """
    size = code.delta + sum(map(abs, code.strips))
    if size > MAX_C:
        raise ResourceLimitError(
            f"a code of {size} crossings exceeds the limit of {MAX_C} (combinat.MAX_C)")
    problem = violation(code)
    if problem is not None:
        raise ValueError(f"invalid code {code!r}: {problem}")
    least_form = _least_rotation if code.link_type == 1 else _least_dihedral
    return TCode(code.link_type, code.delta, least_form(code.strips))


def _necklaces(values: list[int], top: int, dihedral: bool = False, count: bool = False
               ) -> list[list[list[list[tuple[int, ...]]]]] | list[list[int]]:
    """Every tuple of k >= 3 entries over the sorted values whose sizes
    (absolute values) sum to at most top and that is the least of its
    rotations, each once, by its budget b (the sum of its sizes) and the
    parity of its count of positive entries: entry [b][parity][k] of the
    list holds the k-entry ones in lexicographic order.  With dihedral, only
    the bracelets among them: those no greater than any rotation of their
    reversal.  With count, no tuple is built and entry [b] is the pair
    [even, odd] of how many there are at budget b.  Values of size above top
    are never taken, and a budget below three entries of the least size
    gives no tuple.

    The walk is a prenecklace generator (Cattell, Ruskey, Sawada, Serra and
    Miers, J. Algorithms 37, 2000), and one walk at the top budget serves
    every budget b <= top and every k.  Position t takes only values at
    least a[t - p], p being the period of a[1..t-1], and its frame does two
    things for each value x, in one loop.  It closes the tuple of k = t + 1
    entries with each last entry v of size at most s, the room that x leaves
    below top, at budget top - s + |v|: the tuple is a necklace when v is at
    least a[k - q] and, if equal, q divides k (q being the period with x).
    And it extends the prefix when s leaves room for one more entry and the
    last, each at the least size or at a[1] once that is positive (no entry
    is below a[1]).

    For bracelets the walk follows the reversal as the prefix grows, as in
    Sawada's bracelet generator (SIAM J. Comput. 31, 2001).  A rotation of
    the reversal can be less than a necklace only if it starts at the end of
    a run of m = a[1] as long as the leading run, of L entries; the walk
    makes no run longer.  Three checks follow.  A bracelet has
    a[L+1] <= a[k], else the reversal read back from a[L] is less, so once
    a[L+1] is positive the last entry needs at least that size.  When placing
    m ends an inner run of L at position t, a[t:0:-1] < a[1:t+1] means the
    reversal read back from a[t] is less whatever follows, and the value is
    skipped, for closing and extending alike; if they are equal the run is
    kept as a tie.  A closing reads the runs of a[1..t-1]: the leading run
    and each tie j pass when a[j+1:k+1] <= a[k:j:-1].

    So a closing needs v at least the bound, the greatest of a[k - q] and,
    for bracelets, of a[L+1] and each a[j+1], and every v above the bound
    closes the tuple: it is above a[k - q], and each reversal comparison is
    settled at its first entries, a[j+1] (or a[L+1]) below a[k] = v.  Only
    the bound itself is checked in full.  The values above it form one index
    range: list mode reads it, and count mode adds it as a whole to a
    difference array per (parity of a[1..t], s), which one pass at the end
    turns into counts per budget.
    """
    # first[top + v] is bisect_left of v; for integers, first[top + v + 1] is
    # bisect_right of v.  No entry, and so no v looked up, is of size above top.
    first = [bisect_left(values, v) for v in range(-top, top + 2)]
    least = min(map(abs, values), default=top + 1)  # no values: no entry fits
    if count:
        # spans[par][s] is the difference array, over the values, of the last
        # entries that close a prefix of parity par and room s
        spans = [[[0] * (len(values) + 1) for _ in range(top + 1)] for _ in (0, 1)]
    else:
        found = [[[[] for _ in range(b // least + 1)] for _ in (0, 1)] for b in range(top + 1)]
    a = [0] * (top // least + 1)  # a[t] is the entry at position t >= 1

    def extend(t, p, rem, odd, lead, run, ties):
        # t is the position to fill, p the period of a[1..t-1], rem the size
        # left below top for the entries from position t on, and odd the
        # parity of the count of positive entries in a[1..t-1]; lead is the
        # run of m = a[1] that starts a[1..t-1], and is final once it is below
        # t - 1; run is the run of m that ends a[t-1] after it; ties are the
        # ends j of the inner runs of m as long as lead whose reversal
        # a[j:0:-1] equals a[1:j+1]
        m = a[1]
        floor = m if m > least else least  # the least size of the entries after position t
        last = floor  # and of the last entry
        if dihedral and lead < t - 1 and a[lead + 1] > last:
            last = a[lead + 1]
        cap = rem - last  # the largest size position t may take
        if cap < 0:
            return
        prev = a[t - p]
        start = first[top + prev]  # the first value at least prev and of size at most cap
        if first[top - cap] > start:
            start = first[top - cap]
        deep = floor + last  # the least s that leaves room for one more entry
        k = t + 1
        for i in range(start, first[top + cap + 1]):
            x = a[t] = values[i]
            q = p if x == prev else t
            s = rem - abs(x)
            par = odd ^ (x > 0)
            if x != m or not dihedral:  # the runs of m matter only to bracelets
                new_lead, new_run, new_ties = lead, 0, ties
            elif lead == t - 1:
                new_lead, new_run, new_ties = t, 0, ties
            elif run + 1 < lead:
                new_lead, new_run, new_ties = lead, run + 1, ties
            else:  # an inner run as long as the leading one ends at t
                back, ahead = a[t:0:-1], a[1:t + 1]
                if back < ahead:
                    continue  # its reversal, read from a[t], is less
                new_lead, new_run = lead, run + 1
                new_ties = ties + (t,) if back == ahead else ties
            # close the tuple of k entries with every last entry v from the
            # bound up to size s; the bound is a necklace if q divides k when
            # it equals a[k - q], and a bracelet unless, for the leading run or
            # a tie j, a[k:j:-1] is below a[j + 1:k + 1]
            low = bound = a[k - q]
            if dihedral:
                w = a[lead + 1]
                if w > bound:
                    bound = w
                for j in ties:
                    if a[j + 1] > bound:
                        bound = a[j + 1]
            if bound < -s:
                lo = first[top - s]  # every v of size at most s is above the bound
            else:
                a[k] = bound
                closes = bound <= s and (bound > low or not k % q) and (
                    not dihedral or ((w < bound or a[lead + 1:k + 1] <= a[k:lead:-1])
                                     and not (ties and any(a[j + 1:k + 1] > a[k:j:-1]
                                                           for j in ties))))
                lo = first[top + bound + (not closes)]
            hi = first[top + s + 1]
            if lo < hi:
                if count:
                    span = spans[par][s]
                    span[lo] += 1
                    span[hi] -= 1
                else:
                    head = tuple(a[1:k])
                    for v in values[lo:hi]:
                        found[top - s + abs(v)][par ^ (v > 0)][k].append(head + (v,))
            if s >= deep:
                extend(k, q, s, par, new_lead, new_run, new_ties)

    # position 1 leaves room for two more entries; a positive a[1] is the
    # least size of both
    for x in values[first[top - max(top - 2 * least, 0)]:first[top + top // 3 + 1]]:
        a[1] = x
        extend(2, 1, top - abs(x), int(x > 0), 1, 0, ())
    if not count:
        return found
    tally = [[0, 0] for _ in range(top + 1)]
    for par, by_room in enumerate(spans):
        for s, span in enumerate(by_room):
            closing = 0  # how many prefixes of room s the value v closes
            for v, step in zip(values, span):
                closing += step
                if closing:
                    tally[top - s + abs(v)][par ^ (v > 0)] += closing
    return tally


def _strip_values(link_type: int, top: int) -> list[int]:
    """The sorted strip entries a code of the type may hold, of size at most top."""
    if link_type == 1:
        return list(range(3, top + 1, 2))
    if link_type == 2:
        return list(range(2, top + 1, 2))
    return list(range(-top + top % 2, -1, 2)) + list(range(2, top + 1))


def class_strips(c: int, link_type: int,
                 ceiling: int = DEFAULT_ENUM_CEILING) -> Iterator[TCode]:
    """Every equivalence class of the given type at crossing number c, as its
    canonical ``TCode``, lazily and in ``list`` order.

    Each class comes once, ordered by (delta, strip count, strips).  Only
    positive type 1 and type 2 codes are generated (one link per mirror
    pair).  One ``_necklaces`` walk at budget c lists the canonical strip
    tuples of every budget by parity and strip count, and for each delta,
    ascending, the lists of budget c - delta are read by strip count.  Type 3
    reads parity delta % 2 and drops, at delta = 0, the all-negative tuples,
    whose delta + k1 is below 2; a type 1 or 2 tuple, all of whose entries
    are positive, has parity k % 2.  The walk's classes are all held at once.

    Refuses c below 1 or above the enumeration ceiling (``check_ceiling``)
    when the first class is asked for.
    """
    if link_type not in (1, 2, 3):
        raise ValueError(f"link type must be 1, 2 or 3, got {link_type}")
    check_ceiling(c, ceiling)
    walked = _necklaces(_strip_values(link_type, c), c, dihedral=link_type > 1)
    for delta in range(1 if link_type == 2 else c):
        by_parity = walked[c - delta]
        for k in range(len(by_parity[0])):
            for strips in by_parity[(delta if link_type == 3 else k) % 2][k]:
                if link_type == 3 and not delta and max(strips) < 0:
                    continue  # k1 = 0: delta + k1 is below 2
                yield TCode(link_type, delta, strips)


def enumerate_classes(c: int, link_type: int, ceiling: int = DEFAULT_ENUM_CEILING) -> list[TCode]:
    """All equivalence classes of the given type at crossing number c, as
    canonical ``TCode``s in ``class_strips`` order."""
    return list(class_strips(c, link_type, ceiling))


def class_counts(max_c: int, ceiling: int = DEFAULT_ENUM_CEILING
                 ) -> tuple[list[int], list[int], list[int]]:
    """The p1, p2 and p3 columns of ``counts.columns``, 0 <= c <= max_c, as the
    lengths of ``enumerate_classes``.  Refuses max_c below 1 or above the ceiling.

    Each type is walked once, at budget max_c, by ``_necklaces``' count mode,
    and the columns read the counts per budget: p1 sums type 1 over the
    budgets up to c, p2 is type 2 at c, and p3 sums type 3 over the budgets b
    up to c at parity c - b, less p2 for the all-negative bracelets at
    delta = 0 (k1 = 0, so delta + k1 is below 2), which negation maps one to
    one onto the type 2 classes at c.
    """
    check_ceiling(max_c, ceiling)
    ones, twos, threes = (_necklaces(_strip_values(link_type, max_c), max_c,
                                     dihedral=link_type > 1, count=True)
                          for link_type in (1, 2, 3))
    p2 = list(map(sum, twos))
    return (list(accumulate(map(sum, ones))), p2,
            [sum(threes[b][(c - b) % 2] for b in range(c + 1)) - p2[c]
             for c in range(max_c + 1)])
