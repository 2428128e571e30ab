"""The exhaustive oracle's walk: every class of strip tuples, each once.

``_necklaces`` is an orderly generator that walks each type once, at the top
budget, for every budget and strip count, and extends only the prefixes that
can still be the least rotation (for types 2 and 3, the least dihedral image)
of a strip tuple; its docstring holds the walk in full.  ``_walk_type``
alone decides how each link type is walked, for ``class_counts`` and
``tcodes.class_strips``: sorted values for a listing, so each class comes
as its least tuple in integer order, and values by size for a count, where
fewer prefixes fit the budget.  ``class_counts`` returns those counts, with
no tuple held, as the columns of ``counts.columns``.

Enumeration grows exponentially with the crossing number, so it refuses to
run above a ceiling (``ceiling`` argument, the CLI's ``--ceiling``).  The
module imports nothing from the counters nor from the codes in ``tcodes``:
``verify`` runs it alone.
"""
from itertools import accumulate

from .combinat import DEFAULT_ENUM_CEILING, check_c


def _necklaces(values: list[int], top: int, dihedral: bool = False, count: bool = False,
               _one_parity: bool = False
               ) -> list[list[list[tuple[int, ...]]]] | list[list[int]]:
    """Every tuple of k >= 3 entries over the values whose sizes (absolute
    values) sum to at most top and that is the least of its rotations, each
    once, by its budget b (the sum of its sizes): entry [b][k] of the list
    holds the k-entry ones in lexicographic order.  Entries compare by their
    place in values, so sorted values give integer order.  Any order works
    in which, for every s, the values of size at most s form one run of the
    list: sorted order meets it, and so does order by size.  With dihedral,
    only the bracelets among them: those no greater than any rotation of
    their reversal.  With count, no tuple is built and entry [b] is the pair
    [even, odd] of how many there are at budget b, by the parity of their
    count of positive entries, which does not depend on the order.  With
    _one_parity, in list mode, entry [b] holds only the tuples of parity
    (top - b) % 2.  Values of size above top are never taken, and a budget
    below three entries of the least size gives no tuple.

    The walk is a prenecklace generator (Cattell, Ruskey, Sawada, Serra and
    Miers, J. Algorithms 37, 2000) over the indices into values, and one
    walk at the top budget serves every budget b <= top and every k.  It
    reads per-index tables: the size and the sign of each value, the run
    lo_of[s] <= i < hi_of[s] of the values of size at most s, and the least
    size sufmin[i] at index i or after.  Position t takes only indices at
    least a[t - p], p being the period of a[1..t-1], and its frame does two
    things for each index x, in one loop.  It closes the tuple of k = t + 1
    entries with each last entry v of size at most s, the room that x leaves
    below top, at budget top - s + |v|: the tuple is a necklace when v is at
    least a[k - q] and, if equal, q divides k (q being the period with x).
    And it extends the prefix when s leaves room for one more entry and the
    last, each of size at least sufmin[a[1]], since no entry is below a[1].

    For bracelets the walk follows the reversal as the prefix grows, as in
    Sawada's bracelet generator (SIAM J. Comput. 31, 2001).  A rotation of
    the reversal can be less than a necklace only if it starts at the end of
    a run of m = a[1] as long as the leading run, of L entries; the walk
    makes no run longer.  Three checks follow.  A bracelet has
    a[L+1] <= a[k], else the reversal read back from a[L] is less, so once
    a[L+1] is placed the last entry needs a size of at least sufmin[a[L+1]].
    When placing m ends an inner run of L at position t, a[t:0:-1] <
    a[1:t+1] means the reversal read back from a[t] is less whatever
    follows, and the index is skipped, for closing and extending alike; if
    they are equal the run is kept as a tie.  The frame carries the ends of
    these runs of a[1..t-1] as one tuple, L first and then each tie, and a
    closing passes at each end j when a[j+1:k+1] <= a[k:j:-1].

    So a closing needs v at least the bound, the greatest of a[k - q] and,
    for bracelets, of each a[j+1] over the ends, and every v above the bound
    closes the tuple: it is above a[k - q], and each reversal comparison is
    settled at its first entries, a[j+1] below a[k] = v.  Only the bound
    itself is checked in full, at the ends j with a[j+1] equal to it.  The
    indices above it of size at most s form one range, which ends where the
    run of size at most s ends.  List mode appends its values, in order, to
    the list of their budget and k, which both parities share and which
    stays in lexicographic order, since the walk closes in prefix order;
    count mode records only where the range starts, per (parity of a[1..t],
    s); one pass at the end adds up the ranges open at each index into
    counts per budget.  A tuple closed by v at room s, at budget b = top - s + |v|, has
    parity (top - b) % 2 exactly when (v > 0) ^ |v| % 2 equals the parity
    of a[1..t] ^ s % 2, so with _one_parity list mode builds only the tuples
    of the range whose v passes that test.

    In order by size, an entry at least a[i] is also at least a[i] in size,
    so fewer prefixes fit the budget than in sorted order: ``_walk_type``
    counts by size and lists in sorted order, which is ``list`` order.
    """
    sizes = [abs(v) for v in values]
    signs = [v > 0 for v in values]
    sufmin = list(accumulate(reversed(sizes), min))[::-1]
    lo_of, hi_of = [], []  # the run of size at most s, empty below the least size
    for s in range(top + 1):
        within = [i for i, size in enumerate(sizes) if size <= s]
        lo_of.append(within[0] if within else 0)
        hi_of.append(within[-1] + 1 if within else 0)
    least = min(sizes, default=top + 1)  # no values: no entry fits
    if count:
        # starts[par][s][x] is how many ranges of last entries that close a
        # prefix of parity par and room s start at index x; each ends at hi_of[s]
        starts = [[[0] * len(values) for _ in range(top + 1)] for _ in (0, 1)]
    else:
        found = [[[] for _ in range(b // least + 1)] for b in range(top + 1)]
    a = [0] * (top // least + 1)  # a[t] is the index of the entry at position t >= 1

    def extend(t, p, rem, odd, ends, run):
        # t is the position to fill, p the period of a[1..t-1], rem the size
        # left below top for the entries from position t on, and odd the
        # parity of the count of positive entries in a[1..t-1]; ends holds the
        # ends j of the runs of m = a[1] that a lesser reversal may start at:
        # first lead, the run that starts a[1..t-1], final once it is below
        # t - 1, then each inner run as long as lead whose reversal a[j:0:-1]
        # equals a[1:j+1]; run is the run of m that ends a[t-1] after lead
        m = a[1]
        lead = ends[0]
        floor = sufmin[m]  # the least size of the entries after position t
        last = floor  # and of the last entry
        if dihedral and lead < t - 1:
            last = sufmin[a[lead + 1]]
        cap = rem - last  # the largest size position t may take
        if cap < 0:
            return
        prev = a[t - p]
        start = lo_of[cap]  # the first index at least prev and of size at most cap
        if prev > start:
            start = prev
        deep = floor + last  # the least s that leaves room for one more entry
        k = t + 1
        if not count:  # the values of a[1..t-1], which every tuple closed here starts with
            stem = tuple([values[i] for i in a[1:t]])
        for x in range(start, hi_of[cap]):
            a[t] = x
            q = p if x == prev else t
            s = rem - sizes[x]
            par = odd ^ signs[x]
            if x != m or not dihedral:  # the runs of m matter only to bracelets
                new_ends, new_run = ends, 0
            elif lead == t - 1:  # the leading run grows, and no inner run has begun
                new_ends, new_run = (t,), 0
            elif run + 1 < lead:
                new_ends, new_run = ends, run + 1
            else:  # an inner run as long as the leading one ends at t
                back, ahead = a[t:0:-1], a[1:t + 1]
                if back < ahead:
                    continue  # its reversal, read from a[t], is less
                new_ends = ends + (t,) if back == ahead else ends
                new_run = run + 1
            # close the tuple of k entries with every last entry v from the
            # bound up to size s; the bound is a necklace if q divides k when
            # it equals a[k - q], and a bracelet unless, for some j in ends
            # with a[j + 1] equal to it, a[k:j:-1] is below a[j + 1:k + 1]
            low = bound = a[k - q]
            if dihedral:
                for j in ends:
                    if a[j + 1] > bound:
                        bound = a[j + 1]
            lo = lo_of[s]
            hi = hi_of[s]
            if bound >= lo:  # else every v of size at most s is above the bound
                a[k] = bound
                closes = bound < hi and (bound > low or not k % q)
                if closes and dihedral:
                    for j in ends:
                        if a[j + 1] == bound and a[j + 1:k + 1] > a[k:j:-1]:
                            closes = False
                            break
                lo = bound + (not closes)
            if lo < hi:
                if count:
                    starts[par][s][lo] += 1
                else:
                    head = stem + (values[x],)
                    want = par ^ s & 1  # (v > 0) ^ |v| % 2 for a tuple of parity (top - b) % 2
                    for v in values[lo:hi]:
                        if _one_parity and (v > 0) ^ (v & 1) != want:
                            continue
                        found[top - s + abs(v)][k].append(head + (v,))
            if s >= deep:
                extend(k, q, s, par, new_ends, new_run)

    # position 1 leaves room for two more entries, neither of them smaller
    # than the least size from a[1] on
    for x, size in enumerate(sizes):
        if size + 2 * sufmin[x] <= top:
            a[1] = x
            extend(2, 1, top - size, signs[x], (1,), 0)
    if not count:
        return found
    tally = [[0, 0] for _ in range(top + 1)]
    for par, by_room in enumerate(starts):
        for s, started in enumerate(by_room):
            closing = 0  # how many prefixes of room s the index closes
            for x in range(lo_of[s], hi_of[s]):
                closing += started[x]
                if closing:
                    tally[top - s + sizes[x]][par ^ signs[x]] += closing
    return tally


def _strip_values(link_type: int, top: int) -> list[int]:
    """The sorted strip entries a code of the type may hold, of size at most top."""
    if link_type == 1:
        return list(range(3, top + 1, 2))
    if link_type == 2:
        return list(range(2, top + 1, 2))
    return list(range(-top + top % 2, -1, 2)) + list(range(2, top + 1))


def _walk_type(link_type: int, top: int, ceiling: int, count: bool = False) -> list:
    """``_necklaces``' walk of the type's classes at budget top: bracelets for
    types 2 and 3, and a type 3 listing keeps at budget b only the parity
    (top - b) % 2 that its codes need.  Refuses a link type other than the
    ints 1, 2 and 3, a ceiling that is not an int (bools included) or is
    below 1, and a top below 1 or above the ceiling."""
    if type(link_type) is not int or link_type not in (1, 2, 3):
        raise ValueError(f"link type must be 1, 2 or 3, got {link_type}")
    if type(ceiling) is not int:
        raise ValueError(f"the enumeration ceiling must be an int, got {ceiling!r}")
    if ceiling < 1:
        raise ValueError(f"the enumeration ceiling must be positive, got {ceiling}")
    check_c(top, ceiling, "exhaustive enumeration at", "raise it with --ceiling")
    values = _strip_values(link_type, top)
    if count:
        return _necklaces(sorted(values, key=abs), top, dihedral=link_type > 1, count=True)
    return _necklaces(values, top, dihedral=link_type > 1, _one_parity=link_type == 3)


def class_counts(max_c: int, ceiling: int = DEFAULT_ENUM_CEILING
                 ) -> tuple[list[int], list[int], list[int]]:
    """The p1, p2 and p3 columns of ``counts.columns``, 0 <= c <= max_c, as the
    lengths of ``tcodes.enumerate_classes``.  Refuses max_c below 1 or above
    the ceiling.

    Each type is walked once, at budget max_c, by ``_walk_type``'s count
    mode, over its strip values by size (type 3's -2j before 2j), and the
    columns read the counts per budget: p1 sums type 1 over the budgets up
    to c, p2 is type 2 at c, and p3 sums type 3 over the budgets b up to c
    at parity c - b, less p2 for the all-negative bracelets at delta = 0
    (k1 = 0, so delta + k1 is below 2), which negation maps one to one onto
    the type 2 classes at c.
    """
    ones, twos, threes = (_walk_type(link_type, max_c, ceiling, count=True)
                          for link_type in (1, 2, 3))
    p2 = list(map(sum, twos))
    return (list(accumulate(map(sum, ones))), p2,
            [sum(threes[b][(c - b) % 2] for b in range(c + 1)) - p2[c]
             for c in range(max_c + 1)])
