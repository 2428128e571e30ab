"""Strip codes for alternating oriented pretzel links and the classes they list.

A code carries a type tag (1, 2 or 3), the horizontal twist count delta, and
the ordered tuple of strip sizes (negative entries are negatively signed
strips).  Two codes describe the same link exactly when they have equal type
and delta and their strip tuples agree up to rotation (type 1) or up to
rotation and reversal (types 2 and 3).

``enumerate_classes`` lists the orderly exhaustive oracle's classes: the
list of ``class_strips``, which yields each class once, as its canonical
``TCode``, already in ``list`` order, so no dedup set and no sort is needed.
It reads the walk that ``walk._walk_type`` makes, and states no rule of it.
``walk.class_counts`` counts the same classes from the same walk without
building a code; ``verify`` checks the closed-form counters in ``counts``
against it and loads ``walk`` alone.

Enumeration grows exponentially with the crossing number, so it refuses to
run above a ceiling (``ceiling`` argument, the CLI's ``--ceiling``), and
``canonicalize`` refuses codes above ``combinat.MAX_C`` crossings.  The
module holds the oracle's codes only; the tests' brute-force orbit counters
live in ``tests/brute.py``.
"""
from typing import Iterator, NamedTuple

from .combinat import DEFAULT_ENUM_CEILING, MAX_C, check_c
from .walk import _walk_type


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
    wrong = [x for x in (code.link_type, code.delta, *code.strips) if type(x) is not int]
    if wrong:
        return f"the link type, delta and strip entries must be ints, got {wrong[0]!r}"
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
        if any(s < 0 and s % 2 for s in code.strips):
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
    Idempotent; delta and type are preserved.  Refuses an invalid code, then,
    before the quadratic step, a code of more than ``combinat.MAX_C``
    crossings: the cost is quadratic in the strip count.
    """
    problem = violation(code)
    if problem is not None:
        raise ValueError(f"invalid code {code!r}: {problem}")
    check_c(code.delta + sum(map(abs, code.strips)), MAX_C, "a code of", "combinat.MAX_C")
    least_form = _least_rotation if code.link_type == 1 else _least_dihedral
    return TCode(code.link_type, code.delta, least_form(tuple(code.strips)))


def class_strips(c: int, link_type: int,
                 ceiling: int = DEFAULT_ENUM_CEILING) -> Iterator[TCode]:
    """Every equivalence class of the given type at crossing number c, as its
    canonical ``TCode``, lazily and in ``list`` order.

    Each class comes once, ordered by (delta, strip count, strips).  Only
    positive type 1 and type 2 codes are generated (one link per mirror
    pair).  One walk at budget c (``walk._walk_type``) lists the canonical
    strip tuples of every budget by strip count, and for each delta,
    ascending, the lists of budget c - delta are read by strip count.  Type
    3 drops, at delta = 0, the all-negative tuples, whose delta + k1 is
    below 2.  The walk's classes are all held at once.

    Refuses, when the first class is asked for, a link type other than the
    ints 1, 2 and 3, a ceiling that is not an int or is below 1, and c below
    1 or above the ceiling.
    """
    walked = _walk_type(link_type, c, ceiling)
    for delta in range(1 if link_type == 2 else c):
        for listed in walked[c - delta]:
            for strips in listed:
                if link_type == 3 and not delta and max(strips) < 0:
                    continue  # k1 = 0: delta + k1 is below 2
                yield TCode(link_type, delta, strips)


def enumerate_classes(c: int, link_type: int, ceiling: int = DEFAULT_ENUM_CEILING) -> list[TCode]:
    """All equivalence classes of the given type at crossing number c, as
    canonical ``TCode``s in ``class_strips`` order."""
    return list(class_strips(c, link_type, ceiling))
