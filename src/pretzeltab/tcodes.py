"""Strip codes for alternating oriented pretzel links and the exhaustive oracle.

A code carries a type tag (1, 2 or 3), the horizontal twist count delta, and
the ordered tuple of strip sizes (negative entries are negatively signed
strips).  Two codes describe the same link exactly when they have equal type
and delta and their strip tuples agree up to rotation (type 1) or up to
rotation and reversal (types 2 and 3).

``enumerate_classes`` generates the valid codes at a crossing number whose
strips start with their least entry (the min anchor), canonicalizes, and
deduplicates; it is the brute-force ground truth that the closed-form
counters in ``counts`` are checked against.  The anchor loses no class,
because a canonical form, the least rotation of the strips or of their
reversal, always starts with the least entry.  Exhaustive enumeration grows
exponentially with the crossing number, so it refuses to run above a
ceiling (``ceiling`` argument, the CLI's ``--ceiling``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterator

from .combinat import binom, compositions

DEFAULT_ENUM_CEILING = 22
# Largest family the brute-force orbit counters below will materialise.
FAMILY_LIMIT = 5_000_000


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its size ceiling."""


def check_ceiling(c: int, ceiling: int) -> None:
    """Refuse exhaustive enumeration at c crossings above the ceiling."""
    if ceiling < 1:
        raise ValueError(f"the enumeration ceiling must be positive, got {ceiling}")
    if c > ceiling:
        raise ResourceLimitError(
            f"exhaustive enumeration at {c} crossings exceeds the ceiling of {ceiling}"
            " (raise it with --ceiling)")


@dataclass(frozen=True)
class TCode:
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


def is_valid(code: TCode) -> bool:
    return violation(code) is None


def _require_valid(code: TCode) -> None:
    problem = violation(code)
    if problem is not None:
        raise ValueError(f"invalid code {code!r}: {problem}")


def crossing_number(code: TCode) -> int:
    """delta plus the total strip size of a valid code."""
    _require_valid(code)
    return code.delta + sum(abs(s) for s in code.strips)


def _least_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    if not t:
        return t
    # a least rotation starts at a position holding the least entry
    least = min(t)
    k = len(t)
    doubled = t + t
    return min(doubled[i:i + k] for i, s in enumerate(t) if s == least)


def _least_dihedral(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(_least_rotation(t), _least_rotation(t[::-1]))


_LEAST = {1: _least_rotation, 2: _least_dihedral, 3: _least_dihedral}


def canonicalize(code: TCode) -> TCode:
    """The representative of the code's equivalence class.

    Lexicographically least strip tuple over the class: the k rotations for
    type 1, the 2k rotations and reversed rotations for types 2 and 3.
    Entries compare in ordinary integer order, so negative strips sort first.
    Idempotent; delta and type are preserved.
    """
    _require_valid(code)
    return TCode(code.link_type, code.delta, _LEAST[code.link_type](code.strips))


def _anchored_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The k-part compositions of n whose first part is their least, each once."""
    if k == 0:
        yield from compositions(n, 0)
        return
    for least in range(1, n // k + 1):
        # the other k - 1 parts are at least `least`: shift a composition of the rest
        shift = least - 1
        for tail in compositions(n - least - shift * (k - 1), k - 1):
            yield (least,) + tuple(a + shift for a in tail)


def _signed_tuples(positives: list[tuple[int, ...]], negatives: list[tuple[int, ...]],
                   k1: int, k2: int) -> Iterator[tuple[int, ...]]:
    """Every interleaving of one k1-entry tuple of positive entries and one
    k2-entry tuple of negative entries that starts with its least entry and
    whose second entry is at most its last, each once (see
    ``enumerate_classes``).

    With k2 > 0 the least entry is negative: position 0 is a negative spot
    and only negative part tuples led by their least are placed.
    """
    k = k1 + k2
    if k2:
        negatives = [parts for parts in negatives if parts[0] == min(parts)]
        spot_sets = [(0,) + rest for rest in combinations(range(1, k), k2 - 1)]
    else:
        positives = [parts for parts in positives if not parts or parts[0] == min(parts)]
        spot_sets = [()]
    for negative_spots in spot_sets:
        # position i of the tuple takes entry order[i] of pos_parts + neg_parts
        pos_at = iter(range(k1))
        neg_at = iter(range(k1, k))
        order = [next(neg_at) if i in negative_spots else next(pos_at) for i in range(k)]
        # itemgetter of one index returns a bare entry; with k < 2 the order is the identity
        pick = itemgetter(*order) if k > 1 else tuple
        for pos_parts in positives:
            for neg_parts in negatives:
                t = pick(pos_parts + neg_parts)
                if k < 2 or t[1] <= t[-1]:
                    yield t


# The generators below yield (delta, strips) for valid codes only, each once,
# and only the strips that ``enumerate_classes`` describes.

def _generate_type1(c: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    for delta in range(max(0, c - 8)):
        budget = c - delta
        for k in range(3, budget // 3 + 1):
            if (budget - k) % 2:
                continue
            for parts in _anchored_compositions((budget - k) // 2, k):
                yield delta, tuple(2 * a + 1 for a in parts)


def _generate_type2(c: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    if c % 2 or c < 6:
        return
    half = c // 2
    for k in range(3, half + 1):
        for parts in _anchored_compositions(half, k):
            if parts[1] <= parts[-1]:
                yield 0, tuple(2 * a for a in parts)


def _generate_type3(c: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    for delta in range(max(0, c - 5)):
        budget = c - delta
        for k in range(3, budget // 2 + 1):
            # k1 positive strips with delta + k1 even and at least 2
            for k1 in range(max(2 - delta, delta % 2), k + 1, 2):
                k2 = k - k1
                for m2 in range(2 * k2, budget - 2 * k1 + 1, 2):
                    positives = [tuple(a + 1 for a in parts)
                                 for parts in compositions(budget - m2 - k1, k1)]
                    negatives = [tuple(-2 * a for a in parts)
                                 for parts in compositions(m2 // 2, k2)]
                    for strips in _signed_tuples(positives, negatives, k1, k2):
                        yield delta, strips


_GENERATORS = {1: _generate_type1, 2: _generate_type2, 3: _generate_type3}


def enumerate_classes(c: int, link_type: int, ceiling: int = DEFAULT_ENUM_CEILING) -> list[TCode]:
    """All equivalence classes of the given type at crossing number c.

    Generates valid codes, canonicalizes and deduplicates; returns the
    representatives sorted by (delta, strip count, strips).  Only positive
    type 1 and type 2 codes are generated (one link per mirror pair).

    Only codes whose strips start with their least entry are generated (the
    min anchor), and for types 2 and 3 only those with strips[1] <=
    strips[-1].  No class is lost: its canonical form, the least rotation of
    the strips or (types 2 and 3) of their reversal, starts with the least
    entry, and its second entry is at most its last, because otherwise the
    reversal read backwards from that first entry would be less.

    Refuses c above the enumeration ceiling (``check_ceiling``).
    """
    if c < 1:
        raise ValueError(f"crossing number must be positive, got {c}")
    if link_type not in _GENERATORS:
        raise ValueError(f"link type must be 1, 2 or 3, got {link_type}")
    check_ceiling(c, ceiling)
    least = _LEAST[link_type]
    classes = {(delta, least(strips)) for delta, strips in _GENERATORS[link_type](c)}
    return [TCode(link_type, delta, strips)
            for delta, strips in sorted(classes, key=lambda t: (t[0], len(t[1]), t[1]))]


_CANON = {"cyclic": _least_rotation, "dihedral": _least_dihedral}


def _canon_for(symmetry: str):
    try:
        return _CANON[symmetry]
    except KeyError:
        raise ValueError(f"symmetry must be 'cyclic' or 'dihedral', got {symmetry!r}") from None


def _guard_family(size: int) -> None:
    if size > FAMILY_LIMIT:
        raise ResourceLimitError(f"family of {size} tuples exceeds the limit of {FAMILY_LIMIT}")


def composition_class_count(n: int, k: int, symmetry: str = "cyclic") -> int:
    """Brute-force orbit count of k-part compositions of n under the chosen
    symmetry, by canonical-form deduplication of the compositions whose
    first part is their least (every canonical form is one of them)."""
    canon = _canon_for(symmetry)
    _guard_family(binom(n - 1, k - 1))
    return len({canon(t) for t in _anchored_compositions(n, k)})


def signed_class_count(n1: int, k1: int, n2: int, k2: int) -> int:
    """Brute-force count of dihedral classes of signed tuples: k1 positive
    entries summing to n1 and k2 negative entries whose sizes sum to n2,
    under rotation and reversal of the k1 + k2 positions."""
    # an empty family contributes one empty tuple, not binom(-1, -1) = 0
    _guard_family(binom(k1 + k2, k2) * (binom(n1 - 1, k1 - 1) if k1 else 1)
                  * (binom(n2 - 1, k2 - 1) if k2 else 1))
    positives = list(compositions(n1, k1))
    negatives = [tuple(-a for a in parts) for parts in compositions(n2, k2)]
    return len({_least_dihedral(t) for t in _signed_tuples(positives, negatives, k1, k2)})
