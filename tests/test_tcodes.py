import sys
from itertools import product

import pytest

from pretzeltab import walk
from pretzeltab.combinat import DEFAULT_ENUM_CEILING, ResourceLimitError
from pretzeltab.counts import columns
from pretzeltab.necklaces import point_columns
from pretzeltab.tcodes import (
    _least_dihedral,
    _least_rotation,
    TCode,
    canonicalize,
    enumerate_classes,
    violation,
)
from pretzeltab.walk import _necklaces, class_counts

from brute import by_parity, composition_class_count, least_rotations, orbit, signed_class_count
from helpers import run_python


def strip_values(link_type, top):
    """The strip entries a code of the type may hold, of size at most top."""
    if link_type == 1:
        return range(3, top + 1, 2)
    if link_type == 2:
        return range(2, top + 1, 2)
    return [s for s in range(-top, top + 1) if s >= 2 or (s <= -2 and s % 2 == 0)]


def brute_force_codes(c, link_type):
    """Every valid code of the type at c crossings, from a plain product over
    strip values; independent of the oracle's generators."""
    for k in range(3, c // 2 + 1):
        # the other k - 1 strips take at least 2 crossings each
        for strips in product(strip_values(link_type, c - 2 * (k - 1)), repeat=k):
            code = TCode(link_type, c - sum(abs(s) for s in strips), strips)
            if violation(code) is None:
                yield code


class TestValidate:
    def test_valid_examples(self):
        assert violation(TCode(1, 1, (5, 5, 3))) is None
        assert violation(TCode(3, 1, (-4, 4, 2, 4))) is None
        assert violation(TCode(2, 0, (2, 2, 2))) is None

    def test_too_few_strips(self):
        assert violation(TCode(2, 0, (2, 2))) == "a pretzel code needs at least 3 strips"

    def test_type1_rules(self):
        assert violation(TCode(1, 0, (3, 3, 4))) is not None   # even strip
        assert violation(TCode(1, 0, (3, 3, 1))) is not None   # too small
        assert violation(TCode(1, -1, (3, 3, 3))) is not None  # negative delta

    def test_type2_rules(self):
        assert violation(TCode(2, 1, (2, 2, 2))) is not None   # delta forbidden
        assert violation(TCode(2, 0, (2, 3, 2))) is not None   # odd strip

    def test_type3_rules(self):
        assert violation(TCode(3, 0, (1, 2, -2))) is not None       # positive strip too small
        assert violation(TCode(3, 0, (2, 2, -3))) is not None       # odd negative strip
        assert violation(TCode(3, 0, (2, 2, -1))) is not None       # negative strip below 2
        assert violation(TCode(3, 1, (2, 2, -2))) is not None       # delta + positives odd
        assert violation(TCode(3, 0, (-2, -2, -2))) is not None     # delta + positives below 2
        assert violation(TCode(3, 2, (-2, -2, -2))) is None
        assert violation(TCode(3, 2, (2, 0, -2))) == "strip entries must be non-zero"

    def test_bad_type_tag(self):
        assert violation(TCode(4, 0, (2, 2, 2))) is not None

    def test_entries_that_are_not_ints(self):
        assert violation(TCode(1, 0, (3, 3, 3.5))) == \
            "the link type, delta and strip entries must be ints, got 3.5"
        assert violation(TCode(1, 0, ("3", "3", "3"))) == \
            "the link type, delta and strip entries must be ints, got '3'"
        assert violation(TCode(1, 1.0, (3, 3, 3))) == \
            "the link type, delta and strip entries must be ints, got 1.0"
        assert violation(TCode(1.0, 0, (3, 3, 3))) == \
            "the link type, delta and strip entries must be ints, got 1.0"
        # a bool is an int subclass, but would print as P1(True;3,3,3)
        assert violation(TCode(1, True, (3, 3, 3))) == \
            "the link type, delta and strip entries must be ints, got True"


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(TCode(1, 0, (5, 3, 3))).strips == (3, 3, 5)
        assert canonicalize(TCode(2, 0, (4, 2, 2))).strips == (2, 2, 4)
        a = canonicalize(TCode(3, 0, (3, -2, 3, -2)))
        b = canonicalize(TCode(3, 0, (-2, 3, -2, 3)))
        assert a == b == TCode(3, 0, (-2, 3, -2, 3))

    @pytest.mark.parametrize("k, refused", [(3400, True), (3333, False)])
    def test_refuses_codes_above_max_c(self, k, refused):
        # 3,400 strips of 3 make 10,200 crossings, over MAX_C = 10,000
        script = ("from pretzeltab.tcodes import TCode, canonicalize\n"
                  f"print(len(canonicalize(TCode(1, 0, (3,) * {k})).strips))")
        child = run_python("-c", script, timeout=30)
        if refused:
            assert child.returncode == 1 and child.stdout == ""
            assert child.stderr.splitlines()[-1] == (
                "pretzeltab.combinat.ResourceLimitError: a code of 10200 crossings exceeds"
                " the limit of 10000 (combinat.MAX_C)")
        else:
            assert child.returncode == 0 and child.stdout == "3333\n"

    def test_rejects_invalid_code(self):
        with pytest.raises(ValueError) as excinfo:
            canonicalize(TCode(2, 0, (2, 2)))
        assert str(excinfo.value) == ("invalid code TCode(link_type=2, delta=0, strips=(2, 2)):"
                                      " a pretzel code needs at least 3 strips")

    @pytest.mark.parametrize("strips", [(3, 3, 3.5), ("3", "3", "3")])
    def test_rejects_entries_that_are_not_ints(self, strips):
        with pytest.raises(ValueError, match="must be ints"):
            canonicalize(TCode(1, 0, strips))

    def test_returns_tuple_strips(self):
        code = canonicalize(TCode(2, 0, [2, 4, 2]))
        assert code == TCode(2, 0, (2, 2, 4)) and type(code.strips) is tuple
        assert hash(code) == hash(TCode(2, 0, (2, 2, 4)))

    def test_type1_ignores_reversal(self):
        # (3,5,7) reversed is (7,5,3); rotations of the two differ
        code = canonicalize(TCode(1, 0, (5, 7, 3)))
        assert code.strips == (3, 5, 7)
        reverse = canonicalize(TCode(1, 0, (7, 5, 3)))
        assert reverse.strips == (3, 7, 5)
        assert code != reverse

    def test_idempotent(self):
        for code in enumerate_classes(10, 3) + enumerate_classes(12, 2) + enumerate_classes(13, 1):
            assert canonicalize(code) == code

    def test_constant_on_each_orbit(self):
        for code in enumerate_classes(10, 3) + enumerate_classes(13, 1):
            for image in orbit(code):
                assert canonicalize(image) == code


class TestEnumerateClasses:
    def test_single_class_examples(self):
        assert enumerate_classes(9, 1) == [TCode(1, 0, (3, 3, 3))]
        assert enumerate_classes(6, 2) == [TCode(2, 0, (2, 2, 2))]

    def test_representatives_are_valid_and_sized(self):
        # each class once, in output order: strictly increasing without a set or a sort
        for c in range(1, 15):
            for link_type in (1, 2, 3):
                classes = enumerate_classes(c, link_type)
                for code in classes:
                    assert violation(code) is None, code
                    assert code.link_type == link_type
                    assert code.delta + sum(map(abs, code.strips)) == c, code
                    assert canonicalize(code) == code, code
                keys = [(code.delta, len(code.strips), code.strips) for code in classes]
                assert all(a < b for a, b in zip(keys, keys[1:])), (c, link_type)

    def test_anchored_generation_loses_no_class(self):
        for c in range(1, 13):
            for link_type in (1, 2, 3):
                expected = {canonicalize(code) for code in brute_force_codes(c, link_type)}
                assert set(enumerate_classes(c, link_type)) == expected, (c, link_type)

    def test_empty_below_thresholds(self):
        assert enumerate_classes(5, 3) == []
        assert enumerate_classes(8, 1) == []
        assert enumerate_classes(7, 2) == []


def group(walked, k):
    """The k-entry tuples of one budget of a walk; the list stops
    at the most entries the budget holds."""
    return walked[k] if k < len(walked) else []


class TestGenerators:
    def test_raw_codes_are_valid_sized_and_distinct(self):
        # _necklaces' output before enumerate_classes keeps the bracelets; one
        # walk at c serves every delta
        for link_type in (1, 2, 3):
            for c in range(6, 15):
                walked = _necklaces(list(strip_values(link_type, c)), c)
                for delta in range(1 if link_type == 2 else c):
                    for parity in (delta % 2,) if link_type == 3 else (0, 1):
                        case = (link_type, c, delta, parity)
                        for k, listed in enumerate(walked[c - delta]):
                            raw = by_parity(listed, parity)
                            assert k >= 3 or raw == [], (case, k)
                            # distinct and in lexicographic order
                            assert all(a < b for a, b in zip(raw, raw[1:])), (case, k)
                            for strips in raw:
                                assert len(strips) == k, strips
                                assert strips == _least_rotation(strips), strips
                                assert sum(s > 0 for s in strips) % 2 == parity, strips
                                code = TCode(link_type, delta, strips)
                                if link_type == 3 and not delta and max(strips) < 0:
                                    assert violation(code) is not None, code  # dropped by the oracle
                                else:
                                    assert violation(code) is None, code
                                    assert code.delta + sum(map(abs, code.strips)) == c, code

    def test_dihedral_filter_keeps_exactly_the_bracelets(self):
        # the inline reversal checks against the definition, a necklace that is
        # its own least dihedral image, over the raw necklaces of every budget
        # and strip count of one walk
        for link_type in (1, 2, 3):
            for c in range(6, 17):
                values = list(strip_values(link_type, c))
                raw = _necklaces(values, c)
                bracelets = _necklaces(values, c, dihedral=True)
                assert bracelets == [[[s for s in necklaces if s == _least_dihedral(s)]
                                      for necklaces in by_k] for by_k in raw], (link_type, c)

    def test_one_walk_serves_every_budget(self):
        # a walk at the top budget, read at a lower budget b, is the walk at b:
        # every prune reads the prefix's room, never the top budget alone
        for link_type in (1, 2, 3):
            values = walk._strip_values(link_type, 18)
            for dihedral in (False, True):
                for count in (False, True):
                    walks = [_necklaces(values, top, dihedral, count) for top in range(19)]
                    for top, walked in enumerate(walks):
                        assert len(walked) == top + 1
                        for b in range(top + 1):
                            assert walked[b] == walks[b][b], (link_type, dihedral, count, top, b)

    def test_one_parity_keeps_only_the_parity_of_the_room(self):
        # class_strips' type 3 walk: at budget b, the tuples of parity
        # (top - b) % 2 as the full walk lists them, and no other
        for link_type in (1, 2, 3):
            for top in range(19):
                values = walk._strip_values(link_type, top)
                for dihedral in (False, True):
                    full = _necklaces(values, top, dihedral)
                    one = _necklaces(values, top, dihedral, _one_parity=True)
                    assert one == [[by_parity(listed, (top - b) % 2) for listed in by_k]
                                   for b, by_k in enumerate(full)], (link_type, top, dihedral)

    def test_each_frame_has_room_for_its_entry_and_the_last(self):
        # a looser bound on the recursion changes no tuple, only the work
        rems = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "extend":
                rems.append(frame.f_locals["rem"])

        for link_type in (1, 2, 3):
            values = walk._strip_values(link_type, 18)
            least = min(map(abs, values))
            for dihedral in (False, True):
                rems.clear()
                sys.setprofile(profile)
                try:
                    _necklaces(values, 18, dihedral, count=True)
                finally:
                    sys.setprofile(None)
                assert rems and min(rems) >= 2 * least, (link_type, dihedral)

    def test_count_mode_makes_its_pinned_frames(self):
        # class_counts' walks, by size, at 20 and 24: types 1, 2 and 3.  A
        # change that prunes more moves these numbers, and says so
        pinned = {20: [17, 58, 2_733], 24: [49, 166, 27_143]}
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "extend":
                calls += 1

        for top, frames in pinned.items():
            made = []
            for link_type in (1, 2, 3):
                calls = 0
                sys.setprofile(profile)
                try:
                    _necklaces(sorted(walk._strip_values(link_type, top), key=abs), top,
                               dihedral=link_type > 1, count=True)
                finally:
                    sys.setprofile(None)
                made.append(calls)
            assert made == frames, top

    def test_short_tuples_match_a_plain_product(self):
        # the walk closes only k >= 3, and composition_class_count takes k = 2
        # from least_rotations: both are held to the product here
        for link_type in (1, 2, 3):
            values = list(strip_values(link_type, 9))
            walked = _necklaces(values, 9)
            walked_bracelets = _necklaces(values, 9, dihedral=True)
            for budget in range(2, 10):
                for parity in (0, 1):
                    for k in (2, 3):
                        tuples = [t for t in product(values, repeat=k)
                                  if sum(map(abs, t)) == budget
                                  and sum(s > 0 for s in t) % 2 == parity]
                        necklaces = sorted({_least_rotation(t) for t in tuples})
                        bracelets = sorted({_least_dihedral(t) for t in tuples})
                        case = (link_type, budget, k, parity)
                        listed = by_parity(group(walked[budget], k), parity)
                        listed_bracelets = by_parity(group(walked_bracelets[budget], k), parity)
                        if k == 2:
                            assert listed == listed_bracelets == [], case
                            assert least_rotations(values, k, budget, parity) == necklaces, case
                            assert necklaces == bracelets, case
                        else:
                            assert listed == necklaces, case
                            assert listed_bracelets == bracelets, case


class TestCountClasses:
    def test_counts_what_enumerate_classes_lists(self):
        # every last column entry, odd and even
        listed = [[len(enumerate_classes(c, t)) for c in range(1, 17)] for t in (1, 2, 3)]
        for max_c in range(1, 17):
            assert class_counts(max_c) == tuple([0] + column[:max_c] for column in listed), max_c

    def test_every_route_has_one_shape(self):
        # the oracle, the cycle index and the per-point formula, index 0 included
        for c in (1, 2, 6, 22):
            assert class_counts(c, ceiling=c) == columns(c) == point_columns(c), c

    def test_refuses_above_the_ceiling(self):
        with pytest.raises(ResourceLimitError):
            class_counts(DEFAULT_ENUM_CEILING + 1)
        with pytest.raises(ResourceLimitError):
            class_counts(9, ceiling=8)
        assert [column[10] for column in class_counts(10, ceiling=10)] == [1, 4, 38]

    def test_walks_once_when_called(self, monkeypatch):
        asked = []
        necklaces = walk._necklaces

        def recording(values, top, dihedral=False, count=False):
            asked.append((tuple(values), top, dihedral, count))
            return necklaces(values, top, dihedral, count)

        monkeypatch.setattr(walk, "_necklaces", recording)
        with pytest.raises(ResourceLimitError):
            class_counts(21, ceiling=20)
        assert asked == []
        # each type once, at the top budget, and nothing more: types 1 and 2
        # in sorted order, type 3 by size, -2j before 2j
        class_counts(20)
        by_size = tuple(v for size in range(2, 21) for v in (-size, size) if v > 0 or not size % 2)
        assert asked == [(tuple(walk._strip_values(1, 20)), 20, False, True),
                         (tuple(walk._strip_values(2, 20)), 20, True, True),
                         (by_size, 20, True, True)]

    def test_count_mode_counts_the_list(self):
        # one walk counts both parities of every budget
        for link_type in (1, 2, 3):
            values = list(strip_values(link_type, 16))
            for top in range(1, 17):
                for dihedral in (False, True):
                    counted = _necklaces(values, top, dihedral, count=True)
                    listed = _necklaces(values, top, dihedral)
                    assert counted == [[sum(len(by_parity(tuples, parity)) for tuples in by_k)
                                        for parity in (0, 1)]
                                       for by_k in listed], (link_type, top, dihedral)

    @pytest.mark.parametrize("top", [24, pytest.param(28, marks=pytest.mark.slow)])
    def test_size_order_counts_what_sorted_order_counts(self, top):
        # class_counts walks type 3 by size; about 3 s at 28, left out of the
        # default run (see pyproject.toml)
        values = walk._strip_values(3, top)
        for dihedral in (False, True):
            assert _necklaces(sorted(values, key=abs), top, dihedral, count=True) == \
                _necklaces(values, top, dihedral, count=True), (top, dihedral)

    def test_all_negative_bracelets_match_type_2(self):
        # the identity that lets class_counts subtract p2 from type 3's
        # delta = 0 count: negation maps those bracelets onto the type 2 classes
        walked = _necklaces(list(range(-20, -1, 2)), 20, dihedral=True)
        for c in range(1, 21):
            assert sum(len(by_parity(listed, 0)) for listed in walked[c]) == \
                len(enumerate_classes(c, 2)), c


class TestCeiling:
    def test_explicit_argument_wins(self):
        # over the default, both below it and above it
        with pytest.raises(ResourceLimitError):
            enumerate_classes(9, 2, ceiling=8)
        assert enumerate_classes(8, 2, ceiling=8)  # at the ceiling is allowed
        assert len(enumerate_classes(10, 3, ceiling=10)) == 38
        assert enumerate_classes(DEFAULT_ENUM_CEILING + 1, 1, ceiling=DEFAULT_ENUM_CEILING + 1)


class TestOrbitCounts:
    def test_composition_examples(self):
        assert composition_class_count(7, 3) == 5
        assert composition_class_count(7, 3, dihedral=True) == 4

    def test_signed_example(self):
        assert signed_class_count(4, 2, 2, 2) == 4


class TestRendering:
    def test_strings(self):
        assert str(TCode(1, 1, (5, 5, 3))) == "P1(1;5,5,3)"
        assert str(TCode(3, 1, (-4, 4, 2, 4))) == "P3(1;-4,4,2,4)"
        assert str(TCode(2, 0, (2, 2, 2))) == "P2(2,2,2)"
        assert str(TCode(1, 0, (3, 3, 3))) == "P1(0;3,3,3)"
