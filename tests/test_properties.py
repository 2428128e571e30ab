"""Invariants checked on random inputs, on top of the fixed sweeps.

Examples are drawn deterministically (``derandomize=True``), so a failure
reproduces on every run.
"""
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pretzeltab.counts import columns
from pretzeltab.signed_bracelets import signed_bracelet_count
from pretzeltab.tcodes import (
    TCode, _least_dihedral, _least_rotation, _necklaces, _strip_values, canonicalize, violation)

from brute import least_rotations, orbit, signed_class_count

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def signed_params(draw):
    """(n1, k1, n2, k2) with at most 6 beads and a family possibly empty."""
    k1 = draw(st.integers(0, 6))
    k2 = draw(st.integers(0 if k1 else 1, 6 - k1))
    n1 = draw(st.integers(k1, k1 + 4)) if k1 else 0
    n2 = draw(st.integers(k2, k2 + 4)) if k2 else 0
    return n1, k1, n2, k2


@st.composite
def valid_codes(draw):
    link_type = draw(st.sampled_from((1, 2, 3)))
    if link_type == 1:
        entries, delta = st.integers(1, 4).map(lambda a: 2 * a + 1), None
    elif link_type == 2:
        entries, delta = st.integers(1, 4).map(lambda a: 2 * a), 0
    else:
        entries, delta = st.integers(2, 6) | st.integers(1, 3).map(lambda a: -2 * a), None
    strips = tuple(draw(st.lists(entries, min_size=3, max_size=7)))
    if link_type == 1:
        delta = draw(st.integers(0, 4))
    elif link_type == 3:
        positives = sum(1 for s in strips if s > 0)
        # delta + positives must be even and at least 2
        delta = 2 * draw(st.integers(0 if positives else 1, 2)) + positives % 2
    return TCode(link_type, delta, strips)


@st.composite
def walk_params(draw):
    """(link_type, budget, k, parity) for one bracelet walk of type 2 or 3,
    read at strip count k >= 3."""
    link_type = draw(st.sampled_from((2, 3)))
    budget = draw(st.integers(6, 20))
    return link_type, budget, draw(st.integers(3, budget // 2)), draw(st.integers(0, 1))


@st.composite
def walk_orders(draw):
    """(link_type, top, dihedral, values): the type's values of size at most
    top in an order that _necklaces takes, by increasing size, each put at a
    drawn end, so that the values of size at most s form one run for every s."""
    link_type = draw(st.sampled_from((1, 2, 3)))
    top = draw(st.integers(0, 16))
    values = []
    for v in sorted(_strip_values(link_type, top), key=abs):
        if draw(st.booleans()):
            values.insert(0, v)
        else:
            values.append(v)
    return link_type, top, draw(st.booleans()), values


@PROPERTY
@given(signed_params())
@example((5, 3, 0, 0))
@example((0, 0, 6, 4))
@example((0, 0, 0, 0))
def test_signed_bracelet_count_matches_brute_force(params):
    assert signed_bracelet_count(*params) == signed_class_count(*params)


@PROPERTY
@given(valid_codes())
def test_canonical_form_is_constant_on_the_orbit_and_idempotent(code):
    assert violation(code) is None
    canonical = canonicalize(code)
    assert all(canonicalize(image) == canonical for image in orbit(code))
    assert canonicalize(canonical) == canonical


@PROPERTY
@given(valid_codes())
def test_canonical_form_starts_with_its_least_entry(code):
    # signed_class_count keeps only such strips before it takes their classes
    strips = canonicalize(code).strips
    assert strips[0] == min(strips)
    if code.link_type != 1:
        assert strips[1] <= strips[-1]


@PROPERTY
@given(walk_params())
@example((3, 15, 6, 0))  # an inner run of the least entry as long as the leading one is pruned
@example((3, 11, 5, 1))  # an inner run that ties the prefix is settled at the last entry
@example((3, 11, 5, 0))  # a[L + 1] == a[k]: the rest of the tuple settles the leading run
@example((3, 13, 5, 1))  # the entry at k - 1 closes an inner run
@example((3, 15, 7, 1))  # inner runs of two least entries
@example((3, 12, 4, 1))  # k % 2 != parity: no all-positive tuple
@example((3, 13, 5, 0))  # the same with an odd k
def test_dihedral_walk_keeps_exactly_the_bracelets(params):
    link_type, budget, k, parity = params
    values = _strip_values(link_type, budget)
    necklaces = _necklaces(values, budget)[budget][parity][k]
    # both walks share the parity test, so the necklaces are checked on their own
    assert necklaces == least_rotations(values, k, budget, parity)
    assert _necklaces(values, budget, dihedral=True)[budget][parity][k] == \
        [s for s in necklaces if s == _least_dihedral(s)]


@PROPERTY
@given(st.tuples(st.sampled_from((2, 3)), st.integers(4, 20), st.just(2), st.integers(0, 1)))
@example((3, 8, 2, 1))  # one positive and one negative strip
def test_two_strips_come_from_the_brute_force(params):
    # the walk closes only k >= 3; composition_class_count takes k = 2 from
    # least_rotations, whose pairs are all bracelets
    link_type, budget, k, parity = params
    values = _strip_values(link_type, budget)
    assert _necklaces(values, budget)[budget][parity][k] == []
    pairs = [t for t in product(values, repeat=k)
             if sum(map(abs, t)) == budget and sum(s > 0 for s in t) % 2 == parity]
    necklaces = least_rotations(values, k, budget, parity)
    assert necklaces == sorted({_least_rotation(t) for t in pairs})
    assert all(s == _least_dihedral(s) for s in necklaces)


@PROPERTY
@given(walk_orders())
@example((3, 16, False, sorted(_strip_values(3, 16), key=abs)))  # class_counts' order
@example((3, 16, True, sorted(_strip_values(3, 16), key=abs)))
@example((3, 12, True, [-12, 12, -8, 8, -4, 4, -2, 2, 3, 5, -6, 6, 7, 9, -10, 10, 11]))
def test_count_mode_does_not_depend_on_the_order(params):
    # the classes, so their number, do not depend on the order of the entries;
    # the sorted walk's lists are checked by the sweeps
    link_type, top, dihedral, values = params
    ordered = _strip_values(link_type, top)
    assert sorted(values) == ordered
    counted = _necklaces(values, top, dihedral, count=True)
    assert counted == _necklaces(ordered, top, dihedral, count=True)
    assert counted == [[sum(map(len, by_k)) for by_k in by_parity]
                       for by_parity in _necklaces(ordered, top, dihedral)]


@PROPERTY
@given(st.integers(2, 300).flatmap(lambda top: st.tuples(st.integers(1, top - 1), st.just(top))))
@example((1, 2))
@example((299, 300))
def test_longer_columns_extend_shorter_ones(sizes):
    c, top = sizes
    assert [column[:c + 1] for column in columns(top)] == list(columns(c))
