from itertools import chain

import pytest

from pretzeltab.necklaces import _reflection_sum, bracelet_count, signed_bracelet_count

from brute import interleavings, signed_class_count


def brute_reflection_average(n1, k1, n2, k2):
    """Independent oracle: mean number of signed tuples fixed per reflection."""
    family = list(interleavings(n1, k1, n2, k2))
    k = k1 + k2
    total = 0
    for axis in range(k):
        total += sum(
            1 for t in family
            if all(t[i] == t[(axis - i) % k] for i in range(k))
        )
    assert total % k == 0
    return total // k


def param_grid(max_k, max_n):
    for k1 in range(1, max_k):
        for k2 in range(1, max_k - k1 + 1):
            for n1 in range(k1, max_n + 1):
                for n2 in range(k2, max_n + 1):
                    yield n1, k1, n2, k2


class TestSignedReflectionSum:
    # _reflection_sum adds up the fixed signed tuples over all k1 + k2 reflections.
    def test_examples(self):
        assert _reflection_sum(3, 1, 3, 1) == 2
        assert _reflection_sum(3, 3, 2, 2) == 10

    def test_matches_brute_force(self):
        # one family (k2 = 0) for n <= 12, then both families
        one_family = ((n, k, 0, 0) for n in range(1, 13) for k in range(1, n + 1))
        for n1, k1, n2, k2 in chain(one_family, param_grid(max_k=6, max_n=7)):
            assert _reflection_sum(n1, k1, n2, k2) == \
                (k1 + k2) * brute_reflection_average(n1, k1, n2, k2), (n1, k1, n2, k2)


class TestSignedBraceletCount:
    def test_examples(self):
        assert signed_bracelet_count(2, 2, 1, 1) == 1
        assert signed_bracelet_count(4, 2, 2, 2) == 4
        assert signed_bracelet_count(6, 3, 0, 0) == 3

    def test_degenerate_cases_reduce_to_one_colour(self):
        for n in range(1, 19):
            for k in range(1, n + 1):
                assert signed_bracelet_count(n, k, 0, 0) == bracelet_count(n, k)
                assert signed_bracelet_count(0, 0, n, k) == bracelet_count(n, k)

    def test_colour_swap_symmetry(self):
        for n1, k1, n2, k2 in param_grid(max_k=6, max_n=7):
            assert signed_bracelet_count(n1, k1, n2, k2) == \
                signed_bracelet_count(n2, k2, n1, k1)

    def test_matches_brute_force(self):
        # full sweep of the documented verification range
        for n1, k1, n2, k2 in param_grid(max_k=7, max_n=9):
            assert signed_bracelet_count(n1, k1, n2, k2) == \
                signed_class_count(n1, k1, n2, k2), (n1, k1, n2, k2)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            signed_bracelet_count(1, 2, 0, 0)  # n1 < k1
        with pytest.raises(ValueError):
            signed_bracelet_count(3, 0, 2, 2)  # weight without beads
        with pytest.raises(ValueError):
            signed_bracelet_count(2, 2, 5, 0)
