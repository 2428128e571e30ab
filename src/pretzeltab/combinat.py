"""Exact integer combinatorics shared by all counters, and the shared limits.

Everything here is pure, exact (Python big integers throughout) and safe to
call concurrently.  The shared limits, ``ResourceLimitError`` and
``DEFAULT_ENUM_CEILING``, live here too, in the base module that the others
build on, so that ``counts`` and the CLI can refuse oversized work without
loading the oracle in ``tcodes``.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

# Largest crossing number the exhaustive oracle enumerates unless told otherwise.
DEFAULT_ENUM_CEILING = 22


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its size ceiling."""


@lru_cache(maxsize=None)
def totient(d: int) -> int:
    """Euler's totient: how many of 1..d are coprime to d.

    Computed from the prime factorization by trial division; d >= 1.
    """
    if d < 1:
        raise ValueError(f"totient is defined for positive integers, got {d}")
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    if m < 1:
        raise ValueError(f"divisors is defined for positive integers, got {m}")
    small = []
    large = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), total over all integer arguments.

    Returns 0 whenever a < 0, b < 0 or b > a, so callers can sum binomials
    without guarding index ranges; C(0, 0) = 1.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def exact_div(value: int, divisor: int, what: str) -> int:
    """value / divisor, raising ArithmeticError unless the division is exact.

    Guards every Burnside average and series division; unlike an assert, the
    check also runs under ``python -O``.
    """
    quotient, rem = divmod(value, divisor)
    if rem:
        raise ArithmeticError(f"{what}: {value} not divisible by {divisor}")
    return quotient


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-tuple of positive integers summing to n, each once.

    Tuples come out in lexicographic order.  The stream is empty when n < k;
    compositions(0, 0) yields exactly one empty tuple.  Stream length is
    binom(n - 1, k - 1).
    """
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        if n > 0:
            yield (n,)
        return
    for head in range(1, n - k + 2):
        for tail in compositions(n - head, k - 1):
            yield (head,) + tail
