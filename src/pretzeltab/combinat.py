"""Exact integer combinatorics shared by all counters, and the shared limits.

Everything here is pure, exact (Python big integers throughout) and safe to
call concurrently.  Each shared rule has its one copy here: ``exact_div``
checks that a division is exact, ``check_c`` refuses a crossing number below
1 or above the caller's limit, and ``composition_count`` gives the empty
family (n = k = 0) its one composition.  The shared limits,
``ResourceLimitError``, ``DEFAULT_ENUM_CEILING`` and ``MAX_C``, live here too,
in the base module that the others build on, so that ``counts`` and the CLI
can refuse oversized work without loading the oracle in ``walk`` and
``tcodes``; so do ``MAX_GCD`` and ``MAX_ANSWER_BITS``, which bound the
per-point counters in ``necklaces``.
"""
import math

# Largest crossing number the exhaustive oracle enumerates unless told otherwise.
DEFAULT_ENUM_CEILING = 22

# Largest crossing number that ``counts.columns`` and ``tcodes.canonicalize``
# accept.  The columns hold big integers of up to about 0.9 * c bits each, so
# their memory grows as c^2.  At 10,000 a fresh process running ``columns``
# alone peaks at 46 MiB of RSS, and ``table --min 6 --max 10000``, which also
# holds the rows and their text, at 146 MiB (CPython 3.11, x86-64 Linux).
# ``table`` and ``count`` print the counts with str(), which refuses integers
# longer than sys.get_int_max_str_digits() (4,300 by default).  ``total`` has
# 2,737 digits at 10,000 and passes 4,300 near c = 15,700, so a larger MAX_C
# needs that limit raised as well.  ``canonicalize`` is quadratic in the strip
# count, and a code of c crossings has at most c / 2 strips.
MAX_C = 10_000

# Largest gcd of their arguments that the per-point counters in ``necklaces``
# take.  Their rotation sum walks the divisors of the gcd up to its square
# root and factors each by trial division, whatever the answer: a prime just
# above 10**12 takes 0.10 s, and one just above 10**14 1.04 s (CPython 3.11,
# x86-64 Linux, 2 shared cores).
MAX_GCD = 10**12

# Largest answer, in bits, that the per-point counters in ``necklaces``
# compute, as estimated before any work.  The largest answers accepted, of
# about 10**5 bits, take 0.2 s in ``necklace_count`` and ``bracelet_count``
# (n = 100,001, k = 50,000) and 0.08 s in ``signed_bracelet_count``, while
# ``signed_bracelet_count(10**5, 5 * 10**4, 10**5, 5 * 10**4)``, of
# 3 * 10**5 bits, took 1.14 s (same machine).
MAX_ANSWER_BITS = 100_000


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its size ceiling."""


def check_c(c: int, limit: int | None = None, what: str = "", name: str = "") -> None:
    """Refuse a crossing number below 1, and above the limit if one is given:
    every entry point that takes one calls this.  The caller reads its limit
    at call time; what names the work at c and name where the limit is set."""
    if c < 1:
        raise ValueError(f"crossing number must be positive, got {c}")
    if limit is not None and c > limit:
        raise ResourceLimitError(f"{what} {c} crossings exceeds the limit of {limit} ({name})")


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
    check also runs under ``python -O``.  The message names the remainder, not
    the dividend, which may have more digits than ``str`` converts.
    """
    quotient, rem = divmod(value, divisor)
    if rem:
        raise ArithmeticError(f"{what}: remainder {rem} on division by {divisor}")
    return quotient


def composition_count(n: int, k: int) -> int:
    """Number of k-part compositions of n: binom(n - 1, k - 1), and 1 for the
    empty family n = k = 0, which has exactly one composition, the empty tuple."""
    return 1 if n == k == 0 else binom(n - 1, k - 1)

