"""Exact integer combinatorics and limits shared by the counters and the CLI.

Everything here is pure, exact (Python big integers throughout) and safe to
call concurrently.  A name lives here only when at least two modules import
it; a rule or limit of one module lives in that module.  Each shared rule has
its one copy here: ``exact_div`` checks that a division is exact, and
``check_c`` refuses a crossing number that is not an int, below 1 or above
the caller's limit.  The shared limits, ``ResourceLimitError``,
``DEFAULT_ENUM_CEILING`` and ``MAX_C``, live here too, in the base module
that the others build on, so that ``counts`` and the CLI can refuse
oversized work without loading the oracle in ``walk`` and ``tcodes``.
"""

# Largest crossing number the exhaustive oracle enumerates unless told otherwise.
DEFAULT_ENUM_CEILING = 22

# Largest crossing number that ``counts.columns`` and ``tcodes.canonicalize``
# accept.  The columns hold big integers of up to about 0.9 * c bits each, so
# their memory grows as c^2.  At 10,000 a fresh process running ``columns``
# alone peaks at 46 MiB of RSS, and ``table --min 6 --max 10000``, which also
# holds the rows and their text, at 146 MiB (CPython 3.11, x86-64 Linux).
# ``table`` and ``count`` print the counts with str(), which ``cli._run`` lets
# convert them whatever sys.get_int_max_str_digits() is, so the longest,
# ``total`` (2,737 digits at 10,000), sets no bound here.  ``canonicalize`` is
# quadratic in the strip count, and a code of c crossings has at most c / 2
# strips.
MAX_C = 10_000


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its size ceiling."""


def check_c(c: int, limit: int | None = None, what: str = "", name: str = "") -> None:
    """Refuse a crossing number that is not an int (bools included) or is
    below 1, and above the limit if one is given: every entry point that
    takes one calls this.  The caller reads its limit at call time; what
    names the work at c and name where the limit is set."""
    if type(c) is not int:
        raise ValueError(f"crossing number must be an int, got {c!r}")
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
