"""Closed-form counts of alternating oriented pretzel links per crossing number.

Links are grouped into three types by how the horizontal twist group and the
strips sit in the Seifert circle decomposition; each type reduces to a
necklace or bracelet count over strip-size tuples:

  * type 1: horizontal twists smooth horizontally, strips all odd (>= 3);
    classes are cyclic only.
  * type 2: no horizontal twists, strips all even (>= 2); dihedral classes.
  * type 3: mixed strip signs, negative strips even; dihedral classes of
    signed tuples, summed over every admissible parameter point.

Counts cover one link per mirror pair; ``CountRow.total`` doubles the sum
because every such link is chiral.

One route computes them: ``columns(C)`` gives every count for c <= C at
once from the Polya cycle index (Flajolet & Sedgewick, *Analytic
Combinatorics*, Ch. I).  A strip is a power series in x marking its
crossings, and the cycle index of the cyclic or dihedral group, summed over
the strip count k, turns it into the series of classes.  Every series
involved is a rational function with a denominator of degree at most 6, so
each coefficient costs O(1) big-integer operations and the cyclic divisor
sums O(C log C) in all.  ``count_row`` and ``count_rows`` read from it.  The
tests check it against the paper's per-point formula.
"""
from __future__ import annotations

from typing import NamedTuple

from .combinat import MAX_C, ResourceLimitError, exact_div, totient


def _check_c(c: int) -> None:
    if c < 1:
        raise ValueError(f"crossing number must be positive, got {c}")


# Truncated power series are lists of coefficients, constant term first.  A
# strip family is a rational function (numerator, 1 - x^2): positive strips
# P = x^2/(1 - x) = x^2 (1 + x)/(1 - x^2), negative strips N = x^2/(1 - x^2)
# and the odd strips of type 1 Q = x^3/(1 - x^2).
_ONE_MINUS_X2 = [1, 0, -1]
_ODD_STRIPS = [0, 0, 0, 1]


def _signed_strips(u: int) -> list[int]:
    """Numerator of u*P + N over 1 - x^2: x^2 (u (1 + x) + 1)."""
    return [0, 0, u + 1, u]


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    """First n coefficients of a*b; len(a) * len(b) operations at most."""
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


def _div(a: list[int], b: list[int], n: int) -> list[int]:
    """First n coefficients of a/b for b[0] == 1; n operations per nonzero b[j]."""
    out = (a + [0] * n)[:n]
    terms = [(j, bj) for j, bj in enumerate(b) if j and bj]
    for m in range(n):
        for j, bj in terms:
            if j <= m:
                out[m] -= bj * out[m - j]
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    width = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(width)]


def _stretch(a: list[int], d: int) -> list[int]:
    """Coefficients of a(x^d)."""
    out = [0] * ((len(a) - 1) * d + 1)
    out[::d] = a
    return out


def _log_derivative(a: list[int], n: int) -> list[int]:
    """h = x f'/(1 - f) for f = a/(1 - x^2), so that [x^m] log 1/(1 - f) = h_m/m.

    With f = a/D: h = (x a' D - a x D') / (D (D - a)), integer coefficients.
    """
    d = _ONE_MINUS_X2
    xa = [i * v for i, v in enumerate(a)]
    xd = [i * v for i, v in enumerate(d)]
    return _div(_sub(_mul(xa, d, n), _mul(a, xd, n)), _mul(d, _sub(d, a), n), n)


def _cycle_sum(h_odd: list[int], h_even: list[int], n: int) -> list[int]:
    """[x^c] sum_{k>=1} Z(C_k) for c < n, where h_odd and h_even are the
    ``_log_derivative`` series of the substitution for p_d, before x -> x^d,
    at odd and at even d:

    [x^c] = (1/c) sum_{d | c} phi(d) h^(d)_{c/d}.
    """
    out = [0] * n
    for d in range(1, n):
        h = h_odd if d % 2 else h_even
        phi = totient(d)
        for m in range(1, (n - 1) // d + 1):
            out[m * d] += phi * h[m]
    return [0] + [exact_div(out[c], c, "cyclic sum") for c in range(1, n)]


def _classes(a: list[int], a2: list[int], n: int) -> tuple[list[int], list[int]]:
    """[x^c] sum_{k>=3} Z(C_k) and sum_{k>=3} Z(D_k) for c < n, with p_d <-
    a(x^d)/D(x^d) for odd d and a2(x^d)/D(x^d) for even d, D = 1 - x^2.

    Z(D_k) is half Z(C_k) plus a reflection part, which summed over k >= 1 is
    low/(4 (1 - p2)).  low = 2 p1 + p2 + p1^2 is twice Z(G_1) + Z(G_2) for
    G = C or D: the classes of 1 or 2 strips, which are taken off.
    """
    d, d2 = _ONE_MINUS_X2, _stretch(_ONE_MINUS_X2, 2)
    h = _log_derivative(a, n)
    cyclic = _cycle_sum(h, h if a2 == a else _log_derivative(a2, n), n)
    low = [2 * v1 + v2 + v11 for v1, v2, v11 in zip(
        _div(a, d, n), _div(_stretch(a2, 2), d2, n), _div(_mul(a, a, n), _mul(d, d, n), n))]
    # 1/(1 - p2) = D(x^2) / (D(x^2) - a2(x^2)).
    mirrored = _div(_mul(low, d2, n), _sub(d2, _stretch(a2, 2)), n)
    return ([exact_div(2 * cyc - lo, 2, "cyclic sum") for cyc, lo in zip(cyclic, low)],
            [exact_div(2 * cyc - 2 * lo + mir, 4, "dihedral sum")
             for cyc, lo, mir in zip(cyclic, low, mirrored)])


def columns(max_c: int) -> tuple[list[int], list[int], list[int]]:
    """The p1, p2 and p3 columns for 0 <= c <= max_c, from the cycle index.

    * type 1: sum_{k>=3} Z(C_k) with p_d <- Q(x^d), times 1/(1 - x) for
      delta >= 0;
    * type 2: sum_{k>=3} Z(D_k) with p_d <- N(x^d);
    * type 3: B_u = sum_{k>=3} Z(D_k) with p_d <- u^d P(x^d) + N(x^d) marks
      each positive strip with u, and B_u/(1 - u x) each horizontal twist
      too, so that u marks the parity of k1 + delta.  The average of
      B_u/(1 - u x) over u = +-1 keeps the classes with k1 + delta even;
      taking off p2 drops the excluded k1 = delta = 0 classes.

    Index c of each list is the count at crossing number c.  Refuses max_c
    above MAX_C.
    """
    _check_c(max_c)
    if max_c > MAX_C:
        raise ResourceLimitError(
            f"counts up to {max_c} crossings exceed the limit of {MAX_C} (counts.MAX_C)")
    n = max_c + 1
    p1 = _div(_classes(_ODD_STRIPS, _ODD_STRIPS, n)[0], [1, -1], n)
    b1, b_minus1, p2 = (_classes(_signed_strips(u), _signed_strips(u * u), n)[1]
                        for u in (1, -1, 0))
    p3 = [exact_div(v + w, 2, "parity average") - v2
          for v, w, v2 in zip(_div(b1, [1, -1], n), _div(b_minus1, [1, 1], n), p2)]
    return p1, p2, p3


class CountRow(NamedTuple):
    """One output row: per-type counts, their sum p, and the mirror-doubled total."""

    c: int
    p1: int
    p2: int
    p3: int
    p: int
    total: int


def count_rows(min_c: int, max_c: int) -> list[CountRow]:
    """Rows for min_c <= c <= max_c, all read from one ``columns(max_c)``."""
    _check_c(min_c)
    if min_c > max_c:
        raise ValueError(f"need min_c <= max_c, got {min_c} > {max_c}")
    p1, p2, p3 = columns(max_c)
    rows = []
    for c in range(min_c, max_c + 1):
        p = p1[c] + p2[c] + p3[c]
        rows.append(CountRow(c, p1[c], p2[c], p3[c], p, 2 * p))
    return rows


def count_row(c: int) -> CountRow:
    """Assemble the full row for crossing number c."""
    return count_rows(c, c)[0]
