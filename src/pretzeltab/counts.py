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
the strip count k, turns it into the series of classes.  Each series is
computed once, at O(1) big-integer operations a coefficient; one loop adds
up the cyclic divisor sums of all four strip families, O(C log C) in all.
``count_row`` and ``count_rows`` read from it; the tests check it against
the paper's per-point formula.
"""
from itertools import accumulate, product, repeat
from typing import NamedTuple

from .combinat import MAX_C, check_c, exact_div, totient


# Truncated power series are lists of coefficients, constant term first.  A
# strip family is a rational function a/D with D = 1 - x^2: positive strips
# P = x^2/(1 - x) = x^2 (1 + x)/D, negative strips N = x^2/D and the odd
# strips of type 1 Q = x^3/D.  Type 3 needs u P + N for u = +-1.
_D = [1, 0, -1]
_D2 = [1, 0, 0, 0, -1]  # D(x^2) = D (1 + x^2)
_Q, _P_PLUS_N, _N_MINUS_P, _N = [0, 0, 0, 1], [0, 0, 2, 1], [0, 0, 0, -1], [0, 0, 1]


def _poly(*products: tuple[list[int], list[int]]) -> list[int]:
    """The sum of the products of pairs of polynomials."""
    out = [0] * max(len(a) + len(b) - 1 for a, b in products)
    for a, b in products:
        for (i, ai), (j, bj) in product(enumerate(a), enumerate(b)):
            out[i + j] += ai * bj
    return out


def _div(a: list[int], b: list[int], n: int, *ks: int) -> list[int]:
    """a / (b (1 - x^k1) (1 - x^k2) ...) to n terms, b[0] == 1: n steps per term and per k."""
    top = len(b) - 1
    out = [0] * top + (a + [0] * n)[:n]  # the zeros stand for x^-top..x^-1
    terms = [(j, bj) for j, bj in enumerate(b) if j and bj]
    for m in range(top, top + n):
        v = out[m]
        for j, bj in terms:
            v -= bj * out[m - j]
        out[m] = v
    del out[:top]
    for k in ks:  # 1/(1 - x^k) sums each residue class mod k
        for r in range(k):
            out[r::k] = accumulate(out[r::k])
    return out


def _cyclic_sums(n: int) -> list[list[int]]:
    """[x^c] sum_{k>=1} Z(C_k) = (1/c) sum_{d | c} phi(d) h^(d)_{c/d} for c < n,
    with p_d <- f(x^d) for f = Q, P + N, N - P and N, but P + N for N - P at
    even d.  h = x f'/(1 - f), so that [x^m] log 1/(1 - f) = h_m/m, is
    (x a' D + 2 x^2 a) / (D (D - a)) for f = a/D.  One loop adds up all four
    in place: going down m, it reads h_m before a smaller divisor adds to it.
    """
    series = odd, plus, minus, zero = [
        _div(_poly(([i * v for i, v in enumerate(a)], _D), ([0, 0, 2], a)),
             _poly((_D, [1]), (a, [-1])), n, 2) for a in (_Q, _P_PLUS_N, _N_MINUS_P, _N)]
    phi = [0] + [totient(d) for d in range(1, n)]
    for m in range((n - 1) // 2, 0, -1):
        q, p, r, z = odd[m], plus[m], minus[m], zero[m]
        for d in range(2, (n - 1) // m + 1):
            t, f = m * d, phi[d]
            odd[t] += f * q
            plus[t] += f * p
            minus[t] += f * (r if d % 2 else p)
            zero[t] += f * z
    for h in series:
        h[1:] = map(exact_div, h[1:], range(1, n), repeat("cyclic sum"))
    return series


def _stretch(a: list[int]) -> list[int]:
    """a(x^2)."""
    return [w for v in a for w in (v, 0)]


def _low(a: list[int], a2: list[int]) -> list[int]:
    """Numerator over D D(x^2) of ``_dihedral``'s low = 2 p1 + p2 + p1^2."""
    return _poly(([2 * v for v in a], _D2), (_stretch(a2), _D), (_poly((a, a)), [1, 0, 1]))


def _dihedral(cyclic: list[int], a: list[int], a2: list[int], n: int) -> list[int]:
    """[x^c] sum_{k>=3} Z(D_k) for c < n, from the ``_cyclic_sums`` series for
    p_d <- p1(x^d) = a(x^d)/D(x^d) at odd d and a2(x^d)/D(x^d) at even d.
    With p2 = a2(x^2)/D(x^2), low = 2 p1 + p2 + p1^2 is twice Z(G_1) + Z(G_2)
    for G = C or D: the classes of 1 or 2 strips.  Z(D_k) is half Z(C_k) plus
    a reflection part, low/(4 (1 - p2)) summed over k >= 1.
    """
    num = _low(a, a2)
    mirrored = _div(num, _poly((_D2, [1]), (_stretch(a2), [-1])), n, 2)  # low/(1 - p2)
    sums = [2 * (cyc - lo) + mir for cyc, lo, mir in zip(cyclic, _div(num, [1], n, 2, 4), mirrored)]
    return list(map(exact_div, sums, repeat(4), repeat("dihedral sum")))


def columns(max_c: int) -> tuple[list[int], list[int], list[int]]:
    """The p1, p2 and p3 columns for 0 <= c <= max_c, from the cycle index.

    * type 1: sum_{k>=3} Z(C_k) with p_d <- Q(x^d), times 1/(1 - x) for
      delta >= 0; sum_{k>=3} Z(C_k) is the cyclic sum less low/2;
    * type 2: sum_{k>=3} Z(D_k) with p_d <- N(x^d);
    * type 3: B_u = sum_{k>=3} Z(D_k) with p_d <- u^d P(x^d) + N(x^d) marks
      each positive strip with u, and B_u/(1 - u x) each horizontal twist
      too, so that u marks the parity of k1 + delta.  The average of
      B_u/(1 - u x) over u = +-1 keeps the classes with k1 + delta even;
      taking off p2 drops the excluded k1 = delta = 0 classes.

    Index c of each list is the count at crossing number c.  Refuses max_c
    above MAX_C.
    """
    check_c(max_c, MAX_C, "the column route at", "combinat.MAX_C")
    n = max_c + 1
    series = _cyclic_sums(n)
    # popping frees each cyclic series once its dihedral sum is done: bound to
    # four names, they stay alive and columns(10000) peaks at 57 MiB, not 46
    p2 = _dihedral(series.pop(), _N, _N, n)
    b_minus1 = _dihedral(series.pop(), _N_MINUS_P, _P_PLUS_N, n)
    b1 = _dihedral(series.pop(), _P_PLUS_N, _P_PLUS_N, n)
    sums = [v + w - 2 * v2 for v, w, v2 in zip(
        accumulate(b1), accumulate(b_minus1, lambda s, v: v - s), p2)]
    halves = [2 * cyc - lo for cyc, lo in zip(series.pop(), _div(_low(_Q, _Q), [1], n, 2, 4))]
    return (list(accumulate(map(exact_div, halves, repeat(2), repeat("cyclic sum")))), p2,
            list(map(exact_div, sums, repeat(2), repeat("parity average"))))


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
    check_c(min_c)
    if min_c > max_c:
        raise ValueError(f"need min_c <= max_c, got {min_c} > {max_c}")
    p1, p2, p3 = columns(max_c)
    return [CountRow(c, p1[c], p2[c], p3[c], (p := p1[c] + p2[c] + p3[c]), 2 * p)
            for c in range(min_c, max_c + 1)]


def count_row(c: int) -> CountRow:
    """Assemble the full row for crossing number c."""
    return count_rows(c, c)[0]
