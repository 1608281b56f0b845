"""The four headline expansions and the summation identities behind them.

Operators: the order-2N operator P_{2N} expands over compositions I of N as
sum of n_I * M_{2I} (explicit form), and recursively as minus the sum of
m_I * P_{2I} over I != (N) plus M_{2N}.  Both are represented here as
noncommutative polynomials in opaque generators indexed by M-order, so the
two forms can be compared exactly.

Q-curvatures: expansions always represent the sign-carrying combination
(-1)^N Q_{2N}; presentation layers apply the sign.  A term is read as a
pair (I, a) standing for M_{2I} applied to the scalar W_{2a}, with I
possibly empty and |I| + a = N, and stored under the composition (I, a) of
N.  Both recursions are then one m-weighted sum over compositions.

The Krattenthaler two-variable summation lemma, its single-variable X = Y
form, the coefficient-vanishing double sum, and the final telescoping
identity are provided as exact evaluations of both sides so the inversion
argument can be verified instance by instance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import chain

from .exact_core import (
    check_composition,
    check_positive_int,
    compositions_of,
    cut_bounds,
    factorial,
    m_coeff,
    m_ratio,
    n_ratio,
    partial_sums,
)
from .free_algebra import NCPoly, TermMap, Word, _check_word

QKey = tuple[Word, int]

__all__ = [
    "QExpansion",
    "expand_P_explicit",
    "expand_P_recursive",
    "expand_Q_explicit",
    "expand_Q_recursive",
    "apply_operator_expansion",
    "krattenthaler_identity",
    "verify_kidenb",
    "kcoeff",
    "kcoeff_closed_form",
    "telescope_check",
]


def _check_qkey(key) -> Word:
    word, a = key
    w = _check_word(word)
    check_positive_int(a, "the W-order of a Q-term must be a positive integer")
    return (*w, a)


class QExpansion(TermMap):
    """Finite map (word I, a) -> Fraction representing sum c * M_{2I}(W_{2a}),
    stored under the composition (I, a); ``items``, ``coeff`` and
    ``sorted_terms`` speak in (I, a) pairs."""

    __slots__ = ()

    _check_key = staticmethod(_check_qkey)

    def items(self) -> list[tuple[QKey, Fraction]]:
        return [((w[:-1], w[-1]), c) for w, c in super().items()]

    def coeff(self, key) -> Fraction:
        word, a = key
        return Fraction(self._terms.get((*word, a), 0), self._den)

    def sorted_terms(self) -> list[tuple[QKey, Fraction]]:
        return [((w[:-1], w[-1]), c) for w, c in super().sorted_terms()]

    def __repr__(self) -> str:
        if not self._terms:
            return "QExpansion(0)"
        parts = []
        for (word, a), c in self.sorted_terms():
            ops = "*".join(f"M{2 * g}" for g in word)
            parts.append(f"{c}*{ops + '(' if ops else ''}W{2 * a}{')' if ops else ''}")
        return "QExpansion(" + " + ".join(parts) + ")"


def apply_operator_expansion(p: NCPoly, q: QExpansion) -> QExpansion:
    """Compose an operator expansion with a Q-expansion: P_{2I}(Q)."""
    return p * q


def _m_recursion(n: int, top, head, last):
    """``top`` minus the sum over compositions I of n with r >= 2 parts of
    m_I * head(I_1)...head(I_{r-1}) * last(I_r), multiplied left to right.

    The sum is regrouped into a table instead of being multiplied out one
    composition at a time.  Apart from n!(n-1)!, the coefficient

        m_I = (-1)^(r+1) n!(n-1)! * prod_j 1/(I_j!(I_j-1)!)
                                  * prod_{j<r} 1/(I_j+I_{j+1})

    is a chain over adjacent parts: appending a part b to a composition
    ending in a flips the sign and brings in 1/(a+b) and 1/(b!(b-1)!).  So
    with f(b) = 1/(b!(b-1)!), the row A(k, .) of the table maps each last
    part b to the signed sum over compositions J of k ending in b of
    (-1)^(s+1) prod f(J_j) prod 1/(J_j+J_{j+1}) * head(J_1)...head(J_s):

        A(k, k) = f(k) head(k),
        A(k, b) = [sum_a -A(k-b, a)/(a+b)] * f(b) head(b)    for b < k,

    and the sum wanted is n!(n-1)! sum_{b<n} [sum_a -A(n-b, a)/(a+b)]
    * f(b) last(b).  Rows 1..n-1 take O(n^2) polynomial products in all,
    against about 3^(n-1) word products for the composition-by-composition
    sum.

    Every entry is an ``NCPoly``, integer numerators over one denominator: a
    row sum is ``NCPoly.combination``, a word product reduces once, and the
    closing products are summed by the ``combination`` of ``top``'s type.
    """

    def f_den(b: int) -> int:
        return factorial(b) * factorial(b - 1)

    def chained(k: int, b: int, num: int) -> NCPoly:
        # sum over a of num * A(k, a) * f(b) / (a + b)
        return NCPoly.combination((Fraction(num, (a + b) * f_den(b)), entry) for a, entry in rows[k].items())

    heads = [None, *map(head, range(1, n))]
    rows: list[dict] = [{}]  # rows[k] is A(k, .), a dict last part -> NCPoly
    for k in range(1, n):
        row = {b: chained(k - b, b, -1) * heads[b] for b in range(1, k)}
        row[k] = heads[k] * Fraction(1, f_den(k))
        rows.append(row)
    # one closing product at a time, so that they are not all held at once
    closing = ((1, chained(n - b, b, f_den(n)) * last(b)) for b in range(1, n))
    return type(top).combination(chain([(1, top)], closing))


@cache
def expand_P_explicit(n: int) -> NCPoly:
    """P_{2N} as the sum of n_I * M_{2I} over all compositions I of N."""
    check_positive_int(n, "N must be a positive integer")
    return NCPoly._from_ratios({comp: n_ratio(comp) for comp in compositions_of(n)})


@cache
def expand_P_recursive(n: int) -> NCPoly:
    """P_{2N} built from the recursion
    P_{2N} = - sum over |I| = N, I != (N) of m_I * P_{2I}  +  M_{2N},
    with every lower-order P substituted by its own recursive expansion.
    """
    check_positive_int(n, "N must be a positive integer")
    return _m_recursion(n, NCPoly.from_word((n,)), expand_P_recursive, expand_P_recursive)


@cache
def expand_Q_explicit(n: int) -> QExpansion:
    """(-1)^N Q_{2N} as the sum of n_{(I,a)} a!(a-1)! 2^{2a} M_{2I}(W_{2a})."""
    check_positive_int(n, "N must be a positive integer")
    ratios = {}
    for comp in compositions_of(n):
        num, den = n_ratio(comp)
        a = comp[-1]
        ratios[comp] = num * factorial(a) * factorial(a - 1) * 4**a, den
    return QExpansion._from_ratios(ratios)


@cache
def expand_Q_recursive(n: int) -> QExpansion:
    """(-1)^N Q_{2N} built from the recursion
    - sum over |(I,a)| = N, a < N of m_{(I,a)} (-1)^a P_{2I}(Q_{2a})
    + N!(N-1)! 2^{2N} W_{2N},
    with P's in explicit form and each (-1)^a Q_{2a} in explicit form.
    """
    check_positive_int(n, "N must be a positive integer")
    top = QExpansion({((), n): factorial(n) * factorial(n - 1) * 4**n})
    return _m_recursion(n, top, expand_P_explicit, expand_Q_explicit)


def _ratio_sum(terms: list[tuple[int, int]]) -> Fraction:
    """The sum of the (numerator, denominator) pairs ``terms``, over the lcm
    of their denominators."""
    # lists, not tuple(<generator>): CPython over-allocates such tuples and
    # their shrunk copies fill the tuple free lists, raising peak memory
    den = math.lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def krattenthaler_identity(entries, x, y) -> tuple[Fraction, Fraction]:
    """Both sides of the two-variable subset-sum lemma for a composition K.

    Left side: sum over subsets A of {1..s-1}, with blocks J_1..J_r of K cut
    at A and I = (|J_1|,...,|J_r|), of

        (-1)^r I_1...I_{r-1} (I_r + X)
        * prod_{a in A} (K_a + K_{a+1} + Y*[a = s-1])
        / prod_{i<r} (I_1+...+I_i)(I_{i+1}+...+I_r).

    Right side: (X(|K|-K_s) + Y(K_s+X)) / (|K|-K_1).  The identity is affine
    in X and Y, so grid evaluation is conclusive.  Each left-side term is
    built as an integer pair, with X and Y entering through their numerators
    and denominators.
    """
    comp = check_composition(entries)
    s = len(comp)
    if s < 2:
        raise ValueError("the two-variable identity requires a composition of length > 1")
    x = Fraction(x)
    y = Fraction(y)
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    heads = (0, *partial_sums(comp))
    total = heads[-1]
    terms = []
    for bounds in cut_bounds(0, s):
        r = len(bounds) - 1
        num = -1 if r % 2 else 1
        den = xd
        for i in range(1, r):
            num *= heads[bounds[i]] - heads[bounds[i - 1]]
        num *= (total - heads[bounds[-2]]) * xd + xn
        for a in bounds[1:-1]:
            if a == s - 1:
                num *= (comp[a - 1] + comp[a]) * yd + yn
                den *= yd
            else:
                num *= comp[a - 1] + comp[a]
            den *= heads[a] * (total - heads[a])
        terms.append((num, den))
    lhs = _ratio_sum(terms)
    rhs = (x * (total - comp[-1]) + y * (comp[-1] + x)) / (total - comp[0])
    return lhs, rhs


def verify_kidenb(entries, b: int) -> tuple[Fraction, Fraction]:
    """Both sides of the X = Y form of the subset-sum lemma, holding for any length s >= 1:

        sum over A of (-1)^r I_1...I_r * prod_{a in A}(K_a + K_{a+1})
          / prod_{i<r} (I_1+...+I_i)(I_{i+1}+...+I_r+b)
        = -b|K| / (|K| - K_1 + b).

    Each left-side term is built as an integer pair.
    """
    comp = check_composition(entries)
    check_positive_int(b, "b must be a positive integer")
    s = len(comp)
    heads = (0, *partial_sums(comp))
    total = heads[-1]
    terms = []
    for bounds in cut_bounds(0, s):
        r = len(bounds) - 1
        num = -1 if r % 2 else 1
        den = 1
        for i in range(1, r + 1):
            num *= heads[bounds[i]] - heads[bounds[i - 1]]
        for a in bounds[1:-1]:
            num *= comp[a - 1] + comp[a]
            den *= heads[a] * (total - heads[a] + b)
        terms.append((num, den))
    lhs = _ratio_sum(terms)
    rhs = Fraction(-b * total, total - comp[0] + b)
    return lhs, rhs


def kcoeff(entries, b: int) -> Fraction:
    """Literal evaluation of the coefficient of P_{2K_1}...P_{2K_s} in the
    substituted Q-recursion:

        m_{(K,b)} + sum_{p=0}^{s-1} m_{(K_1..K_p, |K|-|L|+b)}
                    * sum over A of n_{(I,b)} m_{J_1}...m_{J_r},

    where the J's cut the tail (K_{p+1},...,K_s).  Vanishes identically.
    Every term is an integer pair; the m-coefficient of each contiguous
    block of K is computed once.
    """
    comp = check_composition(entries)
    check_positive_int(b, "b must be a positive integer")
    s = len(comp)
    heads = (0, *partial_sums(comp))
    block_m = {(i, j): m_ratio(comp[i:j]) for i in range(s) for j in range(i + 1, s + 1)}
    terms = [m_ratio(comp + (b,))]
    for p in range(s):
        outer_num, outer_den = m_ratio(comp[:p] + (heads[-1] - heads[p] + b,))
        for bounds in cut_bounds(p, s):
            weights = [heads[hi] - heads[lo] for lo, hi in zip(bounds, bounds[1:])]
            num, den = n_ratio((*weights, b))
            num *= outer_num
            den *= outer_den
            for block in zip(bounds, bounds[1:]):
                block_num, block_den = block_m[block]
                num *= block_num
                den *= block_den
            terms.append((num, den))
    return _ratio_sum(terms)


def kcoeff_closed_form(entries, b: int) -> Fraction:
    """Second path to the same coefficient: the inner subset sums are
    replaced by their closed forms, leaving

        m_{(K,b)} + (-1)^{s+1} C * sum_{p=0}^{s-1} R_p

    with C = (|K|+b)!(|K|+b-1)!/(b-1)!^2 * prod 1/(K_j!(K_j-1)!)
    * prod 1/(K_j+K_{j+1}) and R_p the telescoping kernel built from the
    tail sums K_p + ... + K_s + b.  Vanishes identically.
    """
    comp = check_composition(entries)
    check_positive_int(b, "b must be a positive integer")
    s = len(comp)
    total = sum(comp)
    prefactor = Fraction(factorial(total + b) * factorial(total + b - 1), factorial(b - 1) ** 2)
    for e in comp:
        prefactor /= factorial(e) * factorial(e - 1)
    for u, v in zip(comp, comp[1:]):
        prefactor /= u + v

    def tail_sum(p: int) -> int:
        # sum_{i=p}^{s} K_i + b with 1-based p; empty sum is 0
        return sum(comp[p - 1 :]) + b if p <= s else b

    rsum = Fraction(1, tail_sum(1) * tail_sum(2))
    for p in range(1, s):
        rsum += Fraction(comp[p - 1] + comp[p], tail_sum(p) * tail_sum(p + 1) * tail_sum(p + 2))
    return m_coeff(comp + (b,)) + Fraction((-1) ** (s + 1)) * prefactor * rsum


def telescope_check(entries) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping identity for positive integers K_1..K_{s+1}:

        sum_{p=1}^{s-1} (K_p+K_{p+1}) / (T_p T_{p+1} T_{p+2})
        = 1/(K_{s+1}(K_s+K_{s+1})) - 1/(T_1 T_2),

    where T_p = K_p + ... + K_{s+1}.  Empty sum on the left for s = 1.
    """
    comp = check_composition(entries)
    if len(comp) < 2:
        raise ValueError("need at least two entries (s >= 1)")
    s = len(comp) - 1
    suffix = [sum(comp[p - 1 :]) for p in range(1, s + 2)]  # T_1..T_{s+1}
    lhs = Fraction(0)
    for p in range(1, s):
        lhs += Fraction(comp[p - 1] + comp[p], suffix[p - 1] * suffix[p] * suffix[p + 1])
    rhs = Fraction(1, comp[s] * (comp[s - 1] + comp[s])) - Fraction(1, suffix[0] * suffix[1])
    return lhs, rhs
