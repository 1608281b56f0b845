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
argument can be verified instance by instance.  The subset sums take their
whole parameter set (the points (X, Y), or the values of b) and walk the
subsets of the composition once per call.  The double sum's inner sum over
the cuts of a tail L is, term by term, C_p(b) times the X = Y left side for
L (the identity is in ``kcoeff``), so it shares ``verify_kidenb``'s walk;
every subset is still summed term by term, and the other m's stay literal.
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
    factorial,
    m_ratio,
    n_ratio,
    partial_sums,
)
from .free_algebra import NCPoly, TermMap, Word, _check_word, _rational

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
    """(-1)^N Q_{2N} as the sum of n_{(I,a)} a!(a-1)! 2^{2a} M_{2I}(W_{2a}).

    The term (I, a) is stored under the word (I, a), which carries
    n_{(I,a)} in ``expand_P_explicit(n)``: the cached P's numerators are
    scaled by a table over the last letter a, into a new map."""
    check_positive_int(n, "N must be a positive integer")
    p = expand_P_explicit(n)
    scale = [0, *[factorial(a) * factorial(a - 1) * 4**a for a in range(1, n + 1)]]
    return QExpansion._raw({w: c * scale[w[-1]] for w, c in p._terms.items()}, p._den)


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


# The subset sums below build lists, not tuple(<generator>): CPython
# over-allocates such tuples and their shrunk copies fill the tuple free
# lists, raising peak memory.
def _lcm_sum(nums: list[int], dens: list[int]) -> tuple[int, int]:
    """The sum of the fractions nums[i] / dens[i] as one unreduced integer
    pair over the lcm of the denominators."""
    den = math.lcm(*dens)
    return sum([n * (den // d) for n, d in zip(nums, dens)]), den


def _subset_products(factors: list[int], s: int) -> list[int]:
    """The product of factors[a] over a in A, for every subset A of
    {1..s-1}; A sits at index sum_{a in A} 2^(a-1).  So the complement of
    A sits at the mirrored index and the product of all the factors comes
    last."""
    out = [1]
    for a in range(1, s):
        f = factors[a]
        out += [x * f for x in out]
    return out


def _closed_blocks(heads, pairs: list[int]) -> tuple[list[int], list[int]]:
    """Per subset A of {1..s-1}, s = len(pairs), in the order of
    ``_subset_products``: (-1)^r I_1...I_{r-1} prod_{a in A} pairs[a] for
    the blocks I of K cut at A (heads[a] = K_1 + ... + K_a), and the top
    cut max(0, *A), where the last block I_r starts."""
    closed, tops = [-1], [0]
    for a in range(1, len(pairs)):
        h, c = heads[a], -pairs[a]
        closed += [n * c * (h - heads[t]) for n, t in zip(closed, tops)]
        tops += [a] * len(tops)
    return closed, tops


def _check_bs(bs) -> list[int]:
    """The b values ``bs`` as a list: at least one, each a positive int."""
    out = [check_positive_int(b, "b must be a positive integer") for b in bs]
    if not out:
        raise ValueError("need at least one b value, got none")
    return out


def krattenthaler_identity(entries, points) -> list[tuple[Fraction, Fraction]]:
    """Both sides of the two-variable subset-sum lemma for a composition K,
    one (lhs, rhs) pair per point (X, Y) of ``points``, in their order.

    Left side: sum over subsets A of {1..s-1}, with blocks J_1..J_r of K cut
    at A and I = (|J_1|,...,|J_r|), of

        (-1)^r I_1...I_{r-1} (I_r + X)
        * prod_{a in A} (K_a + K_{a+1} + Y*[a = s-1])
        / prod_{i<r} (I_1+...+I_i)(I_{i+1}+...+I_r).

    Right side: (X(|K|-K_s) + Y(K_s+X)) / (|K|-K_1).  The identity is affine
    in X and Y, so grid evaluation is conclusive.  Each left-side term is
    affine in X and in Y too: one walk over the subsets sums the integer
    coefficients of 1, X, Y and XY of the terms over one denominator, and
    each point then costs one Fraction per side.  X and Y must be ``int``
    or ``Fraction`` (not ``bool``, ``float`` or ``str``), else ValueError.
    """
    comp = check_composition(entries)
    s = len(comp)
    if s < 2:
        raise ValueError("the two-variable identity requires a composition of length > 1")
    points = [(_rational(x, "X"), _rational(y, "Y")) for x, y in points]
    if not points:
        raise ValueError("need at least one (X, Y) point, got none")
    heads = (0, *partial_sums(comp))
    total = heads[-1]
    # K_{s-1} + K_s enters with Y, below
    closed, tops = _closed_blocks(heads, [0, *[comp[a - 1] + comp[a] for a in range(1, s - 1)], 1])
    # one denominator, the product of every head factor; each term is
    # scaled by the head factors of the cuts it lacks
    scales = _subset_products([h * (total - h) for h in heads], s)
    den = scales[-1]
    nums = [n * c for n, c in zip(closed, reversed(scales))]
    weighted = [n * (total - heads[t]) for n, t in zip(nums, tops)]  # times I_r
    # the second half holds the subsets with the cut s-1, whose terms are
    # (I_r + X)(K_{s-1} + K_s + Y) where the others have I_r + X
    half = len(nums) // 2
    pair = comp[-2] + comp[-1]
    c2, c3 = sum(weighted[half:]), sum(nums[half:])  # of Y and XY
    c0 = sum(weighted[:half]) + pair * c2
    c1 = sum(nums[:half]) + pair * c3
    out = []
    for x, y in points:
        xn, xd = x.numerator, x.denominator
        yn, yd = y.numerator, y.denominator
        lhs = Fraction(c0 * xd * yd + c1 * xn * yd + c2 * xd * yn + c3 * xn * yn, den * xd * yd)
        rhs = Fraction(xn * yd * (total - comp[-1]) + yn * xd * comp[-1] + xn * yn, xd * yd * (total - comp[0]))
        out.append((lhs, rhs))
    return out


def _kidenb_sums(comp, bs: list[int]) -> list[tuple[int, int]]:
    """The left side of the X = Y lemma for a validated composition, one
    unreduced integer pair per b: one walk over the subsets builds each
    term's b-free numerator, and each b sums the terms over the product of
    all the factors (I_1+...+I_i)(I_{i+1}+...+I_r+b), each numerator scaled
    by the product over the complement of its subset."""
    s = len(comp)
    heads = (0, *partial_sums(comp))
    total = heads[-1]
    closed, tops = _closed_blocks(heads, [0, *[comp[a - 1] + comp[a] for a in range(1, s)]])
    nums = [n * (total - heads[t]) for n, t in zip(closed, tops)]  # times I_r
    out = []
    for b in bs:
        products = _subset_products([h * (total - h + b) for h in heads], s)
        out.append((sum([n * c for n, c in zip(nums, reversed(products))]), products[-1]))
    return out


@cache
def _tail_sums(tail: tuple[int, ...], bs: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``_kidenb_sums(tail, bs)``, walked once per (tail, bs): compositions
    that share a suffix share kcoeff's inner sums.  A tuple of pairs, so
    that no caller can change a cached value."""
    return tuple(_kidenb_sums(tail, bs))


def verify_kidenb(entries, bs) -> list[tuple[Fraction, Fraction]]:
    """Both sides of the X = Y form of the subset-sum lemma, holding for any
    length s >= 1, one (lhs, rhs) pair per b of ``bs``, in their order:

        sum over A of (-1)^r I_1...I_r * prod_{a in A}(K_a + K_{a+1})
          / prod_{i<r} (I_1+...+I_i)(I_{i+1}+...+I_r+b)
        = -b|K| / (|K| - K_1 + b).
    """
    comp = check_composition(entries)
    bs = _check_bs(bs)
    total = sum(comp)
    return [(Fraction(*lhs), Fraction(-b * total, total - comp[0] + b)) for b, lhs in zip(bs, _kidenb_sums(comp, bs))]


def kcoeff(entries, bs) -> list[Fraction]:
    """Literal evaluation of the coefficient of P_{2K_1}...P_{2K_s} in the
    substituted Q-recursion, one Fraction per b of ``bs``, in their order:

        m_{(K,b)} + sum_{p=0}^{s-1} m_{(K_1..K_p, |L|+b)}
                    * sum over A of n_{(I,b)} m_{J_1}...m_{J_r},

    where the blocks J_1..J_r, of sizes I, cut the tail L = (K_{p+1},...,K_s)
    at A.  Vanishes identically.  Term by term, the inner sum is C_p(b)
    times the X = Y left side of ``verify_kidenb`` for L and b, with

        C_p(b) = (-1)^(s-p) (|L|+b-1)!^2 / [ (b-1)!^2 |L| b
                 * prod_{j>p} K_j!(K_j-1)! * prod_{p<j<s} (K_j+K_{j+1}) ]:

    the blocks partition L, so the m_J/(|J|-1)!^2 keep every factorial and
    uncut adjacent pair of L below, with sign (-1)^(s-p+r), and each cut
    puts its pair back on top.  Every subset of every tail is still summed
    term by term, once per distinct tail and b list in the process
    (``_tail_sums``), and m_{(K,b)} and the outer m's come from ``m_ratio``.
    """
    comp = check_composition(entries)
    bs = _check_bs(bs)
    s = len(comp)
    tails = []  # per p from s-1 down to 0: (-1)^(s-p), |L|, both tail products of C_p, the X = Y sums
    sign, size, tail_den = 1, 0, 1
    for p in reversed(range(s)):
        sign, size = -sign, size + comp[p]
        tail_den *= factorial(comp[p]) * factorial(comp[p] - 1) * (comp[p] + comp[p + 1] if p < s - 1 else 1)
        tails.append((p, sign, size, tail_den, _tail_sums(comp[p:], tuple(bs))))
    out = []
    for i, b in enumerate(bs):
        m_num, m_den = m_ratio(comp + (b,))
        nums, dens = [m_num], [m_den]
        b_den = factorial(b - 1) ** 2 * b
        for p, sign, size, tail_den, sums in tails:
            outer_num, outer_den = m_ratio(comp[:p] + (size + b,))
            nums.append(sign * outer_num * factorial(size + b - 1) ** 2 * sums[i][0])
            dens.append(outer_den * b_den * size * tail_den * sums[i][1])
        out.append(Fraction(*_lcm_sum(nums, dens)))
    return out


def kcoeff_closed_form(entries, bs) -> list[Fraction]:
    """Second path to the same coefficient, one Fraction per b of ``bs``, in
    their order: the inner subset sums are replaced by their closed forms,
    leaving

        m_{(K,b)} + (-1)^{s+1} C * sum_{p=0}^{s-1} R_p

    with C = (|K|+b)!(|K|+b-1)!/(b-1)!^2 * prod 1/(K_j!(K_j-1)!)
    * prod 1/(K_j+K_{j+1}) and R_p the telescoping kernel built from the
    tail sums K_p + ... + K_s + b.  Vanishes identically.  Each b is summed
    as integer pairs, with one Fraction at the end.
    """
    comp = check_composition(entries)
    bs = _check_bs(bs)
    s = len(comp)
    total = sum(comp)
    sign = 1 if s % 2 else -1  # (-1)^(s+1)
    c_den = 1
    for e in comp:
        c_den *= factorial(e) * factorial(e - 1)
    for u, v in zip(comp, comp[1:]):
        c_den *= u + v
    pairs = [1, *[comp[p - 1] + comp[p] for p in range(1, s)]]
    suffix = [sum(comp[p:]) for p in range(s)]
    out = []
    for b in bs:
        # tail[p - 1] = K_p + ... + K_s + b with 1-based p; the empty sum is 0
        tail = [t + b for t in suffix] + [b]
        kernels = [tail[0] * tail[1], *[tail[p - 1] * tail[p] * tail[p + 1] for p in range(1, s)]]
        r_num, r_den = _lcm_sum(pairs, kernels)
        c_num = sign * factorial(total + b) * factorial(total + b - 1) * r_num
        r_den *= factorial(b - 1) ** 2 * c_den
        m_num, m_den = m_ratio(comp + (b,))
        out.append(Fraction(m_num * r_den + c_num * m_den, m_den * r_den))
    return out


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
