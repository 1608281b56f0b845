"""Scalar series solutions of the hypergeometric-type operators

    D_m = y(1+y) d2/dy2 + [1 - (N-1)y] d/dy + m(N-m)

at their regular singular point, the generating-function chain F_0..F_r
attached to an increasing sequence m_1 < ... < m_r = N, and the integer
coefficient table c_{j,l} that the chain encodes.

A series truncated at y^cap is the plain list u_0..u_cap of its normalized
entries, ``int`` or ``Fraction``: u_j is (j!)^2 times the y^j coefficient,
which keeps the defining recursion

    u_{j+1} = -(m-j)(N-m-j) u_j + f_j

integer-preserving, so the chain built from integer data (``compute_F``,
``jacobi_P``, ``jacobi_Q``) runs on ``int`` entries.  Two series are equal
when their lists are; every series here is truncated at N + CAP_PAD.
``y_coeff`` recovers the actual y^j coefficients, Fractions, at
presentation time.  ``apply_Dm`` works on the actual y-coefficients, scaled
by (cap!)^2 so that they stay integral.

F_l depends only on the prefix (m_1..m_l) and N, so ``chain_tree(N)``
builds the chains of all 2^(N-1) sequences ending at N at once: one
``solve_Dm`` step per node of the prefix tree, each on its parent's series,
2^N - 1 steps in all, cached per N.  The frobenius suite reads both its
chain checks off that tree; ``compute_F`` and ``c_table`` build a single
sequence's chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .exact_core import check_int_range, check_positive_int, factorial

CAP_PAD = 2  # every series in this module is truncated at N + CAP_PAD

__all__ = [
    "y_coeff",
    "degree",
    "check_msequence",
    "solve_Dm",
    "apply_Dm",
    "jacobi_P",
    "jacobi_Q",
    "compute_F",
    "chain_tree",
    "c_table",
    "top_coefficient",
]


def y_coeff(u: list, j: int) -> Fraction:
    """The actual y^j coefficient of the series ``u``, u_j / (j!)^2."""
    return Fraction(u[j], factorial(j) ** 2)


def degree(u: list) -> int:
    """Largest j with a nonzero entry of ``u``, or -1 for the zero series."""
    for j in range(len(u) - 1, -1, -1):
        if u[j]:
            return j
    return -1


def check_msequence(entries) -> tuple[int, ...]:
    """Validate a strictly increasing sequence of positive integers."""
    seq = tuple(entries)
    if not seq:
        raise ValueError("an m-sequence must have at least one entry")
    for e in seq:
        check_positive_int(e, "m-sequence entries must be positive integers")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"m-sequence must be strictly increasing, got {seq}")
    return seq


def solve_Dm(m: int, big_n: int, f: list, u0) -> list:
    """The unique series u with D_m u = f and u(0) = u0, truncated where
    ``f`` is.

    Computed by the normalized-coefficient recursion
    u_{j+1} = -(m-j)(N-m-j) u_j + f_j.
    """
    u = [u0]
    for j in range(len(f) - 1):
        u.append(-(m - j) * (big_n - m - j) * u[j] + f[j])
    return u


def apply_Dm(m: int, big_n: int, u: list) -> list:
    """Apply D_m directly, term by term, on actual y-coefficients.

    The y-coefficients a_i = u_i / (i!)^2 enter scaled by (cap!)^2, as
    u_i * (cap!/i!)^2, which is an integer for integer storage; each output
    coefficient is divided back once.  Independent of the recursion in
    ``solve_Dm``; exact whenever ``u`` is a polynomial of degree < cap (true
    up-cap coefficients are zero).
    """
    cap = len(u) - 1
    top = factorial(cap)
    a = [v * (top // factorial(i)) ** 2 for i, v in enumerate(u)]
    a_pad = a + [0, 0]
    upp = [(i + 2) * (i + 1) * a_pad[i + 2] for i in range(cap + 1)]
    up = [(i + 1) * a_pad[i + 1] for i in range(cap + 1)]
    out = []
    for i in range(cap + 1):
        term = upp[i - 1] if i >= 1 else 0             # y * u''
        if i >= 2:
            term += upp[i - 2]                         # y^2 * u''
        term += up[i]                                  # u'
        if i >= 1:
            term -= (big_n - 1) * up[i - 1]            # -(N-1) y * u'
        term += m * (big_n - m) * a[i]
        num, den = term * factorial(i) ** 2, top * top
        q, rem = divmod(num, den)
        out.append(Fraction(num, den) if rem else q)  # an exact quotient stays an int
    return out


def _check_m(m, big_n) -> None:
    check_positive_int(big_n, "N must be a positive integer")
    check_int_range(m, 0, big_n, "m must lie in 0..N")


def jacobi_P(m: int, big_n: int) -> list:
    """The kernel solution: D_m P = 0, P(0) = 1.

    A polynomial of degree exactly min(m, N-m); up to normalization these
    are Jacobi polynomials.
    """
    _check_m(m, big_n)
    sol = solve_Dm(m, big_n, [0] * (big_n + CAP_PAD + 1), 1)
    want = min(m, big_n - m)
    if degree(sol) != want:
        raise AssertionError(f"kernel solution degree {degree(sol)} != {want}")
    return sol


def jacobi_Q(m: int, big_n: int) -> list:
    """The particular solution: D_m Q = P_m, Q(0) = 0, for m != N/2.

    A polynomial of degree <= max(m, N-m); at m = N/2 no polynomial solution
    exists and a ValueError is raised.
    """
    _check_m(m, big_n)
    if 2 * m == big_n:
        raise ValueError(f"singular case m = N/2 (m={m}, N={big_n})")
    sol = solve_Dm(m, big_n, jacobi_P(m, big_n), 0)
    if degree(sol) > max(m, big_n - m):
        raise AssertionError(f"particular solution degree {degree(sol)} too large")
    return sol


def _chain(mseq: tuple[int, ...], cap: int) -> list[list]:
    """F_0 = 1, D_{m_l} F_l = F_{l-1}, F_l(0) = 0, as F_0..F_r truncated at y^cap."""
    chain = [[1] + [0] * cap]
    for m in mseq:
        chain.append(solve_Dm(m, mseq[-1], chain[-1], 0))
    return chain


def compute_F(seq) -> list[list]:
    """The chain F_0 = 1, D_{m_l} F_l = F_{l-1}, F_l(0) = 0, as F_0..F_r."""
    mseq = check_msequence(seq)
    return _chain(mseq, mseq[-1] + CAP_PAD)


@cache
def chain_tree(big_n: int) -> MappingProxyType:
    """F_l for every prefix (m_1..m_l) of every m-sequence ending at N, as a
    read-only map from the prefix to F_l, a tuple truncated at N + CAP_PAD;
    the empty prefix maps to F_0 = 1.

    The prefixes are the nonempty subsets of 1..N.  Every prefix already
    built has entries below m, so extending each by m, for m = 1..N in turn,
    reaches every node once after its parent: F_l is one ``solve_Dm`` step on
    its parent's F_(l-1).  So ``chain_tree(N)[seq]`` equals
    ``compute_F(seq)[-1]`` for a sequence ending at N, and its entry N equals
    ``c_table(seq, N)[N][r]``, since the recursion runs forward.
    """
    check_positive_int(big_n, "N must be a positive integer")
    nodes = {(): (1,) + (0,) * (big_n + CAP_PAD)}
    for m in range(1, big_n + 1):
        for prefix, series in list(nodes.items()):
            nodes[(*prefix, m)] = tuple(solve_Dm(m, big_n, series, 0))
    return MappingProxyType(nodes)


def c_table(seq, jmax: int) -> list[list[int]]:
    """The integer table c[j][l] = (j!)^2 [y^j] F_l for 0 <= j <= jmax,
    0 <= l <= r: the chain truncated at y^jmax, transposed into rows.
    ``jmax`` must be an ``int`` (not ``bool``) at least N, else ValueError."""
    mseq = check_msequence(seq)
    check_int_range(jmax, mseq[-1], math.inf, f"jmax must be an integer >= N = {mseq[-1]}")
    return [list(row) for row in zip(*_chain(mseq, jmax))]


def top_coefficient(seq) -> Fraction:
    """The y^N coefficient of F_r in closed form,
    1 / [N^2 * prod_{l<r} m_l (N - m_l)]; F_r has degree exactly N."""
    mseq = check_msequence(seq)
    big_n = mseq[-1]
    denom = big_n * big_n
    for m in mseq[:-1]:
        denom *= m * (big_n - m)
    return Fraction(1, denom)
