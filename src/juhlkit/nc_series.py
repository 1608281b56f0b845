"""Truncated power series in s with noncommutative coefficients, and the
operators L_k = s*d2/ds2 - k*d/ds + X(s) whose iteration generates the
composition-indexed coefficient family nbar_I.

Conventions.  X(s) = x_1 + x_2*s + x_3*s^2 + ... multiplies from the left.
A generator picked up later in the iteration is therefore prepended, and the
s=0 coefficient of the full iteration applied to 1 comes out directly as

    sum over |I| = N of  nbar_I * x_{I_1} x_{I_2} ... x_{I_r}

in composition order (the family satisfies nbar_I = nbar_{reversed I}, so no
reversal is ever applied).  Serialized expansions downstream use this word
order.  The partial iteration for a last part a is this one's right
quotient by x_a (``iterate_L_partial``): one L-run per N serves both.

Truncation.  A series carries the coefficients 0..cap.  Coefficient i of
L_k u needs those of u up to i+1, so ``apply_L`` returns the window
0..cap-1: every coefficient it stores is exact, and the window shrinks by
one lane per operator.  The iteration starts at cap = N, the number of
factors, so exactly the s^0 lane is left at the end.  The coefficients of L_k and
X(s) are integers, so from an integer start every lane is an ``NCPoly``
over denominator 1, and the s^0 lane is the result as it stands.
"""

from __future__ import annotations

import math
from functools import cache

from .exact_core import check_int_range, check_positive_int
from .free_algebra import NCPoly

__all__ = ["NCSeries", "x_series", "apply_L", "iterate_L_full", "iterate_L_partial"]


class NCSeries:
    """Coefficient list c_0..c_cap of a truncated series in s."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: list[NCPoly], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if len(coeffs) != cap + 1:
            raise ValueError("coefficient list must have length cap + 1")
        self.coeffs = list(coeffs)
        self.cap = cap

    @classmethod
    def one(cls, cap: int) -> NCSeries:
        return cls([NCPoly.one(), *[NCPoly.zero() for _ in range(cap)]], cap)

    def __eq__(self, other) -> bool:
        if isinstance(other, NCSeries):
            return self.cap == other.cap and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"NCSeries({self.coeffs!r}, cap={self.cap})"


def x_series(cap: int) -> NCSeries:
    """X(s) = x_1 + x_2*s + ... + x_{cap+1}*s^cap."""
    return NCSeries([NCPoly._raw({(e + 1,): 1}) for e in range(cap + 1)], cap)


def apply_L(k: int, u: NCSeries) -> NCSeries:
    """Apply L_k = s*d2/ds2 - k*d/ds + X(s)*(left multiplication).

    Coefficient i of the result is (i+1)(i-k)*u_{i+1} + sum_e x_{e+1}*u_{i-e},
    for i in 0..u.cap-1 (the lanes that u determines exactly).
    """
    den = math.lcm(*[lane._den for lane in u.coeffs])  # 1 in the iterations
    lanes = [lane._terms if den == 1 else (lane * den)._terms for lane in u.coeffs]
    out: list[NCPoly] = []
    for i in range(u.cap):
        factor = (i + 1) * (i - k)
        acc = {word: factor * coeff for word, coeff in lanes[i + 1].items()} if factor else {}
        for e in range(i + 1):
            gen = e + 1
            # left multiplication by x_{e+1} prepends the generator
            for word, coeff in lanes[i - e].items():
                key = (gen, *word)
                total = acc.get(key)
                if total is None:
                    acc[key] = coeff
                elif total + coeff:
                    acc[key] = total + coeff
                else:
                    del acc[key]
        out.append(NCPoly._raw(acc, den))
    return NCSeries(out, u.cap - 1)


@cache
def iterate_L_full(n: int) -> NCPoly:
    """s=0 coefficient of L_{1-N} L_{3-N} ... L_{N-3} L_{N-1} applied to 1.

    Supported on words of total weight N; equals the closed-form sum of
    nbar_I * x_I over all compositions I of N.  Cached per N, like the
    ``juhl_core`` expansions, so the checks of one order share one iteration.
    """
    check_positive_int(n, "N must be a positive integer")
    u = NCSeries.one(n)
    for k in range(n - 1, -n, -2):
        u = apply_L(k, u)
    if u.cap != 0:
        raise RuntimeError(f"expected a one-lane window after the iteration, got cap {u.cap}")
    head = u.coeffs[0]
    if head.weights() - {n}:
        raise RuntimeError(f"expected words of weight {n}, got {sorted(head.weights())}")
    return head


def iterate_L_partial(n: int, a: int) -> NCPoly:
    """s=0 coefficient of L_{1-N} ... L_{N-3} applied to s^(a-1).

    The product omits the final factor L_{N-1} (N-1 factors in total).  The
    result is supported on words of weight N-a and equals the closed-form
    sum of nbar_{(I,a)} * x_I over compositions I of N-a; for a = N that sum
    degenerates to nbar_{(N)} = (N-1)!^2 times the empty word.

    It is read off the full iteration, not iterated again.  L_k commutes
    with right multiplication by a letter, and the first factor L_{N-1}
    maps 1 to X(s) = sum_a x_a s^(a-1), so

        iterate_L_full(N) = sum_a iterate_L_partial(N, a) * x_a

    exactly: the partial for a is the right quotient of the full iteration
    by x_a.
    """
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    return iterate_L_full(n).right_quotient(a)
