"""Truncated power series in s with noncommutative coefficients, and the
operators L_k = s*d2/ds2 - k*d/ds + X(s) whose iteration generates the
composition-indexed coefficient family nbar_I.

Conventions.  X(s) = x_1 + x_2*s + x_3*s^2 + ... multiplies from the left.
A generator picked up later in the iteration is therefore prepended, and the
s=0 coefficient of the full iteration applied to 1 comes out directly as

    sum over |I| = N of  nbar_I * x_{I_1} x_{I_2} ... x_{I_r}

in composition order (the family satisfies nbar_I = nbar_{reversed I}, so no
reversal is ever applied).  Serialized expansions downstream use this word
order.

Truncation.  Every series carries a fixed coefficient window 0..cap plus a
``valid`` index: coefficients above ``valid`` may be wrong because the
operator's derivative terms consume one degree of lookahead per application.
The iteration entry points choose cap = N, apply N (or N-1) operators and
assert that the s^0 coefficient they return is still inside the valid
window, so a truncated coefficient can never be consumed silently.
"""

from __future__ import annotations

from .free_algebra import NCPoly

__all__ = ["NCSeries", "x_series", "apply_L", "iterate_L_full", "iterate_L_partial"]


class NCSeries:
    """Coefficient list c_0..c_cap of a truncated series in s."""

    __slots__ = ("coeffs", "cap", "valid")

    def __init__(self, coeffs: list[NCPoly], cap: int, valid: int | None = None):
        if len(coeffs) != cap + 1:
            raise ValueError("coefficient list must have length cap + 1")
        self.coeffs = list(coeffs)
        self.cap = cap
        self.valid = cap if valid is None else valid

    @classmethod
    def zero(cls, cap: int) -> NCSeries:
        return cls([NCPoly.zero() for _ in range(cap + 1)], cap)

    @classmethod
    def one(cls, cap: int) -> NCSeries:
        out = cls.zero(cap)
        out.coeffs[0] = NCPoly.one()
        return out

    @classmethod
    def monomial(cls, power: int, cap: int, coeff: NCPoly | None = None) -> NCSeries:
        """The series coeff * s^power (coeff defaults to the empty word)."""
        if not 0 <= power <= cap:
            raise ValueError(f"power must lie in 0..cap, got {power}")
        out = cls.zero(cap)
        out.coeffs[power] = NCPoly.one() if coeff is None else coeff
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, NCSeries):
            return self.cap == other.cap and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"NCSeries({self.coeffs!r}, cap={self.cap}, valid={self.valid})"


def x_series(cap: int) -> NCSeries:
    """X(s) = x_1 + x_2*s + ... + x_{cap+1}*s^cap."""
    return NCSeries([NCPoly.from_word((e + 1,)) for e in range(cap + 1)], cap)


def apply_L(k: int, u: NCSeries) -> NCSeries:
    """Apply L_k = s*d2/ds2 - k*d/ds + X(s)*(left multiplication).

    Coefficient i of the result is (i+1)(i-k)*u_{i+1} + sum_e x_{e+1}*u_{i-e};
    terms pushed past the cap are dropped and ``valid`` decreases by one.
    """
    cap = u.cap
    out: list[NCPoly] = []
    for i in range(cap + 1):
        acc: dict = {}
        if i + 1 <= cap:
            factor = (i + 1) * (i - k)
            if factor:
                for word, coeff in u.coeffs[i + 1].items():
                    acc[word] = factor * coeff
        for e in range(i + 1):
            gen = e + 1
            # left multiplication by x_{e+1} prepends the generator
            for word, coeff in u.coeffs[i - e].items():
                key = (gen, *word)
                total = acc.get(key)
                if total is None:
                    acc[key] = coeff
                elif total + coeff:
                    acc[key] = total + coeff
                else:
                    del acc[key]
        out.append(NCPoly._raw(acc))
    return NCSeries(out, cap, valid=min(u.valid - 1, cap))


def _constant_term(u: NCSeries, weight: int) -> NCPoly:
    if u.valid < 0:
        raise RuntimeError("truncated coefficient consumed; cap too small")
    head = u.coeffs[0]
    if head.weights() - {weight}:
        raise RuntimeError(f"expected words of weight {weight}, got {sorted(head.weights())}")
    return head


def iterate_L_full(n: int) -> NCPoly:
    """s=0 coefficient of L_{1-N} L_{3-N} ... L_{N-3} L_{N-1} applied to 1.

    Supported on words of total weight N; equals the closed-form sum of
    nbar_I * x_I over all compositions I of N.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"N must be a positive integer, got {n!r}")
    u = NCSeries.one(n)
    for k in range(n - 1, -n, -2):
        u = apply_L(k, u)
    return _constant_term(u, n)


def iterate_L_partial(n: int, a: int) -> NCPoly:
    """s=0 coefficient of L_{1-N} ... L_{N-3} applied to s^(a-1).

    The product omits the final factor L_{N-1} (N-1 factors in total).  The
    result is supported on words of weight N-a and equals the closed-form
    sum of nbar_{(I,a)} * x_I over compositions I of N-a; for a = N that sum
    degenerates to nbar_{(N)} = (N-1)!^2 times the empty word.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"N must be a positive integer, got {n!r}")
    if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= n:
        raise ValueError(f"a must lie in 1..N, got {a!r}")
    u = NCSeries.monomial(a - 1, n)
    for k in range(n - 3, -n, -2):
        u = apply_L(k, u)
    return _constant_term(u, n - a)
