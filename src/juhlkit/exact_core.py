"""Integer compositions and the coefficient families of Juhl's formulae.

All scalars are exact rationals (``fractions.Fraction``); nothing here ever
rounds.  Compositions are plain tuples of positive integers, enumerated in a
fixed order (length ascending, then lexicographic) so that every emitted
table and serialization is deterministic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from itertools import combinations

Rational = Fraction
Composition = tuple[int, ...]

__all__ = [
    "Rational",
    "Composition",
    "factorial",
    "check_positive_int",
    "check_int_range",
    "check_composition",
    "cut_bounds",
    "compositions_of",
    "partial_sums",
    "n_coeff",
    "n_ratio",
    "m_coeff",
    "m_ratio",
    "nbar_coeff",
    "nbar_ratio",
]


@cache
def factorial(n: int) -> int:
    """Cached arbitrary-precision factorial."""
    return math.factorial(n)


def check_positive_int(value, message: str) -> int:
    """``value`` if it is a positive ``int`` (a ``bool`` is not), else a
    ValueError reading ``message``, then ", got" and the value's repr."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{message}, got {value!r}")
    return value


def check_int_range(value, lo: int, hi: int, message: str) -> int:
    """``value`` if it is an ``int`` (a ``bool`` is not) in lo..hi, else a
    ValueError reading ``message``, then ", got" and the value's repr."""
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise ValueError(f"{message}, got {value!r}")
    return value


def check_composition(entries) -> Composition:
    """Validate ``entries`` as a composition and return it as a tuple."""
    comp = tuple(entries)
    if not comp:
        raise ValueError("a composition must have at least one entry")
    for e in comp:
        check_positive_int(e, "composition entries must be positive integers")
    return comp


def cut_bounds(lo: int, hi: int):
    """Every subset A of {lo+1..hi-1}, size ascending then lexicographic, as
    the block bounds (lo, *A, hi) of the entries lo..hi-1 of a composition
    cut at A."""
    for size in range(hi - lo):
        for cuts in combinations(range(lo + 1, hi), size):
            yield (lo, *cuts, hi)


def compositions_of(n: int) -> list[Composition]:
    """All 2**(n-1) compositions of ``n``, length ascending then lexicographic."""
    check_positive_int(n, "n must be a positive integer")
    return [tuple(map(operator.sub, bounds[1:], bounds)) for bounds in cut_bounds(0, n)]


def partial_sums(entries) -> tuple[int, ...]:
    """Running sums I_1, I_1+I_2, ..., |I| of a composition."""
    comp = check_composition(entries)
    sums = []
    acc = 0
    for e in comp:
        acc += e
        sums.append(acc)
    return tuple(sums)


def n_coeff(entries) -> Fraction:
    """The coefficient n_I of the explicit operator formula.

    n_I = (|I|-1)!^2 * prod_j 1/(I_j-1)!^2
                     * prod_{j<r} 1/[(I_1+...+I_j)(I_{j+1}+...+I_r)]
    """
    return Fraction(*n_ratio(check_composition(entries)))


def n_ratio(comp: Composition) -> tuple[int, int]:
    """n_I as an unreduced (numerator, denominator) pair of integers, for a
    composition that is already validated."""
    num, den = nbar_ratio(comp)
    for e in comp:
        den *= factorial(e - 1) ** 2
    return num, den


def nbar_ratio(comp: Composition) -> tuple[int, int]:
    """nbar_I as an unreduced (numerator, denominator) pair of integers:
    (N-1)!^2 over the head products prod_{j<r} (I_1+...+I_j)(I_{j+1}+...+I_r),
    for a composition that is already validated."""
    total = sum(comp)
    den = 1
    head = 0
    for e in comp[:-1]:
        head += e
        den *= head * (total - head)
    return factorial(total - 1) ** 2, den


def m_coeff(entries) -> Fraction:
    """The coefficient m_I of the recursive operator formula.

    m_I = (-1)^(r+1) |I|! (|I|-1)! * prod_j 1/[I_j!(I_j-1)!]
                                   * prod_{j<r} 1/(I_j+I_{j+1})
    """
    return Fraction(*m_ratio(check_composition(entries)))


def m_ratio(comp: Composition) -> tuple[int, int]:
    """m_I as an unreduced (numerator, denominator) pair of integers, the
    sign in the numerator, for a composition that is already validated."""
    total = sum(comp)
    sign = 1 if len(comp) % 2 == 1 else -1
    den = 1
    for e in comp:
        den *= factorial(e) * factorial(e - 1)
    for a, b in zip(comp, comp[1:]):
        den *= a + b
    return sign * factorial(total) * factorial(total - 1), den


def nbar_coeff(entries) -> Fraction:
    """The rescaled coefficient with the (I_j-1)!^2 factors stripped.

    nbar_I = (N-1)!^2 / prod_{k<r} [(I_1+...+I_k)(I_{k+1}+...+I_r)], N = |I|,
    so that n_I = nbar_I * prod_j 1/(I_j-1)!^2.
    """
    return Fraction(*nbar_ratio(check_composition(entries)))
