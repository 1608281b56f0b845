"""Noncommutative polynomials over exact rationals.

Words are tuples of positive generator indices; the empty word is the
multiplicative identity, and multiplication of words is concatenation
(modelling composition of operators).  Coefficients are exact rationals,
stored as nonzero integer numerators over one positive denominator per map,
always reduced; every read (``items``, ``coeff``, ``sorted_terms``, ``repr``)
gives them as ``Fraction``.  ``TermMap`` is that sparse map with its one
streaming sum (``combination``, behind ``+``, ``-`` and scalar multiples) and
length-then-lexicographic term order; ``NCPoly`` adds the word product and
the right quotient by a letter (the words that end in it, that letter
dropped), and ``juhl_core.QExpansion`` stores a Q-term (I, a) under the word
``(*I, a)``, so the same product gives ``NCPoly * QExpansion``, that is
P_{2I}(Q).

The matrix helpers at the end (``mat_vec``, ``mat_transpose``,
``mat_is_symmetric``) are the ones ``backends`` needs: there a polynomial is
evaluated in a matrix backend by applying each word to a vector
(``backends.evaluate_P``), never by forming matrix products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact_core import Composition, check_positive_int

Word = Composition
Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

__all__ = [
    "Word",
    "Matrix",
    "Vector",
    "TermMap",
    "NCPoly",
    "mat_vec",
    "mat_transpose",
    "mat_is_symmetric",
]


def _check_word(word) -> Word:
    w = tuple(word)
    for g in w:
        check_positive_int(g, "generator indices must be positive integers")
    return w


def _as_scalar(value) -> Fraction | None:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return None


def _rational(value, what: str) -> Fraction:
    """``value`` as a Fraction if it is an ``int`` (a ``bool`` is not) or a
    ``Fraction``, else a ValueError naming ``what``."""
    c = _as_scalar(value)
    if c is None:
        raise ValueError(f"{what} must be rational, got {value!r}")
    return c


def _accumulate(out: dict, terms) -> None:
    """Add the (key, coeff) pairs ``terms``, whose coefficients are nonzero,
    into ``out``; a sum that cancels deletes its key, so no zero is stored."""
    for k, c in terms:
        s = out.get(k)
        if s is None:
            out[k] = c
            continue
        s += c
        if s:
            out[k] = s
        else:
            del out[k]


class TermMap:
    """Sparse finite map word -> rational: ``_terms`` maps each stored word
    to a nonzero int over the one denominator ``_den`` > 0, always reduced,
    so equal maps store equal dicts.

    A subclass turns the keys its constructor is given into stored words
    with ``_check_key``.  Sums, differences and equality are defined between
    maps of the same type only; scalars multiply every value.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None):
        ratios = {}
        for key, coeff in (terms or {}).items():
            c = _rational(coeff, "coefficients")
            if c:
                ratios[self._check_key(key)] = c.numerator, c.denominator
        built = self._from_ratios(ratios)
        self._terms, self._den = built._terms, built._den

    @classmethod
    def _raw(cls, terms: dict, den: int = 1):
        """The map key -> terms[key] / den (nonzero ints, den > 0), reduced;
        ``terms`` is kept, not copied, when nothing divides out."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        obj = cls.__new__(cls)
        obj._terms, obj._den = terms, den
        return obj

    @classmethod
    def _from_ratios(cls, ratios: dict):
        """The map key -> num / den from pairs (num != 0, den > 0), over their lcm."""
        den = math.lcm(*[d for _, d in ratios.values()])
        return cls._raw({k: num * (den // d) for k, (num, d) in ratios.items()}, den)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def combination(cls, pairs):
        """The sum of scale * map over the (scale, map) pairs (int or
        ``Fraction`` scales, maps of this type), read one at a time into a new
        integer accumulator that is rescaled when its denominator grows."""
        acc, den = {}, 1
        for scale, tmap in pairs:
            num = scale.numerator
            if not num or not tmap._terms:
                continue
            d = tmap._den * scale.denominator
            lcm = math.lcm(den, d)
            if lcm != den:
                up = lcm // den
                acc = {k: c * up for k, c in acc.items()}
                den = lcm
            num *= lcm // d
            _accumulate(acc, [(k, c * num) for k, c in tmap._terms.items()])
        return cls._raw(acc, den)

    def items(self) -> list[tuple[Word, Fraction]]:
        return [(k, Fraction(c, self._den)) for k, c in self._terms.items()]

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms ordered by word length, then lexicographically."""
        ordered = sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [(k, Fraction(c, self._den)) for k, c in ordered]

    def weights(self) -> set[int]:
        """Entry-sums of the support words (the empty word has weight 0)."""
        return {sum(w) for w in self._terms}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.combination([(1, self), (1, other)])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.combination([(1, self), (-1, other)])

    def __mul__(self, other):
        scalar = _as_scalar(other)
        if scalar is None:
            return NotImplemented
        return self.combination([(scalar, self)])

    __rmul__ = __mul__


class NCPoly(TermMap):
    """Sparse noncommutative polynomial: a finite map word -> rational."""

    __slots__ = ()

    _check_key = staticmethod(_check_word)

    @classmethod
    def one(cls) -> NCPoly:
        return cls._raw({(): 1})

    @classmethod
    def from_word(cls, word, coeff=1) -> NCPoly:
        return cls({_check_word(word): coeff})

    def coeff(self, word) -> Fraction:
        return Fraction(self._terms.get(tuple(word), 0), self._den)

    def right_quotient(self, a: int) -> NCPoly:
        """The words that end in the letter ``a``, with that letter dropped:
        the p with p * x_a the terms of ``self`` that end in x_a.  A new map,
        reduced; ``self`` is never written."""
        return self._raw({w[:-1]: c for w, c in self._terms.items() if w and w[-1] == a}, self._den)

    def __mul__(self, other):
        """Scalar multiple, or the bilinear extension of word concatenation
        onto any term map, whose type the product keeps; the numerators and
        the denominators multiply, and the product is reduced once."""
        if not isinstance(other, TermMap):
            return super().__mul__(other)
        out: dict[Word, int] = {}
        right = other._terms.items()
        _accumulate(out, ((w1 + w2, c1 * c2) for w1, c1 in self._terms.items() for w2, c2 in right))
        return other._raw(out, self._den * other._den)

    def __repr__(self) -> str:
        if not self._terms:
            return "NCPoly(0)"
        parts = []
        for w, c in self.sorted_terms():
            mono = "*".join(f"x{g}" for g in w) if w else "1"
            parts.append(f"{c}*{mono}")
        return "NCPoly(" + " + ".join(parts) + ")"


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if len(v) != len(a[0]):
        raise ValueError("matrix dimension mismatch")
    # a list first: tuple(<generator>) over-allocates, and the shrunk
    # copies fill the tuple free lists, raising peak memory
    return tuple([sum(map(operator.mul, row, v)) for row in a])


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_is_symmetric(a: Matrix) -> bool:
    return a == mat_transpose(a)

