"""Noncommutative polynomials over exact rationals.

Words are tuples of positive generator indices; the empty word is the
multiplicative identity, and multiplication of words is concatenation
(modelling composition of operators).  Coefficients are ``Fraction``;
zero coefficients are never stored.  ``TermMap`` is that sparse map with its
sums, scalar multiples and length-then-lexicographic term order; ``NCPoly``
adds the word product, and ``juhl_core.QExpansion`` stores a Q-term (I, a)
under the word ``(*I, a)``, so the same product gives ``NCPoly *
QExpansion``, that is P_{2I}(Q).

The matrix helpers at the end (``mat_vec``, ``mat_transpose``,
``mat_is_symmetric``) are the ones ``backends`` needs: there a polynomial is
evaluated in a matrix backend by applying each word to a vector
(``backends.evaluate_P``), never by forming matrix products.
"""

from __future__ import annotations

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
    """Sparse finite map word -> Fraction with zero values never stored.

    A subclass turns the keys its constructor is given into stored words
    with ``_check_key``.  Sums, differences and equality are defined between
    maps of the same type only; scalars multiply every value.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                c = _as_scalar(coeff)
                if c is None:
                    raise ValueError(f"coefficients must be rational, got {coeff!r}")
                if c:
                    clean[self._check_key(key)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms ordered by word length, then lexicographically."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def weights(self) -> set[int]:
        """Entry-sums of the support words (the empty word has weight 0)."""
        return {sum(w) for w in self._terms}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        _accumulate(out, other._terms.items())
        return self._raw(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        scalar = _as_scalar(other)
        if scalar is None:
            return NotImplemented
        if not scalar:
            return self.zero()
        return self._raw({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__


class NCPoly(TermMap):
    """Sparse noncommutative polynomial: a finite map word -> Fraction."""

    __slots__ = ()

    _check_key = staticmethod(_check_word)

    @classmethod
    def one(cls) -> NCPoly:
        return cls._raw({(): Fraction(1)})

    @classmethod
    def from_word(cls, word, coeff=1) -> NCPoly:
        c = _as_scalar(coeff)
        if c is None:
            raise ValueError(f"coefficients must be rational, got {coeff!r}")
        return cls._raw({_check_word(word): c}) if c else cls.zero()

    def coeff(self, word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def __mul__(self, other):
        """Scalar multiple, or the bilinear extension of word concatenation
        onto any term map, whose type the product keeps."""
        if not isinstance(other, TermMap):
            return super().__mul__(other)
        out: dict[Word, Fraction] = {}
        right = other._terms.items()
        _accumulate(out, ((w1 + w2, c1 * c2) for w1, c1 in self._terms.items() for w2, c2 in right))
        return other._raw(out)

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

