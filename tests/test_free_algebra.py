"""Noncommutative polynomial arithmetic and matrix evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit.free_algebra import (
    NCPoly,
    UnboundGeneratorError,
    mat_identity,
    mat_is_symmetric,
    mat_scale,
    nc_eval_matrices,
)
from juhlkit.juhl_core import QExpansion

words = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3).map(tuple)
coeffs = st.fractions(min_value=-4, max_value=4)
polys = st.dictionaries(words, coeffs, max_size=4).map(NCPoly)


def test_add_combines_like_words():
    x1 = NCPoly.from_word((1,))
    assert x1 + x1 == NCPoly({(1,): 2})


def test_add_zero_is_identity():
    p = NCPoly({(1, 2): Fraction(3, 2), (): -1})
    assert p + NCPoly.zero() == p


def test_add_cancellation_prunes_word():
    p = NCPoly({(1, 2): 1})
    q = NCPoly({(1, 2): -1})
    total = p + q
    assert total == NCPoly.zero()
    assert len(total) == 0


def test_mul_concatenates_words():
    x1 = NCPoly.from_word((1,))
    x2 = NCPoly.from_word((2,))
    assert x1 * x2 == NCPoly.from_word((1, 2))


def test_mul_is_noncommutative():
    x1 = NCPoly.from_word((1,))
    x2 = NCPoly.from_word((2,))
    assert x1 * x2 != x2 * x1


def test_mul_distributes():
    x1 = NCPoly.from_word((1,))
    x2 = NCPoly.from_word((2,))
    assert (x1 + x2) * x1 == NCPoly({(1, 1): 1, (2, 1): 1})


def test_scalar_multiplication_and_negation():
    p = NCPoly({(1,): Fraction(1, 2)})
    assert 2 * p == NCPoly({(1,): 1})
    assert -p == NCPoly({(1,): Fraction(-1, 2)})
    assert 0 * p == NCPoly.zero()


def test_term_maps_combine_only_with_their_own_type():
    # NCPoly and QExpansion share one sparse map; its sums and equality
    # never mix the two key types
    p = NCPoly({(1,): 1})
    q = QExpansion({((1,), 1): 1})
    assert NCPoly.zero() != QExpansion.zero()
    with pytest.raises(TypeError):
        p + q
    with pytest.raises(TypeError):
        p * q
    assert q - q == QExpansion.zero()
    assert 3 * q == q * 3 == QExpansion({((1,), 1): 3})
    assert 0 * q == QExpansion.zero()


def test_sorted_terms_are_length_then_lex():
    p = NCPoly({(2,): 1, (1, 1): 1, (1,): 1, (): 1})
    assert [w for w, _ in p.sorted_terms()] == [(), (1,), (2,), (1, 1)]


def test_rejects_bad_words_and_coefficients():
    with pytest.raises(ValueError):
        NCPoly({(0,): 1})
    with pytest.raises(ValueError):
        NCPoly({(1,): 0.5})


@given(p=polys, q=polys, r=polys)
@settings(max_examples=60, deadline=None)
def test_mul_associative_add_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


def _random_symmetric(rng, d):
    raw = [[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(d)] for _ in range(d)]
    return tuple(tuple((raw[i][j] + raw[j][i]) / 2 for j in range(d)) for i in range(d))


def _naive_mat_mul(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def test_eval_single_generator_returns_its_matrix():
    rng = random.Random(7)
    a = _random_symmetric(rng, 3)
    assert nc_eval_matrices(NCPoly.from_word((1,)), {1: a}) == a


def test_eval_word_is_matrix_product_against_naive_oracle():
    rng = random.Random(11)
    a = _random_symmetric(rng, 3)
    b = _random_symmetric(rng, 3)
    got = nc_eval_matrices(NCPoly.from_word((1, 2)), {1: a, 2: b})
    assert got == _naive_mat_mul(a, b)


def test_eval_identity_assignment_sums_coefficients():
    p = NCPoly({(): 2, (1,): Fraction(1, 3), (1, 2): 1})
    eye = mat_identity(3)
    total = Fraction(2) + Fraction(1, 3) + 1
    assert nc_eval_matrices(p, {1: eye, 2: eye}) == mat_scale(total, eye)


def test_eval_is_ring_homomorphism():
    rng = random.Random(23)
    assign = {g: _random_symmetric(rng, 3) for g in (1, 2, 3)}
    for _ in range(10):
        p = NCPoly(
            {tuple(rng.choices((1, 2, 3), k=rng.randint(0, 3))): Fraction(rng.randint(-3, 3))}
        )
        q = NCPoly(
            {tuple(rng.choices((1, 2, 3), k=rng.randint(0, 3))): Fraction(rng.randint(-3, 3))}
        )
        ev = lambda poly: nc_eval_matrices(poly, assign)
        assert ev(p * q) == _naive_mat_mul(ev(p), ev(q))
        assert ev(p + q) == tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ev(p), ev(q))
        )


def test_eval_missing_generator_raises():
    with pytest.raises(UnboundGeneratorError):
        nc_eval_matrices(NCPoly.from_word((2,)), {1: mat_identity(2)})


def test_eval_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        nc_eval_matrices(
            NCPoly.from_word((1, 2)), {1: mat_identity(2), 2: mat_identity(3)}
        )


def test_eval_needs_dimension_for_empty_assignment():
    with pytest.raises(ValueError):
        nc_eval_matrices(NCPoly.one(), {})
    assert nc_eval_matrices(NCPoly.one(), {}, dim=2) == mat_identity(2)


def test_symmetric_helper():
    assert mat_is_symmetric(mat_identity(3))
    assert not mat_is_symmetric(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))


def _naive_eval(p, assign, d):
    acc = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    for word, coeff in p.items():
        prod = mat_identity(d)
        for g in word:
            prod = _naive_mat_mul(prod, assign[g])
        acc = tuple(
            tuple(x + coeff * y for x, y in zip(ra, rb)) for ra, rb in zip(acc, prod)
        )
    return acc


@pytest.mark.parametrize("entry_kind", ["mixed", "int"])
def test_eval_matches_naive_fraction_path(entry_kind):
    rng = random.Random(31)
    d = 3
    for _ in range(20):
        if entry_kind == "mixed":
            assign = {
                g: tuple(
                    tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 12)) for _ in range(d))
                    for _ in range(d)
                )
                for g in (1, 2, 3)
            }
        else:
            assign = {
                g: tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d))
                for g in (1, 2, 3)
            }
        p = NCPoly(
            {
                tuple(rng.choices((1, 2, 3), k=rng.randint(0, 4))): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 9)
                )
                for _ in range(rng.randint(0, 5))
            }
        )
        assert nc_eval_matrices(p, assign) == _naive_eval(p, assign, d)
