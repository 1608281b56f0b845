"""Noncommutative polynomial arithmetic, and its evaluation in matrices
(``backends.evaluate_P`` on the standard basis vectors)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from juhlkit.backends import MatrixAssignment, UnboundOrderError, evaluate_P
from juhlkit.free_algebra import NCPoly, _accumulate, mat_is_symmetric
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
    # never mix the two types, and an operator acts on a Q-expansion only
    # from the left
    p = NCPoly({(1,): 1})
    q = QExpansion({((1,), 1): 1})
    assert NCPoly.zero() != QExpansion.zero()
    with pytest.raises(TypeError):
        p + q
    assert p * q == QExpansion({((1, 1), 1): 1})
    with pytest.raises(TypeError):
        q * p
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


def _naive_product(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _identity(d):
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def _eval_matrix(p, assign, d):
    # evaluate_P on the standard basis vectors gives the columns; the
    # matrix is their transpose
    backend = MatrixAssignment(assign, (0,) * d)
    columns = [evaluate_P(p, backend, tuple(int(i == j) for j in range(d))) for i in range(d)]
    return tuple(zip(*columns))


def test_eval_single_generator_returns_its_matrix():
    rng = random.Random(7)
    a = _random_symmetric(rng, 3)
    assert _eval_matrix(NCPoly.from_word((1,)), {1: a}, 3) == a


def test_eval_word_is_matrix_product_against_naive_oracle():
    rng = random.Random(11)
    a = _random_symmetric(rng, 3)
    b = _random_symmetric(rng, 3)
    got = _eval_matrix(NCPoly.from_word((1, 2)), {1: a, 2: b}, 3)
    assert got == _naive_product(a, b)


def test_eval_identity_assignment_sums_coefficients():
    p = NCPoly({(): 2, (1,): Fraction(1, 3), (1, 2): 1})
    eye = _identity(3)
    total = Fraction(2) + Fraction(1, 3) + 1
    f = (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert evaluate_P(p, MatrixAssignment({1: eye, 2: eye}, f), f) == tuple(total * x for x in f)


def test_eval_missing_generator_raises():
    backend = MatrixAssignment({1: _identity(2)}, (1, 0))
    with pytest.raises(UnboundOrderError):
        evaluate_P(NCPoly.from_word((2,)), backend, backend.f)


def test_eval_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        MatrixAssignment({1: _identity(2), 2: _identity(3)}, (1, 0))


def test_eval_needs_dimension_for_empty_assignment():
    # with no matrices the test vector fixes the dimension
    f = (Fraction(1, 2), Fraction(-3))
    backend = MatrixAssignment({}, f)
    assert backend.dim == 2
    assert evaluate_P(NCPoly.one(), backend, f) == f
    assert _eval_matrix(NCPoly.one(), {}, 2) == _identity(2)


def test_symmetric_helper():
    assert mat_is_symmetric(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert mat_is_symmetric(((Fraction(1, 2), -3), (-3, Fraction(7, 5))))
    assert not mat_is_symmetric(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))


def _naive_eval(p, assign, d):
    acc = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    for word, coeff in p.items():
        prod = _identity(d)
        for g in word:
            prod = _naive_product(prod, assign[g])
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
            raw = {
                g: [[Fraction(rng.randint(-7, 7), rng.randint(1, 12)) for _ in range(d)] for _ in range(d)]
                for g in (1, 2, 3)
            }
        else:
            raw = {g: [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)] for g in (1, 2, 3)}
        # the backend takes symmetric matrices; A + A^T keeps int entries int
        assign = {
            g: tuple(tuple(m[i][j] + m[j][i] for j in range(d)) for i in range(d))
            for g, m in raw.items()
        }
        p = NCPoly(
            {
                tuple(rng.choices((1, 2, 3), k=rng.randint(0, 4))): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 9)
                )
                for _ in range(rng.randint(0, 5))
            }
        )
        assert _eval_matrix(p, assign, d) == _naive_eval(p, assign, d)


@given(p=polys, q=polys)
@settings(max_examples=60, deadline=None)
def test_mul_is_the_sum_over_word_pairs(p, q):
    # equality compares the stored dicts, so a stored zero would fail it
    want: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            want[w1 + w2] = want.get(w1 + w2, Fraction(0)) + c1 * c2
    assert p * q == NCPoly(want)


def test_mul_drops_a_cancelled_word():
    # x1 * x2x3 and x1x2 * (-x3) are the same word with opposite signs
    p = NCPoly({(1,): 1, (1, 2): 1}) * NCPoly({(2, 3): 1, (3,): -1})
    assert p == NCPoly({(1, 3): -1, (1, 2, 2, 3): 1})
    assert (1, 2, 3) not in dict(p.items())


def _accumulated_product(p, q):
    out: dict = {}
    _accumulate(out, ((w1 + w2, c1 * c2) for w1, c1 in p._terms.items() for w2, c2 in q._terms.items()))
    return out


@pytest.mark.parametrize(
    "sign, want",
    [(1, {(1, 1): 1, (1, 1, 1): 2, (1, 1, 1, 1): 1}), (-1, {(1, 1): 1, (1, 1, 1, 1): -1})],
    ids=["colliding", "cancelling"],
)
def test_mul_with_colliding_words_is_the_accumulated_sum(sign, want):
    # (x1 + x1x1)(x1 +- x1x1): x1 * x1x1 and x1x1 * x1 are the same word, so
    # the product leaves the one-dict path; in the cancelling case x1x1x1 goes
    p = NCPoly({(1,): 1, (1, 1): 1})
    q = NCPoly({(1,): 1, (1, 1): sign})
    product = p * q
    assert (product._terms, product._den) == (_accumulated_product(p, q), 1)
    assert product == NCPoly(want)
    assert 0 not in product._terms.values()


def test_right_quotient_keeps_the_words_that_end_in_the_letter():
    p = NCPoly({(1, 2): 3, (2,): 5, (2, 1): 7, (): 11})
    assert p.right_quotient(2) == NCPoly({(1,): 3, (): 5})
    assert p.right_quotient(1) == NCPoly({(2,): 7})
    # no word ends in 3, and the empty word ends in no letter
    assert p.right_quotient(3) == NCPoly.zero()
    assert NCPoly.one().right_quotient(1) == NCPoly.zero()


def test_right_quotient_is_reduced_and_leaves_its_operand():
    # over 6, the words ending in 1 carry 2/6 and 4/6: the quotient is over 3
    p = NCPoly({(2, 1): Fraction(1, 3), (1,): Fraction(2, 3), (2,): Fraction(1, 6)})
    terms, den = dict(p._terms), p._den
    q = p.right_quotient(1)
    assert (q._terms, q._den) == ({(2,): 1, (): 2}, 3)
    assert q == NCPoly({(2,): Fraction(1, 3), (): Fraction(2, 3)})
    assert (p._terms, p._den) == (terms, den) and q._terms is not p._terms
    half = NCPoly({(1,): Fraction(1, 2), (2,): 1})
    assert (half.right_quotient(2)._terms, half.right_quotient(2)._den) == ({(): 1}, 1)


@given(p=st.dictionaries(words, st.integers(min_value=-5, max_value=5), max_size=6).map(NCPoly))
@settings(max_examples=60, deadline=None)
def test_right_quotients_recombine(p):
    # p is its empty word's term plus the sum over a of (p / x_a) * x_a
    parts = [(1, p.right_quotient(a) * NCPoly.from_word((a,))) for a in range(1, 4)]
    assert NCPoly.combination([(1, NCPoly({(): p.coeff(())})), *parts]) == p


# coefficients that are zero, negative, or over large and coprime denominators
wide_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.sampled_from([1, 2, 3, 7, 12, 2**40, 3**25, 10**15 + 37]),
)
wide_dicts = st.dictionaries(words, wide_coeffs, max_size=5)
q_dicts = st.dictionaries(st.tuples(words, st.integers(min_value=1, max_value=3)), wide_coeffs, max_size=4)
scales = st.one_of(st.integers(min_value=-3, max_value=3), wide_coeffs)


def _reduced(tmap):
    # the stored format: nonzero int numerators over one positive int
    # denominator that shares no factor with all of them
    nums = list(tmap._terms.values())
    return (
        type(tmap._den) is int
        and tmap._den > 0
        and all(type(c) is int and c for c in nums)
        and math.gcd(tmap._den, *nums) == 1
    )


def _ref_sum(pairs):
    # (scale, dict word -> Fraction) pairs summed in plain Fractions
    acc: dict = {}
    for scale, terms in pairs:
        for w, c in terms.items():
            acc[w] = acc.get(w, Fraction(0)) + scale * c
    return {w: c for w, c in acc.items() if c}


def _agrees(tmap, ref):
    return _reduced(tmap) and dict(tmap.items()) == ref and all(type(c) is Fraction for _, c in tmap.items())


@given(a=wide_dicts, b=wide_dicts, s=scales, q=q_dicts)
@settings(max_examples=120, deadline=None)
def test_every_result_is_reduced_and_equals_the_fraction_reference(a, b, s, q):
    p, r = NCPoly(a), NCPoly(b)
    assert _agrees(p, _ref_sum([(1, a)]))
    assert _agrees(p + r, _ref_sum([(1, a), (1, b)]))
    assert _agrees(p - r, _ref_sum([(1, a), (-1, b)]))
    assert _agrees(-p, _ref_sum([(-1, a)]))
    for scale in (s, 0, Fraction(s)):
        assert _agrees(p * scale, _ref_sum([(scale, a)]))
        assert _agrees(scale * p, _ref_sum([(scale, a)]))
    product: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            product[w1 + w2] = product.get(w1 + w2, Fraction(0)) + c1 * c2
    assert _agrees(p * r, _ref_sum([(1, product)]))
    qmap = QExpansion(q)
    applied: dict = {}
    for w1, c1 in a.items():
        for (w2, x), c2 in q.items():
            key = (w1 + w2, x)
            applied[key] = applied.get(key, Fraction(0)) + c1 * c2
    got = p * qmap
    assert type(got) is QExpansion and _reduced(got) and dict(got.items()) == _ref_sum([(1, applied)])


@given(pairs=st.lists(st.tuples(scales, wide_dicts), max_size=5))
@example(pairs=[(1, {(1,): Fraction(1, 2)}), (1, {(1,): Fraction(1, 3), (2,): Fraction(-1, 2)})])
@settings(max_examples=120, deadline=None)
def test_combination_is_the_chain_of_sums(pairs):
    maps = [(s, NCPoly(d)) for s, d in pairs]
    before = [(dict(m._terms), m._den) for _, m in maps]
    chained = NCPoly.zero()
    for s, m in maps:
        chained = chained + m * s
    # read as a generator, one pair at a time
    got = NCPoly.combination((s, m) for s, m in maps)
    assert got == chained
    assert _agrees(got, _ref_sum(pairs))
    assert [(dict(m._terms), m._den) for _, m in maps] == before
    # a pair list that cancels completely, and no pairs at all
    cancelled = NCPoly.combination([*maps, *((-s, m) for s, m in maps)])
    assert cancelled == NCPoly.zero() and cancelled._den == 1
    assert NCPoly.combination([]) == NCPoly.zero()
