"""Coefficient families and composition enumeration."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from juhlkit.exact_core import (
    check_positive_int,
    compositions_of,
    factorial,
    m_coeff,
    m_ratio,
    n_coeff,
    n_int,
    nbar_coeff,
    nbar_int,
    partial_sums,
)

compositions = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6).map(tuple)


def test_compositions_of_one():
    assert compositions_of(1) == [(1,)]


def test_compositions_of_three_exact_order():
    assert compositions_of(3) == [(3,), (1, 2), (2, 1), (1, 1, 1)]


def test_compositions_of_four_order_is_length_then_lex():
    assert compositions_of(4) == [
        (4,),
        (1, 3),
        (2, 2),
        (3, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_compositions_count_distinct_and_sum(n):
    comps = compositions_of(n)
    assert len(comps) == 2 ** (n - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == n for c in comps)
    assert all(all(e >= 1 for e in c) for c in comps)


@pytest.mark.parametrize("n", range(1, 13))
def test_compositions_are_sorted_by_length_then_lex(n):
    # every emitted table and serialization follows this order
    comps = compositions_of(n)
    assert type(comps) is list
    assert comps == sorted(set(comps), key=lambda c: (len(c), c))


@pytest.mark.parametrize("bad", [0, -1, "3", 2.5, True])
def test_compositions_invalid_argument(bad):
    with pytest.raises(ValueError):
        compositions_of(bad)


@pytest.mark.parametrize("bad", [0, -3, True, False, 2.0, "1", None])
def test_check_positive_int_rejects_with_the_given_message(bad):
    with pytest.raises(ValueError) as info:
        check_positive_int(bad, "N must be a positive integer")
    assert str(info.value) == f"N must be a positive integer, got {bad!r}"


def test_check_positive_int_returns_the_value():
    assert check_positive_int(1, "x") == 1
    assert check_positive_int(10**30, "x") == 10**30


def test_positive_int_guards_keep_their_messages():
    from juhlkit import backends, frobenius, juhl_core, nc_series
    from juhlkit.free_algebra import NCPoly

    cases = [
        (lambda: compositions_of(0), "n must be a positive integer, got 0"),
        (lambda: n_coeff((2, True)), "composition entries must be positive integers, got True"),
        (lambda: frobenius.check_msequence((1, 0)), "m-sequence entries must be positive integers, got 0"),
        (lambda: NCPoly({(1, -1): 1}), "generator indices must be positive integers, got -1"),
        (lambda: juhl_core.QExpansion({((1,), 0): 1}), "the W-order of a Q-term must be a positive integer, got 0"),
        (lambda: juhl_core.expand_P_explicit(-2), "N must be a positive integer, got -2"),
        (lambda: juhl_core.verify_kidenb((1,), [0]), "b must be a positive integer, got 0"),
        (lambda: juhl_core.kcoeff((1,), [1.0]), "b must be a positive integer, got 1.0"),
        (lambda: juhl_core.kcoeff_closed_form((1,), [-1]), "b must be a positive integer, got -1"),
        (lambda: nc_series.iterate_L_full(0), "N must be a positive integer, got 0"),
        (lambda: nc_series.iterate_L_partial(False, 1), "N must be a positive integer, got False"),
        (lambda: backends.oracle_Q(backends.MatrixAssignment.random(2, 2, 0), 0), "N must be a positive integer, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [(), (0,), (1, -2), (1.5,)])
def test_coefficients_reject_invalid_compositions(bad):
    for fn in (n_coeff, m_coeff, nbar_coeff):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("n", range(1, 9))
def test_single_entry_composition_has_unit_coefficients(n):
    assert n_coeff((n,)) == 1
    assert m_coeff((n,)) == 1
    assert nbar_coeff((n,)) == factorial(n - 1) ** 2


def test_n_coeff_small_values():
    assert n_coeff((1, 1)) == 1
    assert n_coeff((1, 2)) == 2
    assert n_coeff((2, 1)) == 2
    assert n_coeff((1, 1, 1)) == 1


def test_m_coeff_small_values():
    # (2,1): (-1)^3 * 3! * 2! * 1/(2!*1!) * 1/(1!*0!) * 1/(2+1) = -2;
    # cross-validated by the N=3 inversion in test_juhl_core
    assert m_coeff((1, 1)) == -1
    assert m_coeff((1, 2)) == -2
    assert m_coeff((2, 1)) == -2
    assert m_coeff((1, 1, 1)) == 3


def test_nbar_small_values():
    assert nbar_coeff((1, 1)) == 1
    assert nbar_coeff((1, 2)) == 2
    assert nbar_coeff((1, 1, 1)) == 1
    assert nbar_coeff((3, 1)) == 12


def test_nbar_strips_factorial_squares_exhaustively():
    for n in range(1, 9):
        for comp in compositions_of(n):
            strip = Fraction(1)
            for e in comp:
                strip /= factorial(e - 1) ** 2
            assert n_coeff(comp) == nbar_coeff(comp) * strip


def binomial_product(comp):
    """A_I * B_I = prod_j C(S_j - 1, I_j - 1) * prod_j C(T_j - 1, I_j - 1),
    over the prefix sums S_j = I_1 + ... + I_j and the suffix sums
    T_j = I_j + ... + I_r."""
    total, head, out = sum(comp), 0, 1
    for e in comp:
        out *= comb(head + e - 1, e - 1) * comb(total - head - 1, e - 1)
        head += e
    return out


def factorial_form(comp):
    """n_I as the paper writes it, (N-1)!^2 prod_j 1/(I_j-1)!^2
    prod_{j<r} 1/(h_j (N - h_j)) over the heads h_j = I_1 + ... + I_j, as a
    Fraction."""
    total, head = sum(comp), 0
    out = Fraction(factorial(total - 1) ** 2)
    for e in comp:
        out /= factorial(e - 1) ** 2
    for e in comp[:-1]:
        head += e
        out /= head * (total - head)
    return out


def check_integer_families(comp):
    # n_int and nbar_int are ints equal to both references, and nbar_I
    # times the head product is (N-1)!^2 exactly
    total, head, heads, strip = sum(comp), 0, 1, 1
    for e in comp[:-1]:
        head += e
        heads *= head * (total - head)
    for e in comp:
        strip *= factorial(e - 1) ** 2
    n, nbar = n_int(comp), nbar_int(comp)
    assert type(n) is int and type(nbar) is int
    assert n == binomial_product(comp) == factorial_form(comp)
    assert nbar == n * strip
    assert nbar * heads == factorial(total - 1) ** 2


@pytest.mark.parametrize("n", range(1, 15))
def test_n_is_a_product_of_binomials(n):
    # the product of (S_j - 1)!/S_{j-1}! telescopes to (N - 1)!/prod_{j<r} S_j,
    # so the factorial form is A_I * B_I, and n_I and nbar_I = n_I *
    # prod_j (I_j - 1)!^2 are integers: ``exact_core`` returns them as ints
    for comp in compositions_of(n):
        check_integer_families(comp)


def cut_at(n, cuts):
    bounds = [0, *sorted(cuts), n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


# a composition of N <= 40 as the cut points it has in 1..N-1
compositions_to_forty = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.sets(st.integers(min_value=1, max_value=n - 1)).map(lambda cuts: cut_at(n, cuts)) if n > 1
    else st.just((1,)))


@given(comp=compositions_to_forty)
def test_integer_families_on_random_compositions_to_forty(comp):
    check_integer_families(comp)


@pytest.mark.parametrize("n", range(1, 13))
def test_m_is_an_integer_to_twelve(n):
    # m_I has no integrality proof, so exact_core keeps it as a ratio; every
    # m_I seen so far is an integer, which nothing else assumes
    for comp in compositions_of(n):
        num, den = m_ratio(comp)
        assert num % den == 0, comp


@pytest.mark.parametrize("n", range(2, 31))
def test_two_part_coefficients(n):
    for a in range(1, n):
        comp = (a, n - a)
        assert n_coeff(comp) == comb(n - 1, a - 1) * comb(n - 1, a)
        assert m_coeff(comp) == -n_coeff(comp)


@pytest.mark.parametrize("n", range(1, 13))
def test_explicit_expansions_have_denominator_one(n):
    # their coefficients are the integers n_I and sums of them
    from juhlkit import juhl_core

    assert juhl_core.expand_P_explicit(n)._den == 1
    assert juhl_core.expand_Q_explicit(n)._den == 1


def test_partial_sums():
    assert partial_sums((1, 2, 3)) == (1, 3, 6)


@given(comp=compositions)
def test_reversal_symmetry(comp):
    rev = tuple(reversed(comp))
    assert n_coeff(comp) == n_coeff(rev)
    assert m_coeff(comp) == m_coeff(rev)
    assert nbar_coeff(comp) == nbar_coeff(rev)


def test_reversal_symmetry_exhaustive_to_ten():
    for n in range(1, 11):
        for comp in compositions_of(n):
            rev = tuple(reversed(comp))
            assert n_coeff(comp) == n_coeff(rev)
            assert m_coeff(comp) == m_coeff(rev)


@given(
    a=st.integers(min_value=-40, max_value=40).filter(bool),
    b=st.integers(min_value=1, max_value=40),
)
def test_rational_inverse_roundtrip(a, b):
    x = Fraction(a, b)
    assert x * (1 / x) == 1
    assert Fraction(x.numerator, x.denominator) == x  # normalization idempotent
