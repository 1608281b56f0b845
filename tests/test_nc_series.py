"""The operators L_k and the brute-force iteration behind the closed forms."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit.exact_core import compositions_of, factorial, nbar_coeff
from juhlkit.free_algebra import NCPoly
from juhlkit.nc_series import (
    NCSeries,
    apply_L,
    iterate_L_full,
    iterate_L_partial,
    x_series,
)


def _closed_form_full(n):
    return NCPoly({comp: nbar_coeff(comp) for comp in compositions_of(n)})


def _closed_form_partial(n, a):
    if a == n:
        return NCPoly({(): nbar_coeff((n,))})
    return NCPoly({comp: nbar_coeff(comp + (a,)) for comp in compositions_of(n - a)})


def test_apply_L_to_one_gives_x_series():
    # the derivative terms kill constants regardless of k; the top lane of
    # the input only feeds lanes that are dropped
    assert apply_L(0, NCSeries.one(5)) == x_series(4)
    assert apply_L(1, NCSeries.one(5)) == x_series(4)


def test_apply_L_minus_one_to_x_constant_term():
    u = apply_L(-1, x_series(4))
    assert u.coeffs[0] == NCPoly({(2,): 1, (1, 1): 1})


def test_apply_L_lowers_valid_window():
    u = x_series(4)
    assert u.cap == 4
    assert apply_L(2, u).cap == 3
    with pytest.raises(ValueError):
        apply_L(2, NCSeries.one(0))  # no lane is left to return


words = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3).map(tuple)
int_polys = st.dictionaries(words, st.integers(min_value=-5, max_value=5).filter(bool), max_size=3).map(
    NCPoly._raw
)


@given(
    k=st.integers(min_value=-6, max_value=6),
    lanes=st.lists(int_polys, min_size=2, max_size=5),
    padding=st.lists(int_polys, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_apply_L_lanes_do_not_depend_on_padding(k, lanes, padding):
    # every lane apply_L returns is exact: extra input lanes never reach it
    cap = len(lanes) - 1
    short = apply_L(k, NCSeries(lanes, cap))
    long = apply_L(k, NCSeries(lanes + padding, cap + len(padding)))
    assert short.cap == cap - 1
    assert short.coeffs == long.coeffs[:cap]


rational_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
rational_polys = st.dictionaries(words, rational_coeffs, max_size=3).map(NCPoly)


@given(k=st.integers(min_value=-6, max_value=6), lanes=st.lists(rational_polys, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_apply_L_on_rational_lanes_is_its_formula(k, lanes):
    # lanes over different denominators are brought to one before the
    # integer loop; the reference spells out coefficient i with term-map sums
    got = apply_L(k, NCSeries(lanes, len(lanes) - 1))
    want = [
        NCPoly.combination(
            [((i + 1) * (i - k), lanes[i + 1]), *((1, NCPoly.from_word((e + 1,)) * lanes[i - e]) for e in range(i + 1))]
        )
        for i in range(len(lanes) - 1)
    ]
    assert got.coeffs == want


def test_iterate_full_hand_values():
    assert iterate_L_full(1) == NCPoly.from_word((1,))
    assert iterate_L_full(2) == NCPoly({(2,): 1, (1, 1): 1})
    assert iterate_L_full(3) == NCPoly({(3,): 4, (1, 2): 2, (2, 1): 2, (1, 1, 1): 1})


@pytest.mark.parametrize("n", range(1, 13))
def test_iterate_full_matches_closed_form(n):
    assert iterate_L_full(n) == _closed_form_full(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_iterate_full_weight_homogeneous(n):
    assert iterate_L_full(n).weights() == {n}


def test_iterate_partial_hand_values():
    assert iterate_L_partial(2, 2) == NCPoly({(): 1})
    assert iterate_L_partial(2, 1) == NCPoly.from_word((1,))
    # asymmetric instance pinning the word orientation
    assert iterate_L_partial(4, 1) == NCPoly(
        {(3,): 12, (1, 2): 4, (2, 1): 3, (1, 1, 1): 1}
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_iterate_partial_matches_closed_form(n):
    for a in range(1, n + 1):
        assert iterate_L_partial(n, a) == _closed_form_partial(n, a)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_iterations_return_fraction_coefficients(n):
    # the lanes carry integers; the read-out converts them once
    full = iterate_L_full(n)
    partials = [iterate_L_partial(n, a) for a in range(1, n + 1)]
    for poly in (full, *partials):
        assert all(type(coeff) is Fraction for _, coeff in poly.items())


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_at_top_order_is_factorial_square(n):
    assert iterate_L_partial(n, n) == NCPoly({(): factorial(n - 1) ** 2})


@pytest.mark.parametrize("n", range(1, 7))
def test_partials_recombine_to_full(n):
    acc = NCPoly.zero()
    for a in range(1, n + 1):
        acc = acc + iterate_L_partial(n, a) * NCPoly.from_word((a,))
    assert acc == iterate_L_full(n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        iterate_L_full(0)
    with pytest.raises(ValueError):
        iterate_L_partial(3, 0)
    with pytest.raises(ValueError):
        iterate_L_partial(3, 4)


@pytest.mark.parametrize("bad", [0, True, 1.0])
def test_cached_full_iteration_still_rejects_a_bad_order(bad):
    # a call that raised is not cached, and True or 1.0 is not keyed as the cached 1
    assert iterate_L_full(1) == NCPoly.from_word((1,))
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"N must be a positive integer, got {bad!r}")):
            iterate_L_full(bad)


@pytest.mark.parametrize("a", [0, 4, 1.5, True])
def test_iterate_L_partial_rejects_non_integer_or_out_of_range_a(a):
    with pytest.raises(ValueError, match=re.escape(f"a must lie in 1..N, got {a!r}")):
        iterate_L_partial(3, a)


def test_monomial_power_out_of_range():
    with pytest.raises(ValueError):
        NCSeries.monomial(5, 4)
