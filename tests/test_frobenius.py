"""Series solutions at the regular singular point and the generating chain."""

import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit.exact_core import compositions_of, factorial, nbar_coeff, partial_sums
from juhlkit.frobenius import (
    CAP_PAD,
    apply_Dm,
    c_table,
    compute_F,
    check_msequence,
    degree,
    jacobi_P,
    jacobi_Q,
    solve_Dm,
    verify_recusolve,
    y_coeff,
)


def _sequences_ending_at(n):
    for r in range(n):
        for mids in combinations(range(1, n), r):
            yield (*mids, n)


def test_solve_with_constant_forcing_top_coefficient():
    # m = 0, f = 1, u0 = 0: u_j = (j-1)! (N-j+1)...(N-1), so u_N = (N-1)!^2
    n = 5
    f = [1] + [0] * (n + CAP_PAD)
    u = solve_Dm(0, n, f, 0)
    assert len(u) == len(f)
    for j in range(1, n + 1):
        expect = factorial(j - 1)
        for t in range(n - j + 1, n):
            expect *= t
        assert u[j] == expect
    assert u[n] == factorial(n - 1) ** 2


def test_solve_degree_drops_when_factor_vanishes():
    u = solve_Dm(1, 2, [0] * 5, 1)
    assert degree(u) == 1


def test_jacobi_P_base_and_small_values():
    assert jacobi_P(0, 4) == [1] + [0] * (4 + CAP_PAD)
    p = jacobi_P(1, 4)
    assert degree(p) == 1
    assert y_coeff(p, 0) == 1
    assert y_coeff(p, 1) == -3


def test_degree_of_zero_and_constant_series():
    assert degree([0, 0, 0]) == -1
    assert degree([Fraction(0), Fraction(0)]) == -1
    assert degree([7, 0, 0]) == 0
    assert degree([0, Fraction(1, 3), 0]) == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_jacobi_P_degree_law_symmetry_and_kernel(n):
    zero = [0] * (n + CAP_PAD + 1)
    for m in range(n + 1):
        p = jacobi_P(m, n)
        assert len(p) == n + CAP_PAD + 1
        assert degree(p) == min(m, n - m)
        assert p == jacobi_P(n - m, n)
        assert apply_Dm(m, n, p) == zero


@pytest.mark.parametrize("n", range(1, 11))
def test_jacobi_Q_top_coefficient(n):
    assert y_coeff(jacobi_Q(0, n), n) == Fraction(1, n * n)


@pytest.mark.parametrize("n", range(1, 9))
def test_jacobi_Q_symmetry_and_defining_equation(n):
    for m in range(n + 1):
        if 2 * m == n:
            continue
        q = jacobi_Q(m, n)
        assert degree(q) <= max(m, n - m)
        assert q == jacobi_Q(n - m, n)
        assert apply_Dm(m, n, q) == jacobi_P(m, n)


def test_jacobi_Q_first_coefficient_at_m_equal_N():
    # Q_N = Q_0 and the recursion gives u_1 = 1
    assert y_coeff(jacobi_Q(4, 4), 1) == 1


def test_jacobi_Q_singular_case_raises():
    with pytest.raises(ValueError):
        jacobi_Q(2, 4)
    with pytest.raises(ValueError):
        jacobi_Q(3, 6)


def test_compute_F_single_step_matches_top_coefficient_lemma():
    for n in (1, 2, 3, 5):
        chain = compute_F((n,))
        assert y_coeff(chain[-1], n) == Fraction(1, n * n)


def test_compute_F_small_chain():
    chain = compute_F((1, 2))
    assert chain[0] == [1] + [0] * (2 + CAP_PAD)
    assert y_coeff(chain[2], 2) == Fraction(1, 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_compute_F_chain_and_lowest_power(n):
    for seq in _sequences_ending_at(n):
        chain = compute_F(seq)
        for l, m in enumerate(seq, start=1):
            assert apply_Dm(m, n, chain[l]) == chain[l - 1]
            assert degree(chain[l]) <= m
            support = [j for j, v in enumerate(chain[l]) if v]
            assert support[0] == l
            assert chain[l][l] == 1


def test_c_table_seeds_and_vanishing():
    seq = (1, 3, 4)
    n = 4
    table = c_table(seq, n + 2)
    assert table[0][0] == 1
    assert table[1][1] == 1
    assert all(table[j][0] == 0 for j in range(1, n + 3))
    for l, m in enumerate(seq, start=1):
        for j in range(m + 1, n + 1):
            assert table[j][l] == 0
    for j in range(n + 3):
        for l in range(1, len(seq) + 1):
            if j < l:
                assert table[j][l] == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_c_table_matches_series_coefficients(n):
    for seq in _sequences_ending_at(n):
        chain = compute_F(seq)
        table = c_table(seq, n)
        for l in range(len(seq) + 1):
            for j in range(n + 1):
                assert table[j][l] == chain[l][j]


@pytest.mark.parametrize("n", range(1, 9))
def test_c_table_reaches_nbar(n):
    for comp in compositions_of(n):
        seq = partial_sums(comp)
        assert c_table(seq, n)[n][len(seq)] == nbar_coeff(comp)


def test_verify_recusolve_examples():
    rep = verify_recusolve((3,))
    assert rep.passed and rep.computed_top == Fraction(1, 9)
    rep = verify_recusolve((1, 2))
    assert rep.passed and rep.computed_top == Fraction(1, 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_recusolve_exhaustive(n):
    for seq in _sequences_ending_at(n):
        rep = verify_recusolve(seq)
        assert rep.passed, (seq, rep)
        assert rep.computed_degree == n
        assert rep.observed_degrees[0] == 0


def test_msequence_validation():
    with pytest.raises(ValueError):
        check_msequence(())
    with pytest.raises(ValueError):
        check_msequence((2, 1))
    with pytest.raises(ValueError):
        check_msequence((0, 1))
    with pytest.raises(ValueError):
        c_table((1, 2), 1)  # jmax below N


def test_integer_chain_stays_int_and_y_coeff_is_fraction():
    for series in [*compute_F((2, 3, 5)), jacobi_P(2, 5), jacobi_Q(1, 5), apply_Dm(1, 5, jacobi_Q(1, 5))]:
        assert all(type(v) is int for v in series)
        for j in range(len(series)):
            got = y_coeff(series, j)
            assert type(got) is Fraction
            assert got == Fraction(series[j], factorial(j) ** 2)


@pytest.mark.parametrize("jacobi", [jacobi_P, jacobi_Q])
@pytest.mark.parametrize(
    "m, n, message",
    [
        (-1, 4, "m must lie in 0..N, got -1"),
        (5, 4, "m must lie in 0..N, got 5"),
        (1.5, 4, "m must lie in 0..N, got 1.5"),
        (True, 4, "m must lie in 0..N, got True"),
        (1, 0, "N must be a positive integer, got 0"),
        (1, 4.0, "N must be a positive integer, got 4.0"),
    ],
)
def test_jacobi_rejects_non_integer_or_out_of_range_orders(jacobi, m, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        jacobi(m, n)


def _apply_Dm_reference(m, big_n, u):
    # term by term on the Fraction y-coefficients, with no integer scaling
    cap = len(u) - 1
    a = [Fraction(v) / factorial(j) ** 2 for j, v in enumerate(u)] + [Fraction(0)] * 2
    out = []
    for i in range(cap + 1):
        # y^i coefficient of y(1+y)u'' + [1-(N-1)y]u' + m(N-m)u
        term = (i + 1) * i * a[i + 1] + i * (i - 1) * a[i]
        term += (i + 1) * a[i + 1] - (big_n - 1) * i * a[i]
        term += m * (big_n - m) * a[i]
        out.append(term * factorial(i) ** 2)
    return out


@given(
    vals=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30), min_size=1, max_size=9),
    m=st.integers(min_value=0, max_value=8),
    extra=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_apply_Dm_matches_fraction_reference(vals, m, extra):
    big_n = m + extra
    assert apply_Dm(m, big_n, vals) == _apply_Dm_reference(m, big_n, vals)
