"""Backend oracles: direct operator iteration against the closed forms."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit.backends import (
    EinsteinBackend,
    EinsteinModel,
    MatrixAssignment,
    UnboundOrderError,
    _ser_deriv,
    _ser_div,
    _ser_mul,
    _ser_shift,
    apply_R,
    einstein_invariants,
    evaluate_P,
    evaluate_Q,
    general_binomial,
    oracle_P,
    oracle_P_partial,
    oracle_Q,
    verify_dv_identity,
)
from juhlkit.exact_core import compositions_of, factorial, n_coeff
from juhlkit.free_algebra import NCPoly, mat_is_symmetric, mat_vec
from juhlkit.juhl_core import QExpansion, expand_P_explicit, expand_Q_explicit


def test_general_binomial():
    assert general_binomial(Fraction(5, 2), 2) == Fraction(15, 8)
    assert general_binomial(Fraction(4), 2) == 6
    assert general_binomial(Fraction(1, 2), 0) == 1


def test_einstein_invariants_flat_model_vanishes():
    w, m = einstein_invariants(EinsteinModel(Fraction(4), Fraction(0)), 5)
    assert all(v == 0 for v in w.values())
    assert all(v == 0 for v in m.values())


def test_einstein_W2_anchor():
    for n in (3, 4, 7):
        for c in (Fraction(1, 2), Fraction(-1, 3)):
            w, _ = einstein_invariants(EinsteinModel(Fraction(n), c), 3)
            assert w[1] == -Fraction(n) * c / 4
    w, _ = einstein_invariants(EinsteinModel(Fraction(4), Fraction(1, 2)), 2)
    assert w[1] == Fraction(-1, 2)
    assert w[2] == Fraction(1, 16)  # W(r) = (1 - r^2/4)^2 at n = 4


def test_einstein_w_squared_is_v():
    # w(rho) = sum_a W_{2a} (-2 rho)^a must square to v(rho) = (1+c rho)^n
    n, c, cap = Fraction(5), Fraction(1, 2), 8
    w_scalars, _ = einstein_invariants(EinsteinModel(n, c), cap)
    w = [Fraction(1)] + [w_scalars[a] * (-2) ** a for a in range(1, cap + 1)]
    v = [general_binomial(n, j) * c**j for j in range(cap + 1)]
    assert _ser_mul(w, w) == v


def test_einstein_m_constants_match_rho_route():
    # independent derivation: Utilde = (-2 rho w'' + (n-2) w')/w in the rho
    # variable, then M_{2(e+1)}(1) = -(coeff of rho^e) * e!^2 * (-2)^e
    n, c, cap = Fraction(5), Fraction(1, 2), 8
    length = cap + 3
    w = [general_binomial(n / 2, j) * c**j for j in range(length)]
    w1 = _ser_deriv(w)
    w2 = _ser_deriv(w1)
    num = [Fraction(-2) * x + (n - 2) * y for x, y in zip(_ser_shift(w2), w1)]
    utilde = _ser_div(num, w)
    _, m_consts = einstein_invariants(EinsteinModel(n, c), cap)
    for e in range(cap):
        assert m_consts[e + 1] == -utilde[e] * factorial(e) ** 2 * (-2) ** e


def test_apply_R_on_constant_flat_model_is_zero():
    backend = EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), 3)
    out = apply_R(5, [(Fraction(1),), (Fraction(0),), (Fraction(0),)], backend)
    assert out == [(0,), (0,)]


def test_apply_R_linear_input_constant_term():
    backend = EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), 3)
    lanes = [(Fraction(0),), (Fraction(1),), (Fraction(0),)]
    for k in (-2, 0, 3):
        out = apply_R(k, lanes, backend)
        assert len(out) == 2
        assert out[0] == (2 * k,)


entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
vectors = st.tuples(entries, entries)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=-6, max_value=6),
    lanes=st.lists(vectors, min_size=2, max_size=5),
    padding=st.lists(vectors, min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_apply_R_lanes_do_not_depend_on_padding(seed, k, lanes, padding):
    # every lane apply_R returns is exact: extra input lanes never reach it
    backend = MatrixAssignment.random(2, 8, seed=seed)
    short = apply_R(k, lanes, backend)
    long = apply_R(k, lanes + padding, backend)
    assert len(short) == len(lanes) - 1
    assert short == long[: len(short)]


def test_oracle_P_single_step_is_M2():
    backend = MatrixAssignment.random(3, 2, seed=5)
    f = backend.f
    assert oracle_P(backend, 1, f) == mat_vec(backend.matrices[1], f)


def test_oracle_P_order_two_hand_value():
    backend = MatrixAssignment.random(3, 2, seed=9)
    f = backend.f
    m2, m4 = backend.matrices[1], backend.matrices[2]
    expected = tuple(
        x + y for x, y in zip(mat_vec(m2, mat_vec(m2, f)), mat_vec(m4, f))
    )
    assert oracle_P(backend, 2, f) == expected


def test_oracle_P_zero_input():
    backend = MatrixAssignment.random(3, 3, seed=1)
    zero = backend.zero_value()
    assert oracle_P(backend, 3, zero) == zero


@pytest.mark.parametrize("seed", [0, 1])
def test_matrix_cross_paths(seed):
    backend = MatrixAssignment.random(3, 5, seed=seed)
    f = backend.f
    for n in range(1, 6):
        assert oracle_P(backend, n, f) == evaluate_P(expand_P_explicit(n), backend, f)
        assert oracle_Q(backend, n) == evaluate_Q(expand_Q_explicit(n), backend)


@pytest.mark.parametrize("seed", [0, 3])
def test_evaluated_operator_matrices_symmetric(seed):
    # the images of the standard basis vectors are the operator's columns
    backend = MatrixAssignment.random(4, 5, seed=seed)
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for n in range(1, 6):
        columns = tuple(evaluate_P(expand_P_explicit(n), backend, e) for e in basis)
        assert mat_is_symmetric(columns)


def test_partial_iteration_closed_form():
    backend = MatrixAssignment.random(3, 5, seed=2)
    f = backend.f
    for n in range(1, 6):
        for a in range(1, n + 1):
            scale = Fraction(factorial(a - 1) ** 2 * (-2) ** (a - 1))
            if a == n:
                expected = tuple(scale * x for x in f)
            else:
                shifted = NCPoly(
                    {comp: n_coeff(comp + (a,)) for comp in compositions_of(n - a)}
                )
                expected = tuple(scale * x for x in evaluate_P(shifted, backend, f))
            assert oracle_P_partial(backend, n, a, f) == expected, (n, a)


@pytest.mark.parametrize("a", [0, 4, 1.5, True])
def test_oracle_P_partial_rejects_non_integer_or_out_of_range_a(a):
    backend = MatrixAssignment.random(2, 3, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"a must lie in 1..N, got {a!r}")):
        oracle_P_partial(backend, 3, a, backend.f)


def test_oracle_Q_order_one_is_4W2():
    backend = MatrixAssignment.random(3, 1, seed=4)
    expected = tuple(4 * backend.w_scalars[1] * x for x in backend.f)
    assert oracle_Q(backend, 1) == expected
    eb = EinsteinBackend(EinsteinModel(Fraction(5), Fraction(1, 2)), 1)
    assert oracle_Q(eb, 1) == (4 * eb.w_scalars[1],)


def test_einstein_flat_Q_vanishes():
    backend = EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), 6)
    for n in range(1, 7):
        assert oracle_Q(backend, n) == (0,)
        assert evaluate_Q(expand_Q_explicit(n), backend) == (0,)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_unit_sphere_Q2_anchor(n):
    backend = EinsteinBackend(EinsteinModel(Fraction(n), Fraction(1, 2)), 1)
    assert evaluate_Q(expand_Q_explicit(1), backend) == (-Fraction(n, 2),)
    assert oracle_Q(backend, 1) == (-Fraction(n, 2),)


def test_einstein_Q2_is_nc():
    for n in (Fraction(3), Fraction(7, 2), Fraction(6)):
        for c in (Fraction(1, 3), Fraction(-2, 5)):
            backend = EinsteinBackend(EinsteinModel(n, c), 1)
            assert oracle_Q(backend, 1) == (-n * c,)


def test_round_sphere_product_formula():
    # classical values on the round sphere: Q_{2N} equals
    # prod_{k<N} (h+k)(h-k-1) / (h-N) with h = n/2, the (h-N) factor
    # cancelling against the product (analytic continuation in n)
    def sphere_q(n, order):
        h = Fraction(n, 2)
        val = Fraction(1)
        for k in range(order):
            val *= (h + k) * (h - k - 1)
        return val / (h - order)

    for n in (3, 5, 7):
        backend = EinsteinBackend(EinsteinModel(Fraction(n), Fraction(1, 2)), 4)
        for order in range(1, 5):
            signed = (-1) ** order * sphere_q(n, order)
            assert evaluate_Q(expand_Q_explicit(order), backend) == (signed,), (n, order)


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2), Fraction(-1, 3)])
def test_einstein_cross_paths(c):
    for n in (Fraction(3), Fraction(4), Fraction(7, 2)):
        backend = EinsteinBackend(EinsteinModel(n, c), 6)
        for order in range(1, 7):
            assert oracle_Q(backend, order) == evaluate_Q(
                expand_Q_explicit(order), backend
            ), (n, c, order)


def test_missing_order_raises():
    backend = MatrixAssignment.random(3, 1, seed=0)
    with pytest.raises(UnboundOrderError):
        oracle_P(backend, 2, backend.f)
    with pytest.raises(UnboundOrderError):
        oracle_Q(backend, 2)


def test_matrix_assignment_validation():
    asym = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
    with pytest.raises(ValueError):
        MatrixAssignment({1: asym}, (Fraction(1), Fraction(0)))
    eye = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        MatrixAssignment({1: eye}, (Fraction(1),))


def test_dv_identity_flat_and_sphere():
    for n in (Fraction(3), Fraction(4), Fraction(5)):
        for c in (Fraction(0), Fraction(1, 2)):
            for gamma in (Fraction(0), 1 - n / 2):
                report = verify_dv_identity(EinsteinModel(n, c), gamma, kmax=4, cap=8)
                assert report.passed, (n, c, gamma, report.failures)


def test_dv_identity_flat_linear_input_by_hand():
    # k = 1, c = 0: both sides reduce to the constant 2*gamma + n - 2
    n = Fraction(6)
    report = verify_dv_identity(EinsteinModel(n, Fraction(0)), Fraction(2), kmax=1, cap=4)
    assert report.passed


def _symmetric(raw):
    d = len(raw)
    return tuple(tuple((raw[i][j] + raw[j][i]) / 2 for j in range(d)) for i in range(d))


wide_entries = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def matrix_and_vector(draw):
    # a symmetric matrix with mixed denominators and a rational, zero or int vector
    d = draw(st.integers(min_value=1, max_value=4))
    raw = [[draw(wide_entries) for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(["rational", "zero", "int"]))
    if kind == "rational":
        v = tuple(draw(wide_entries) for _ in range(d))
    elif kind == "zero":
        v = (Fraction(0),) * d
    else:
        v = tuple(draw(st.integers(min_value=-9, max_value=9)) for _ in range(d))
    return _symmetric(raw), v


@given(case=matrix_and_vector(), seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_m_apply_matches_naive_mat_vec(case, seed):
    # the R-iteration's integer kernel is pinned to mat_vec on Fractions
    matrix, v = case
    backend = MatrixAssignment({1: matrix}, (0,) * len(v))
    got = backend.m_apply(1, v)
    assert got == mat_vec(backend.matrices[1], v)
    assert all(isinstance(x, Fraction) for x in got)
    random_backend = MatrixAssignment.random(len(v), 3, seed=seed)
    for order in (1, 2, 3):
        assert random_backend.m_apply(order, v) == mat_vec(random_backend.matrices[order], v)


def _naive_apply(matrices, word, v):
    for order in reversed(word):
        v = mat_vec(matrices[order], v)
    return v


def _naive_sum(vectors, d):
    acc = (Fraction(0),) * d
    for v in vectors:
        acc = tuple(x + y for x, y in zip(acc, v))
    return acc


small_words = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple)
term_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def backend_and_vector(draw):
    # three mixed-denominator matrices, a rational test vector and W-scalars,
    # and a rational, zero or int vector to act on
    first, v = draw(matrix_and_vector())
    d = len(v)
    matrices = {1: first}
    for order in (2, 3):
        matrices[order] = _symmetric([[draw(wide_entries) for _ in range(d)] for _ in range(d)])
    f = tuple(draw(wide_entries) for _ in range(d))
    w_scalars = {a: draw(wide_entries) for a in (1, 2, 3)}
    return MatrixAssignment(matrices, f, w_scalars), v


@given(
    case=backend_and_vector(),
    p_terms=st.dictionaries(small_words, term_coeffs, max_size=5),
    q_terms=st.dictionaries(
        st.tuples(small_words, st.integers(min_value=1, max_value=3)), term_coeffs, max_size=5
    ),
)
@settings(max_examples=40, deadline=None)
def test_evaluate_kernel_matches_naive_fraction_chain(case, p_terms, q_terms):
    # evaluate_P/evaluate_Q run integer mat_vec steps over one denominator
    # per word; the reference applies mat_vec on the Fraction matrices
    backend, v = case
    matrices, d = backend.matrices, len(v)
    p = NCPoly(p_terms)
    got = evaluate_P(p, backend, v)
    want = _naive_sum((tuple(c * x for x in _naive_apply(matrices, w, v)) for w, c in p.items()), d)
    assert got == want
    assert all(isinstance(x, Fraction) for x in got)

    q = QExpansion(q_terms)
    want_q = _naive_sum(
        (
            tuple(c * backend.w_scalars[a] * x for x in _naive_apply(matrices, w, backend.f))
            for (w, a), c in q.items()
        ),
        d,
    )
    assert evaluate_Q(q, backend) == want_q


polys = st.dictionaries(small_words, term_coeffs, max_size=4).map(NCPoly)


@given(p=polys, q=polys, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_evaluate_P_is_ring_homomorphism(p, q, seed):
    # words act as operator compositions, rightmost factor first
    backend = MatrixAssignment.random(3, 3, seed)
    f = backend.f
    assert evaluate_P(NCPoly.one(), backend, f) == f
    assert evaluate_P(p * q, backend, f) == evaluate_P(p, backend, evaluate_P(q, backend, f))
    assert evaluate_P(p + q, backend, f) == tuple(
        x + y for x, y in zip(evaluate_P(p, backend, f), evaluate_P(q, backend, f))
    )


def test_einstein_backend_is_a_one_by_one_matrix_backend():
    model = EinsteinModel(Fraction(7, 2), Fraction(-1, 3))
    backend = EinsteinBackend(model, 4)
    w_scalars, m_consts = einstein_invariants(model, 4)
    assert isinstance(backend, MatrixAssignment)
    assert backend.matrices == {order: ((m,),) for order, m in m_consts.items()}
    assert backend.f == (1,)
    assert backend.w_scalars == w_scalars and backend.m_consts == m_consts
    for order in range(1, 5):
        value = evaluate_Q(expand_Q_explicit(order), backend)
        assert len(value) == 1 and isinstance(value[0], Fraction)
        assert oracle_Q(backend, order) == value


def test_evaluate_missing_order_raises():
    backend = MatrixAssignment.random(3, 1, seed=0)
    with pytest.raises(UnboundOrderError):
        evaluate_P(expand_P_explicit(2), backend, backend.f)
    with pytest.raises(UnboundOrderError):
        evaluate_Q(expand_Q_explicit(2), backend)
