"""Backend oracles: direct operator iteration against the closed forms."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from juhlkit import backends, exact_core, juhl_core
from juhlkit.backends import (
    EinsteinBackend,
    EinsteinModel,
    MatrixAssignment,
    UnboundOrderError,
    _fractions,
    _ints,
    _power,
    _ser_mul,
    apply_R,
    einstein_invariants,
    einstein_q_closed_form,
    evaluate_P,
    evaluate_Q,
    formula_P,
    formula_P_partial,
    formula_Q,
    general_binomial,
    oracle_P,
    oracle_P_partial,
    oracle_Q,
    verify_dv_identity,
)
from juhlkit.exact_core import compositions_of, factorial, n_coeff
from juhlkit.free_algebra import NCPoly, TermMap, mat_is_symmetric, mat_vec
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
    w = _ints([Fraction(1)] + [w_scalars[a] * (-2) ** a for a in range(1, cap + 1)])
    v = tuple(general_binomial(n, j) * c**j for j in range(cap + 1))
    assert _fractions(*_ser_mul(w, w)) == v


def test_einstein_m_constants_match_rho_route():
    # independent derivation: Utilde = (-2 rho w'' + (n-2) w')/w in the rho
    # variable, then M_{2(e+1)}(1) = -(coeff of rho^e) * e!^2 * (-2)^e
    n, c, cap = Fraction(5), Fraction(1, 2), 8
    w = [general_binomial(n / 2, j) * c**j for j in range(cap + 2)]
    # rho^i coefficient of -2 rho w'' + (n-2) w' is (i+1)(n-2-2i) w_{i+1}
    num = [(i + 1) * (n - 2 - 2 * i) * w[i + 1] for i in range(cap)]
    utilde = []  # num / w by long division, w_0 = 1
    for i in range(cap):
        utilde.append(num[i] - sum(w[j] * utilde[i - j] for j in range(1, i + 1)))
    _, m_consts = einstein_invariants(EinsteinModel(n, c), cap)
    for e in range(cap):
        assert m_consts[e + 1] == -utilde[e] * factorial(e) ** 2 * (-2) ** e


def _window(lanes):
    # the lanes u_0..u_cap, tuples of Fractions, as apply_R's window: one
    # integer list, top lane first, over one den
    return _ints([x for lane in reversed(lanes) for x in lane])


def _lanes(window, d):
    # apply_R's window as its lanes u_0, u_1, ..., tuples of Fractions
    values = _fractions(*window)
    return [values[i : i + d] for i in range(len(values) - d, -1, -d)]


def _apply_R_on_fractions(k, lanes, backend):
    # these tests state the lanes as Fractions
    return _lanes(apply_R(k, _window(lanes), backend), backend.dim)


def test_apply_R_on_constant_flat_model_is_zero():
    # the window u_2, u_1, u_0 = 0, 0, 1 goes to the reduced zero window u_1, u_0
    backend = EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), 3)
    assert apply_R(5, ([0, 0, 1], 1), backend) == ([0, 0], 1)


def test_apply_R_linear_input_constant_term():
    # u = rho: the window u_2, u_1, u_0 = 0, 1, 0; lane 0 of the result, last in the window, is 2k
    backend = EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), 3)
    for k in (-2, 0, 3):
        flat, den = apply_R(k, ([0, 1, 0], 1), backend)
        assert len(flat) == 2
        assert Fraction(flat[-1], den) == 2 * k


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
    short = _apply_R_on_fractions(k, lanes, backend)
    long = _apply_R_on_fractions(k, lanes + padding, backend)
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
    zero = (Fraction(0),) * backend.dim
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


@pytest.mark.parametrize(
    "n",
    [Fraction(0), Fraction(3), Fraction(4), Fraction(5), Fraction(6), Fraction(8),
     Fraction(7, 2), Fraction(10), Fraction(-3, 5)],
)
def test_einstein_q_closed_form_matches_evaluated_expansion(n):
    # every order up to 8, across the critical order N = n/2 for even n
    for c in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(7, 5)):
        model = EinsteinModel(n, c)
        backend = EinsteinBackend(model, 8)
        assert einstein_q_closed_form(model, 1) == n * c
        for order in range(1, 9):
            signed = (-1) ** order * einstein_q_closed_form(model, order)
            assert evaluate_Q(expand_Q_explicit(order), backend) == (signed,), (n, c, order)


def test_einstein_q_closed_form_rejects_non_positive_order():
    with pytest.raises(ValueError):
        einstein_q_closed_form(EinsteinModel(Fraction(4), Fraction(1, 2)), 0)


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
    # a 0-dimensional backend has no window to iterate and no row to multiply
    for matrices in ({}, {1: ()}):
        with pytest.raises(ValueError, match="the matrix dimension must be positive"):
            MatrixAssignment(matrices, ())
    with pytest.raises(ValueError, match="dim must be a positive integer, got 0"):
        MatrixAssignment.random(0, 2, 0)


def test_dv_identity_flat_and_sphere():
    for n in (Fraction(3), Fraction(4), Fraction(5)):
        for c in (Fraction(0), Fraction(1, 2)):
            for gamma in (Fraction(0), 1 - n / 2):
                sides = verify_dv_identity(EinsteinModel(n, c), gamma, kmax=4, cap=8)
                assert len(sides) == 5
                for k, (lhs, rhs) in enumerate(sides):
                    assert len(lhs) == len(rhs) == 9
                    assert lhs == rhs, (n, c, gamma, k)


def test_dv_identity_flat_linear_input_by_hand():
    # k = 1, c = 0: both sides reduce to the constant 2*gamma + n - 2
    n = Fraction(6)
    sides = verify_dv_identity(EinsteinModel(n, Fraction(0)), Fraction(2), kmax=1, cap=4)
    lhs, rhs = sides[1]
    assert lhs == rhs == [2 * 2 + n - 2] + [0] * 4


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(alpha=small_rationals, x=small_rationals, length=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_binomial_series_times_its_negative_power_is_one(alpha, x, length):
    product = _ser_mul(_power(alpha, x, length), _power(-alpha, x, length))
    assert _fractions(*product) == (1,) + (0,) * (length - 1)


@given(alpha=small_rationals, x=small_rationals, length=st.integers(min_value=1, max_value=12))
@example(alpha=Fraction(-5, 2), x=Fraction(2, 3), length=8)
@example(alpha=Fraction(3), x=Fraction(-4, 5), length=8)  # terminating series
@example(alpha=Fraction(0), x=Fraction(7, 2), length=5)
@example(alpha=Fraction(5, 3), x=Fraction(0), length=5)
@example(alpha=Fraction(5, 3), x=Fraction(-3, 4), length=1)
@settings(max_examples=60, deadline=None)
def test_binomial_series_matches_general_binomial(alpha, x, length):
    series = _fractions(*_power(alpha, x, length))
    assert series == tuple(general_binomial(alpha, j) * x**j for j in range(length))


def _fraction_convolution(a: list, b: list) -> list:
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(len(a))]


@given(
    a=st.lists(small_rationals, min_size=1, max_size=8),
    b=st.lists(small_rationals, min_size=8, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_ser_mul_matches_fraction_convolution(a, b):
    assert _fractions(*_ser_mul(_ints(a), _ints(b))) == tuple(_fraction_convolution(a, b))


@given(
    n=st.one_of(st.integers(min_value=-6, max_value=12), small_rationals),
    c=small_rationals,
    gamma=st.one_of(st.integers(min_value=-4, max_value=4), small_rationals),
)
@example(n=Fraction(7, 2), c=Fraction(-1, 3), gamma=Fraction(1, 3))  # k = 13/12
@example(n=Fraction(7, 2), c=Fraction(5, 4), gamma=Fraction(-2, 5))  # k = 7/20
@settings(max_examples=30, deadline=None)
def test_dv_identity_holds_at_rational_parameters(n, c, gamma):
    # the suite reaches only integer n; the identity holds for every rational n, c, gamma
    sides = verify_dv_identity(EinsteinModel(n, c), gamma, kmax=4, cap=8)
    assert len(sides) == 5
    for lhs, rhs in sides:
        assert len(lhs) == len(rhs) == 9
        assert lhs == rhs


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


def _block(values, order):
    # a backend's matrix or W-scalar of ``order``, raising as the backend does
    if order not in values:
        raise UnboundOrderError(order)
    return values[order]


def _naive_apply(matrices, word, v):
    for order in reversed(word):
        v = mat_vec(_block(matrices, order), v)
    return v


def _naive_sum(vectors, d):
    acc = (Fraction(0),) * d
    for v in vectors:
        acc = tuple(x + y for x, y in zip(acc, v))
    return acc


def _fraction_P(backend, p, v):
    # every word of p applied to v on the Fraction matrices
    return _naive_sum((tuple(c * x for x in _naive_apply(backend.matrices, w, v)) for w, c in p.items()), len(v))


def _fraction_Q(backend, q):
    # every (I, a) term of q as c * W_{2a} * M_{2I} f on the Fraction matrices and W-scalars
    parts = []
    for (word, a), c in q.items():
        w = _block(backend.w_scalars, a)
        parts.append(tuple(c * w * x for x in _naive_apply(backend.matrices, word, backend.f)))
    return _naive_sum(parts, backend.dim)


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
    p = NCPoly(p_terms)
    got = evaluate_P(p, backend, v)
    assert got == _fraction_P(backend, p, v)
    assert all(isinstance(x, Fraction) for x in got)
    q = QExpansion(q_terms)
    assert evaluate_Q(q, backend) == _fraction_Q(backend, q)


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


def _memo_vectors(backend):
    # f, f/3 (the same numerators over another denominator unless an entry
    # cancels the 3), the zero vector and a basis vector
    f = backend.f
    return {"f": f, "f/3": tuple(x / 3 for x in f), "zero": (0,) * len(f), "e0": (1,) + (0,) * (len(f) - 1)}


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    fill=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from(["f", "f/3", "zero", "e0"])), max_size=4
    ),
    order=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_word_memo_gives_the_results_of_a_fresh_backend(seed, fill, order):
    # a memo that other expansions, orders and vectors have filled must not
    # change a result: each evaluation equals the one on a new backend
    used = MatrixAssignment.random(3, 4, seed)
    for n, name in fill:
        evaluate_P(expand_P_explicit(n), used, _memo_vectors(used)[name])
        evaluate_Q(expand_Q_explicit(n), used)
    expansions = [expand_P_explicit(order)] + [expand_P_explicit(order).right_quotient(a) for a in range(1, order + 1)]
    for name, v in _memo_vectors(used).items():
        for expansion in expansions:
            fresh = MatrixAssignment.random(3, 4, seed)
            assert evaluate_P(expansion, used, v) == evaluate_P(expansion, fresh, v), name
    fresh = MatrixAssignment.random(3, 4, seed)
    assert evaluate_Q(expand_Q_explicit(order), used) == evaluate_Q(expand_Q_explicit(order), fresh)


def test_a_memoized_suffix_still_needs_the_first_letters_block():
    backend = MatrixAssignment.random(3, 2, seed=0)
    evaluate_P(NCPoly.from_word((2, 1)), backend, backend.f)
    assert all((2, 1) in images for images in backend._word_images.values())
    with pytest.raises(UnboundOrderError):
        evaluate_P(NCPoly.from_word((3, 2, 1)), backend, backend.f)


def test_the_word_evaluator_multiplies_each_distinct_suffix_once(monkeypatch):
    # a word's image is one integer mat_vec of its first letter's matrix on its suffix's image
    backend = MatrixAssignment.random(4, 6, seed=2)
    calls = []
    monkeypatch.setattr(backends, "mat_vec", lambda *args: calls.append(args[0]) or mat_vec(*args))
    expansion = expand_P_explicit(6)
    first = evaluate_P(expansion, backend, backend.f)
    # every composition of 1..6 is a suffix of a composition of 6: 2^6 - 1 of them
    assert len(calls) == 63
    calls.clear()
    assert evaluate_P(expansion, backend, backend.f) == first
    assert calls == []


FORMULA_BACKENDS = {
    "3x3-seed0": lambda order: MatrixAssignment.random(3, order, seed=0),
    "3x3-seed5": lambda order: MatrixAssignment.random(3, order, seed=5),
    "4x4-seed1": lambda order: MatrixAssignment.random(4, order, seed=1),
    "4x4-seed2": lambda order: MatrixAssignment.random(4, order, seed=2),
    "einstein-flat": lambda order: EinsteinBackend(EinsteinModel(Fraction(4), Fraction(0)), order),
    "einstein-rational-n": lambda order: EinsteinBackend(EinsteinModel(Fraction(7, 2), Fraction(-1, 3)), order),
    "einstein-negative-n": lambda order: EinsteinBackend(EinsteinModel(Fraction(-3, 5), Fraction(7, 5)), order),
}


@pytest.mark.parametrize("make", FORMULA_BACKENDS.values(), ids=FORMULA_BACKENDS)
def test_formula_kernel_matches_the_word_path(make):
    # the prefix sums against every word of the NCPoly expansions, which
    # carry n_I through exact_core.n_int
    backend = make(10)
    f = backend.f
    for n in range(1, 11):
        assert formula_P(backend, n, f) == evaluate_P(expand_P_explicit(n), backend, f), n
        assert formula_Q(backend, n) == evaluate_Q(expand_Q_explicit(n), backend), n
        for a in range(1, n + 1):
            scale = factorial(a - 1) ** 2 * (-2) ** (a - 1)
            words = evaluate_P(expand_P_explicit(n).right_quotient(a) * scale, backend, f)
            assert formula_P_partial(backend, n, a, f) == words, (n, a)


# the integer binomial weights of the prefix sums against the R-iteration on
# a random 3x3 backend, and on Einstein backends at rational and negative n
HIGH_ORDER_BACKENDS = [
    *[pytest.param(lambda: MatrixAssignment.random(3, 20, seed=9), n, id=str(n)) for n in (14, 16, 20)],
    pytest.param(lambda: EinsteinBackend(EinsteinModel(Fraction(7, 2), Fraction(-1, 3)), 30), 30,
                 id="einstein-rational-n-30"),
    pytest.param(lambda: EinsteinBackend(EinsteinModel(Fraction(-3, 5), Fraction(7, 5)), 30), 30,
                 id="einstein-negative-n-30"),
]


@pytest.mark.parametrize("make, n", HIGH_ORDER_BACKENDS)
def test_formula_kernel_matches_the_oracle_at_high_order(make, n):
    backend = make()
    f = backend.f
    assert formula_P(backend, n, f) == oracle_P(backend, n, f)
    assert formula_Q(backend, n) == oracle_Q(backend, n)
    for a in (1, 2, n // 2, n - 1, n):
        assert formula_P_partial(backend, n, a, f) == oracle_P_partial(backend, n, a, f), a


def test_formula_kernel_uses_no_expansion_and_no_R_iteration(monkeypatch):
    backend = MatrixAssignment.random(3, 6, seed=4)
    f = backend.f
    want = (
        oracle_P(backend, 6, f),
        [oracle_P_partial(backend, 6, a, f) for a in range(1, 7)],
        oracle_Q(backend, 6),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the prefix-sum kernel reached a path it must not use")

    for name in ("expand_P_explicit", "expand_P_recursive", "expand_Q_explicit", "expand_Q_recursive"):
        monkeypatch.setattr(juhl_core, name, refuse)
    for name in ("apply_R", "_iterate_R", "_apply_words"):
        monkeypatch.setattr(backends, name, refuse)
    for name in ("n_coeff", "n_int", "nbar_coeff", "nbar_int", "m_coeff", "m_ratio"):
        monkeypatch.setattr(exact_core, name, refuse)
    monkeypatch.setattr(TermMap, "_raw", classmethod(refuse))
    monkeypatch.setattr(TermMap, "__init__", refuse)
    got = (
        formula_P(backend, 6, f),
        [formula_P_partial(backend, 6, a, f) for a in range(1, 7)],
        formula_Q(backend, 6),
    )
    assert got == want


def test_formula_missing_order_raises():
    # as on the word path: M_4 is missing from N = 2 on (from N = 3 for the
    # partial form at a = 1), and a backend may have no W-scalars
    backend = MatrixAssignment.random(3, 1, seed=0)
    f = backend.f
    with pytest.raises(UnboundOrderError):
        formula_P(backend, 2, f)
    with pytest.raises(UnboundOrderError):
        formula_P_partial(backend, 3, 1, f)
    with pytest.raises(UnboundOrderError):
        formula_Q(backend, 2)
    no_w = MatrixAssignment(backend.matrices, f)
    with pytest.raises(UnboundOrderError):
        evaluate_Q(expand_Q_explicit(1), no_w)
    with pytest.raises(UnboundOrderError):
        formula_Q(no_w, 1)


@pytest.mark.parametrize("bad", [0, 4, 1.5, True])
def test_formula_rejects_a_bad_order(bad):
    backend = MatrixAssignment.random(2, 3, seed=0)
    f = backend.f
    with pytest.raises(ValueError, match=re.escape(f"a must lie in 1..N, got {bad!r}")):
        formula_P_partial(backend, 3, bad, f)
    if bad == 4:
        return  # a fine N
    for call in (lambda: formula_P(backend, bad, f), lambda: formula_Q(backend, bad),
                 lambda: formula_P_partial(backend, bad, 1, f)):
        with pytest.raises(ValueError, match=re.escape(f"N must be a positive integer, got {bad!r}")):
            call()


# ---------------------------------------------------------------------------
# the integer-numerator arithmetic the three backend paths share


@pytest.mark.parametrize(
    "matrices, f, w_scalars, message",
    [
        ({1: ((0.5,),)}, (1,), None, "matrix entries must be rational, got 0.5"),
        ({1: ((True,),)}, (1,), None, "matrix entries must be rational, got True"),
        ({1: ((1,),)}, (0.1,), None, "test vector entries must be rational, got 0.1"),
        ({1: ((1,),)}, (True,), None, "test vector entries must be rational, got True"),
        ({1: ((1,),)}, (1,), {1: 0.5}, "W-scalars must be rational, got 0.5"),
        ({1: ((1,),)}, (1,), {1: True}, "W-scalars must be rational, got True"),
    ],
)
def test_matrix_assignment_rejects_inexact_input(matrices, f, w_scalars, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MatrixAssignment(matrices, f, w_scalars)


@pytest.mark.parametrize(
    "n, c, gamma, message",
    [
        (0.1, 1, 0, "n must be rational, got 0.1"),
        (True, 1, 0, "n must be rational, got True"),
        ("5", 1, 0, "n must be rational, got '5'"),
        (5, 0.5, 0, "c must be rational, got 0.5"),
        (5, True, 0, "c must be rational, got True"),
        (5, "1/2", 0, "c must be rational, got '1/2'"),
        (5, 1, 0.5, "gamma must be rational, got 0.5"),
        (5, 1, True, "gamma must be rational, got True"),
        (5, 1, "1/2", "gamma must be rational, got '1/2'"),
    ],
)
def test_einstein_inputs_reject_inexact_values(n, c, gamma, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_dv_identity(EinsteinModel(n, c), gamma, kmax=0, cap=1)


@pytest.mark.parametrize("cap", [-1, -5, 1.5, True, "8", None])
def test_dv_identity_rejects_a_bad_cap(cap):
    with pytest.raises(ValueError, match=re.escape(f"cap must be a non-negative integer, got {cap!r}")):
        verify_dv_identity(EinsteinModel(5, 1), 0, kmax=0, cap=cap)


@pytest.mark.parametrize("kmax", [-1, 4, 1.5, True, "0", None])
def test_dv_identity_rejects_a_bad_kmax(kmax):
    # cap = 2 compares lanes 0..2, so rho^3 is the highest input inside the window
    with pytest.raises(ValueError, match=re.escape(f"kmax must lie in 0..cap+1, got {kmax!r}")):
        verify_dv_identity(EinsteinModel(5, 1), 0, kmax=kmax, cap=2)


def test_dv_identity_compares_the_top_input_in_the_window():
    sides = verify_dv_identity(EinsteinModel(Fraction(7, 2), Fraction(-1, 3)), Fraction(1, 3), kmax=3, cap=2)
    assert len(sides) == 4
    assert sides[3][1] == [0, 0, 2 * 3 * (Fraction(13, 12) - 2)]
    assert all(lhs == rhs for lhs, rhs in sides)


@pytest.mark.parametrize("build", [einstein_invariants, EinsteinBackend])
@pytest.mark.parametrize("max_order", [0, -2, 1.5, True, "3", None])
def test_einstein_helpers_reject_a_bad_max_order(build, max_order):
    with pytest.raises(ValueError, match=re.escape(f"max_order must be a positive integer, got {max_order!r}")):
        build(EinsteinModel(5, 1), max_order)


def test_matrix_assignment_stores_int_input_as_fractions():
    backend = MatrixAssignment({1: ((1, 2), (2, Fraction(1, 3)))}, (3, Fraction(-1, 2)), {2: -4})
    values = [*backend.matrices[1][0], *backend.matrices[1][1], *backend.f, *backend.w_scalars.values()]
    assert values == [1, 2, 2, Fraction(1, 3), 3, Fraction(-1, 2), -4]
    assert all(type(x) is Fraction for x in values)


rational_vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.one_of(
        st.tuples(*[wide_entries] * d),
        st.just((Fraction(0),) * d),
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * d),
    )
)


@given(v=rational_vectors)
@settings(max_examples=80, deadline=None)
def test_ints_is_the_vector_over_the_lcm_of_its_denominators(v):
    vec, den = backends._ints(v)
    assert all(type(x) is int for x in vec)
    assert den == math.lcm(*[Fraction(x).denominator for x in v])
    assert [Fraction(x, den) for x in vec] == list(v)
    assert backends._fractions(vec, den) == tuple(Fraction(x) for x in v)


@given(case=matrix_and_vector(), den=st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_m_apply_is_mat_vec_on_the_fraction_matrix(case, den):
    matrix, v = case
    backend = MatrixAssignment({1: matrix}, (0,) * len(v))
    value = [Fraction(Fraction(x).numerator, den) for x in v]  # any integers, over den
    assert backend.m_apply(1, value) == mat_vec(matrix, value)
    with pytest.raises(UnboundOrderError):
        backend.m_apply(2, value)


def _apply_R_by_formula(k, lanes, matrices):
    # 2(i+1)(k-i) u_{i+1} + sum_e (-1)^e/(e!^2 2^e) M_{2(e+1)} u_{i-e}, on
    # Fraction lanes and matrices, lane by lane; a nonzero lane asks for its
    # block, a zero lane never does
    out = []
    for i in range(len(lanes) - 1):
        acc = [2 * (i + 1) * (k - i) * Fraction(x) for x in lanes[i + 1]]
        for e in range(i + 1):
            if any(lanes[i - e]):
                weight = Fraction((-1) ** e, factorial(e) ** 2 * 2**e)
                low = mat_vec(_block(matrices, e + 1), lanes[i - e])
                acc = [x + weight * y for x, y in zip(acc, low)]
        out.append(tuple(acc))
    return out


@st.composite
def backend_and_lanes(draw):
    d = draw(st.sampled_from([2, 3]))
    backend = MatrixAssignment.random(d, 6, seed=draw(st.integers(min_value=0, max_value=10**6)))
    lane = st.one_of(st.tuples(*[entries] * d), st.just((Fraction(0),) * d))
    return backend, draw(st.lists(lane, min_size=2, max_size=7))


@given(
    case=backend_and_lanes(),
    k=st.one_of(st.integers(min_value=-7, max_value=7), st.fractions(min_value=-7, max_value=7, max_denominator=6)),
)
@settings(max_examples=80, deadline=None)
def test_apply_R_matches_the_fraction_formula(case, k):
    # integer k in the oracles, rational k in the conjugation identity
    backend, lanes = case
    flat, den = apply_R(k, _window(lanes), backend)
    assert _lanes((flat, den), backend.dim) == _apply_R_by_formula(k, lanes, backend.matrices)
    assert all(type(x) is int for x in flat)
    assert type(den) is int and den > 0 and math.gcd(den, *flat) == 1  # one gcd reduces the window


def test_apply_R_asks_no_block_for_a_zero_lane():
    # output lane 2 reaches M_6 only through u_0: with u_0 = 0 a backend
    # without M_6 gives the same lanes as one with it
    backend = MatrixAssignment.random(2, 2, seed=3)
    zero, v = (Fraction(0),) * 2, (Fraction(1), Fraction(-2, 3))
    lanes = [zero, v, v, zero]
    want = _apply_R_by_formula(4, lanes, MatrixAssignment.random(2, 3, seed=3).matrices)
    assert _apply_R_on_fractions(4, lanes, backend) == want
    with pytest.raises(UnboundOrderError):
        _apply_R_on_fractions(4, [v, zero, zero, zero], backend)


def test_the_R_iteration_uses_no_prefix_sum_and_no_word(monkeypatch):
    backend = MatrixAssignment.random(3, 6, seed=4)
    f = backend.f
    want = (
        formula_P(backend, 6, f),
        [formula_P_partial(backend, 6, a, f) for a in range(1, 7)],
        formula_Q(backend, 6),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the R-iteration reached a path it must not use")

    for name in ("_prefix_sums", "_apply_words"):
        monkeypatch.setattr(backends, name, refuse)
    got = (
        oracle_P(backend, 6, f),
        [oracle_P_partial(backend, 6, a, f) for a in range(1, 7)],
        oracle_Q(backend, 6),
    )
    assert got == want


def test_the_R_iteration_makes_fractions_once(monkeypatch):
    # the window stays integers over one den from the first R factor to the
    # last: the test vector's one _ints comes before the first apply_R (W and
    # f are stored integers), no conversion runs and no Fraction is made
    # inside an R step or the prefix sums, and one _fractions, making one
    # Fraction per entry, ends the call
    backend = MatrixAssignment.random(3, 6, seed=4)
    f = backend.f
    calls = []
    for name in ("_ints", "_fractions", "apply_R", "_prefix_sums", "Fraction"):
        real = getattr(backends, name)
        monkeypatch.setattr(backends, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    entries = {
        "oracle_P": (lambda: oracle_P(backend, 6, f), ["_ints"] + ["apply_R"] * 6),
        "oracle_P_partial": (lambda: oracle_P_partial(backend, 6, 3, f), ["_ints"] + ["apply_R"] * 5),
        "oracle_Q": (lambda: oracle_Q(backend, 6), ["apply_R"] * 5),
        "formula_Q": (lambda: formula_Q(backend, 6), ["_prefix_sums"]),
    }
    for name, (call, steps) in entries.items():
        calls.clear()
        call()
        assert calls == steps + ["_fractions"] + ["Fraction"] * 3, name


@given(case=backend_and_vector(), n=st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_integer_lanes_match_a_fraction_reference(case, n):
    # f, the W-scalars, the matrices and v have mixed denominators; the
    # reference applies the explicit expansions on the Fraction values, with
    # none of the integer helpers the R-iteration and the prefix sums share
    backend, v = case
    assert oracle_Q(backend, n) == formula_Q(backend, n) == _fraction_Q(backend, expand_Q_explicit(n))
    assert oracle_P(backend, n, v) == formula_P(backend, n, v) == _fraction_P(backend, expand_P_explicit(n), v)


TEST_VECTOR_ENTRIES = {
    "oracle_P": lambda backend, f: oracle_P(backend, 2, f),
    "oracle_P_partial": lambda backend, f: oracle_P_partial(backend, 2, 2, f),
    "formula_P": lambda backend, f: formula_P(backend, 2, f),
    "formula_P_partial": lambda backend, f: formula_P_partial(backend, 2, 2, f),
    "evaluate_P": lambda backend, f: evaluate_P(expand_P_explicit(2), backend, f),
    "m_apply": lambda backend, f: backend.m_apply(1, f),
}


@pytest.mark.parametrize("entry", TEST_VECTOR_ENTRIES.values(), ids=TEST_VECTOR_ENTRIES)
@pytest.mark.parametrize(
    "f, message",
    [
        ((1, 2, 3), "test vector length must match the matrix dimension 2, got (1, 2, 3)"),
        ((1,), "test vector length must match the matrix dimension 2, got (1,)"),
        ((True, 0), "test vector entries must be rational, got True"),
        ((0.5, 0), "test vector entries must be rational, got 0.5"),
        (("1", 0), "test vector entries must be rational, got '1'"),
        ("12", "test vector length must match the matrix dimension 2, got '12'"),
        (None, "test vector length must match the matrix dimension 2, got None"),
    ],
    ids=["long", "short", "bool", "float", "str-entry", "str", "none"],
)
def test_public_entries_reject_a_bad_test_vector(entry, f, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(MatrixAssignment.random(2, 3, 0), f)


@pytest.mark.parametrize("entry", TEST_VECTOR_ENTRIES.values(), ids=TEST_VECTOR_ENTRIES)
def test_public_entries_read_a_list_of_ints_as_the_tuple_of_fractions(entry):
    backend = MatrixAssignment.random(2, 3, 0)
    assert entry(backend, [1, -2]) == entry(backend, (Fraction(1), Fraction(-2)))


# ---------------------------------------------------------------------------
# the kernels' canonical pairs


def _canonical(pair) -> tuple:
    """The Fractions of ``pair`` after checking that it is canonical: an int
    list over a positive int den, divided by their gcd."""
    vec, den = pair
    assert type(vec) is list and all(type(x) is int for x in vec), pair
    assert type(den) is int and den > 0 and math.gcd(den, *vec) == 1, pair
    return _fractions(vec, den)


@st.composite
def pair_backends(draw):
    # random backends of dim 1-3, some with a zero test vector, and the Einstein family
    if draw(st.booleans()):
        n = draw(st.fractions(min_value=-9, max_value=9, max_denominator=5))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        return EinsteinBackend(EinsteinModel(n, c), 4)
    backend = MatrixAssignment.random(draw(st.integers(1, 3)), 4, draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        backend = MatrixAssignment(backend.matrices, (0,) * backend.dim, backend.w_scalars)
    return backend


@given(backend=pair_backends(), n=st.integers(min_value=1, max_value=4))
@example(backend=MatrixAssignment.random(2, 4, 0), n=1)  # oracle_Q at N = 1 runs no R factor
@settings(max_examples=60, deadline=None)
def test_every_kernel_returns_the_canonical_pair_of_its_public_value(backend, n):
    f = backend.f
    fpair = _ints(f)
    p_words = expand_P_explicit(n)
    p_pairs = {
        "oracle_P": (backends._oracle_P(backend, n, fpair), oracle_P(backend, n, f)),
        "formula_P": (backends._formula_P(backend, n, fpair), formula_P(backend, n, f)),
        "evaluate_P": (backends._evaluate_P(p_words, backend, fpair), evaluate_P(p_words, backend, f)),
    }
    q_words = expand_Q_explicit(n)
    q_pairs = {
        "oracle_Q": (backends._oracle_Q(backend, n), oracle_Q(backend, n)),
        "formula_Q": (backends._formula_Q(backend, n), formula_Q(backend, n)),
        "evaluate_Q": (backends._evaluate_Q(q_words, backend), evaluate_Q(q_words, backend)),
    }
    for name, (pair, value) in {**p_pairs, **q_pairs}.items():
        assert _canonical(pair) == value, name
    # equal values are equal pairs, whichever path made them
    for pairs in (p_pairs, q_pairs):
        (first, _), *rest = pairs.values()
        assert all(pair == first for pair, _ in rest), pairs
    for a in range(1, n + 1):
        direct = backends._oracle_P_partial(backend, n, a, fpair)
        closed = backends._formula_P_partial(backend, n, a, fpair)
        assert _canonical(direct) == oracle_P_partial(backend, n, a, f), a
        assert direct == closed, a


@given(
    n=st.fractions(min_value=-9, max_value=9, max_denominator=5),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    gamma=st.fractions(min_value=-4, max_value=4, max_denominator=3),
    cap=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_conjugation_sides_are_the_canonical_pairs_of_the_public_sides(n, c, gamma, cap, data):
    kmax = data.draw(st.integers(min_value=0, max_value=cap + 1))
    model = EinsteinModel(n, c)
    sides = backends._dv_sides(model, gamma, kmax, cap)
    public = verify_dv_identity(model, gamma, kmax, cap)
    for (lhs, rhs), (lhs_value, rhs_value) in zip(sides, public, strict=True):
        assert list(_canonical(lhs)) == lhs_value
        assert list(_canonical(rhs)) == rhs_value
        assert lhs == rhs


def _random_reference(dim: int, max_order: int, seed: int):
    """``MatrixAssignment.random``'s draw on plain Fractions: the same rng
    calls, each entry Fraction(p, q), symmetrized as (A + A^T)/2."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.choice([-2, -1, 0, 1, 2]), rng.choice([1, 2, 3]))

    matrices = {}
    for order in range(1, max_order + 1):
        raw = [[entry() for _ in range(dim)] for _ in range(dim)]
        matrices[order] = tuple(tuple((raw[i][j] + raw[j][i]) / 2 for j in range(dim)) for i in range(dim))
    f = tuple(entry() for _ in range(dim))
    w_scalars = {a: entry() for a in range(1, max_order + 1)}
    return matrices, f, w_scalars


@pytest.mark.parametrize("seed", [0, 1, 7, 17, 123])
@pytest.mark.parametrize("dim", [1, 3, 4])
def test_random_backend_draws_the_fraction_reference(seed, dim):
    backend = MatrixAssignment.random(dim, 5, seed)
    assert (backend.matrices, backend.f, backend.w_scalars) == _random_reference(dim, 5, seed)


def test_random_backend_is_pinned():
    # MatrixAssignment.random(2, 2, 0) draws these values, as it always has
    backend = MatrixAssignment.random(2, 2, 0)
    half = Fraction(1, 2)
    assert backend.matrices == {1: ((half, 0), (0, half)), 2: ((half, 2), (2, 0))}
    assert backend.f == (Fraction(-2, 3), 0)
    assert backend.w_scalars == {1: 2, 2: 0}


@given(case=backend_and_vector())
@settings(max_examples=40, deadline=None)
def test_the_views_are_the_inputs(case):
    # matrices, f and w_scalars are Fraction views of the stored integers,
    # built on each read: equal to the inputs and not assignable
    backend, _ = case
    matrices, f, w_scalars = backend.matrices, backend.f, backend.w_scalars
    rebuilt = MatrixAssignment(matrices, f, w_scalars)
    assert (rebuilt.matrices, rebuilt.f, rebuilt.w_scalars) == (matrices, f, w_scalars)
    assert all(type(x) is Fraction for m in matrices.values() for row in m for x in row)
    assert all(type(x) is Fraction for x in (*f, *w_scalars.values()))
    matrices[1] = f = w_scalars[1] = None  # changing a view leaves the backend as it was
    assert (backend.matrices, backend.f, backend.w_scalars) == (rebuilt.matrices, rebuilt.f, rebuilt.w_scalars)
    for name in ("matrices", "f", "w_scalars"):
        with pytest.raises(AttributeError):
            setattr(backend, name, None)


@pytest.mark.parametrize(
    "n, c", [(Fraction(7, 2), Fraction(-1, 3)), (Fraction(4), Fraction(0)), (Fraction(-3, 5), Fraction(7, 5))]
)
def test_the_einstein_views_are_einstein_invariants(n, c):
    backend = EinsteinBackend(EinsteinModel(n, c), 12)
    w_scalars, m_consts = einstein_invariants(EinsteinModel(n, c), 12)
    assert backend.m_consts == m_consts and backend.w_scalars == w_scalars
    assert backend.matrices == {order: ((m,),) for order, m in m_consts.items()}
    w_nums, w_den, m_nums, m_den = backends._einstein_kernel(EinsteinModel(n, c), 12)
    assert [Fraction(x, w_den) for x in w_nums] == list(w_scalars.values())
    assert [Fraction(x, m_den) for x in m_nums] == list(m_consts.values())
    with pytest.raises(AttributeError):
        backend.m_consts = m_consts


# ---------------------------------------------------------------------------
# every kernel against plain Fractions, on backends whose orders may have a gap


def _fraction_iteration(ks, lanes, matrices):
    for k in ks:
        lanes = _apply_R_by_formula(k, lanes, matrices)
    return lanes[0]


def _outcome(call):
    try:
        return call()
    except UnboundOrderError:
        return "unbound"


@st.composite
def gapped_backends(draw):
    # dim 1-3; matrix entries, f and W-scalars with mixed denominators; the
    # orders of the matrices and of the W-scalars may have gaps, as {1, 2, 4}
    d = draw(st.integers(min_value=1, max_value=3))
    orders = draw(st.sampled_from([{1, 2, 3, 4}, {1, 2, 4}, {1, 3, 4}, {2, 3}, {1, 2}, set()]))
    matrices = {order: _symmetric([[draw(wide_entries) for _ in range(d)] for _ in range(d)]) for order in orders}
    f = draw(st.one_of(st.tuples(*[wide_entries] * d), st.just((Fraction(0),) * d)))
    w_orders = draw(st.sampled_from([{1, 2, 3, 4}, {1, 3, 4}, {1, 2}]))
    w_scalars = {a: draw(wide_entries) for a in w_orders}
    return MatrixAssignment(matrices, f, w_scalars)


GAPPED = {1: ((1,),), 2: ((Fraction(1, 3),),), 4: ((Fraction(-5, 7),),)}


@given(backend=gapped_backends(), n=st.integers(min_value=1, max_value=4), a=st.integers(min_value=1, max_value=4))
# M_6 is missing.  At N = 3 the full P paths reach it and raise; the partial
# forms at a = 1 and the Q paths read M_2 and M_4 only.  At N = 4 every path
# reaches it.  On f = 0 the R-iterations' lanes are all zero, so they never
# ask for it, while the prefix sums and the words still do
@example(backend=MatrixAssignment(GAPPED, (Fraction(2, 5),), {1: 1, 2: 3, 3: -2}), n=3, a=1)
@example(backend=MatrixAssignment(GAPPED, (0,), {1: 1, 2: 3, 3: -2}), n=3, a=1)
@example(backend=MatrixAssignment(GAPPED, (Fraction(2, 5),), {1: 1, 2: 3, 3: -2, 4: 5}), n=4, a=1)
@example(backend=MatrixAssignment(GAPPED, (0,), {1: 1, 2: 3, 3: -2, 4: 5}), n=4, a=1)
@settings(max_examples=80, deadline=None)
def test_every_kernel_matches_plain_fractions_on_gapped_backends(backend, n, a):
    a = min(a, n)
    matrices, f, w_scalars = backend.matrices, backend.f, backend.w_scalars
    zero = (Fraction(0),) * backend.dim
    p_words = expand_P_explicit(n)
    quotient = p_words.right_quotient(a)
    scale = factorial(a - 1) ** 2 * (-2) ** (a - 1)
    q_words = expand_Q_explicit(n)

    def q_lanes():
        return [tuple(a * (-2) ** (a + 1) * _block(w_scalars, a) * x for x in f) for a in range(1, n + 1)]

    p_value = lambda: _fraction_P(backend, p_words, f)  # noqa: E731
    partial_value = lambda: _fraction_P(backend, quotient * scale, f)  # noqa: E731
    q_value = lambda: _fraction_Q(backend, q_words)  # noqa: E731
    cases = {
        "oracle_P": (lambda: oracle_P(backend, n, f),
                     lambda: _fraction_iteration(range(n - 1, -n, -2), [f] + [zero] * n, matrices)),
        "oracle_P_partial": (lambda: oracle_P_partial(backend, n, a, f),
                             lambda: _fraction_iteration(range(n - 3, -n, -2),
                                                         [zero] * (a - 1) + [f] + [zero] * (n - a), matrices)),
        "oracle_Q": (lambda: oracle_Q(backend, n),
                     lambda: _fraction_iteration(range(n - 3, -n, -2), q_lanes(), matrices)),
        "formula_P": (lambda: formula_P(backend, n, f), p_value),
        "formula_P_partial": (lambda: formula_P_partial(backend, n, a, f), partial_value),
        "formula_Q": (lambda: formula_Q(backend, n), q_value),
        "evaluate_P": (lambda: evaluate_P(p_words, backend, f), p_value),
        "evaluate_Q": (lambda: evaluate_Q(q_words, backend), q_value),
    }
    for name, (got, want) in cases.items():
        assert _outcome(got) == _outcome(want), (name, n, a)
