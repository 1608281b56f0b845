"""Concrete oracle backends for the expansion formulae.

There is one backend type and one value type.  A matrix backend
(``MatrixAssignment``, usually drawn at random) assigns a symmetric rational
matrix to each second-order building block, so operator compositions become
matrix products acting on a test vector; every result is a tuple of
Fractions.  The Einstein backend models the one-parameter metric family
g_rho = (1+c*rho)^2 g, in which every invariant collapses to exact rational
series arithmetic; it is the 1x1 case, with M_{2N} the matrix
((M_{2N}(1),),) and the test vector (1,).  Both drive a direct iteration of
the operators

    R_k = -2*rho*d2/drho2 + 2k*d/drho + Mtilde(rho),

where Mtilde(rho) = sum_N M_{2N} * (1/(N-1)!^2) * (-rho/2)^(N-1), giving a
computation of the operator and Q-curvature values that is independent of
the closed-form expansions.

The explicit formulae reach a backend by two paths.  ``evaluate_P`` and
``evaluate_Q`` apply every word of an ``NCPoly`` or ``QExpansion``, 2^(N-1)
words at order N; they check that the expansions themselves match the
iteration.  A word's image is its first letter applied to the image of its
suffix, and the backend memoizes these images per start vector (keyed on
its integer numerators), so every distinct word product is formed once per
backend, whichever expansion, order or partial form reaches it.
``formula_P``, ``formula_P_partial`` and ``formula_Q`` use that n_I depends
only on the parts of I and their prefix sums, and sum over cut points in
O(N^2) matrix-vector products, with no expansion, no n_I table and no
R-iteration; the Einstein cross-path check, which the ``einstein`` command
runs, takes its formula values from them.

The R-iteration, the prefix sums, the word evaluator and the Einstein
family's series share one exact arithmetic and nothing else: integer
numerators over one denominator, summed by ``_lincomb`` and multiplied by
``MatrixAssignment._times`` (vectors) or ``_ser_mul`` (series).  These
(numerators, den) pairs are ``apply_R``'s lanes; backend values are
Fractions only at the public edges.  Each public value function validates
its arguments, runs a private kernel (``_oracle_P``, ``_formula_Q``,
``_evaluate_P``, ``_dv_sides``, ...) and makes the kernel's result
Fractions once.  A kernel returns a canonical pair, reduced by
``_reduced`` (den > 0, gcd(den, *numerators) = 1), so two kernels' values
are equal exactly when their pairs are; the backends suite compares these
pairs.  ``_power`` builds a binomial series on these pairs directly.  The
tests pin each of these helpers to plain ``Fraction`` arithmetic,
``_power`` to ``general_binomial``.

Einstein family.  With g_rho = (1+c*rho)^2 g the volume ratio is
v(rho) = (1+c*rho)^n and w = sqrt(v) = (1+c*rho)^(n/2); in the r variable
(rho = -r^2/2) the expansion W(r) = (1 - c*r^2/2)^(n/2) gives
W_{2a} = C(n/2, a) * (-c/2)^a with the generalized binomial, where the
dimension n may itself be a rational parameter.  Anchors: c = 0 is the flat
model (all invariants vanish); c = 1/2 reproduces the hyperbolic normal
form h_r = (1 - r^2/4)^2 g, i.e. the round unit sphere at conformal
infinity.  The model yields Q_2 = n*c, which at c = 1/2 matches the round
sphere value Q_2 = n/2 = R/(2(n-1)) with R = n(n-1).  Every series of the
family is a binomial series (1 + x*t)^alpha, and a quotient is a product
with a negative power.  The conjugation identity compares the raw
Laplacian conjugated by w with ``apply_R`` itself on the Einstein backend.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .exact_core import check_int_range, check_positive_int, factorial
from .free_algebra import Matrix, NCPoly, Vector, _rational, mat_is_symmetric, mat_vec
from .juhl_core import QExpansion

__all__ = [
    "UnboundOrderError",
    "EinsteinModel",
    "EinsteinBackend",
    "MatrixAssignment",
    "general_binomial",
    "einstein_invariants",
    "einstein_q_closed_form",
    "apply_R",
    "oracle_P",
    "oracle_P_partial",
    "oracle_Q",
    "formula_P",
    "formula_P_partial",
    "formula_Q",
    "evaluate_P",
    "evaluate_Q",
    "verify_dv_identity",
]


class UnboundOrderError(KeyError):
    """The backend has no building block (or W-scalar) of the needed order."""


# ---------------------------------------------------------------------------
# truncated series as (numerators, den): coefficient i is numerators[i] / den


def _ser_mul(a: tuple[list[int], int], b: tuple[list[int], int]) -> tuple[list[int], int]:
    """a*b through the length of ``a``, by integer convolution over the
    product of the denominators; ``b`` is at least as long."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    n = len(a_nums)
    out = [0] * n
    for i, x in enumerate(a_nums):
        if x:
            for j in range(n - i):
                out[i + j] += x * b_nums[j]
    return out, a_den * b_den


def general_binomial(x: Fraction, k: int) -> Fraction:
    """C(x, k) = x(x-1)...(x-k+1)/k! for rational x."""
    if k < 0:
        raise ValueError("k must be >= 0")
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


def _power(alpha: Fraction, x: Fraction, length: int) -> tuple[list[int], int]:
    """(1 + x*t)^alpha through t^(length-1), as (numerators, den).

    Term j+1 is term j times (alpha-j)*x/(j+1).  With alpha = a/b and
    x = p/q, numerator j over den = (b*q)^(length-1) * (length-1)! is
    prod_{i<j}(a - i*b) * p^j * (b*q)^(length-1-j) * (length-1)!/j!, so
    every step divides exactly.
    """
    a, b = alpha.numerator, alpha.denominator
    p, q = x.numerator, x.denominator
    den = (b * q) ** (length - 1) * factorial(length - 1)
    nums = [den]
    for j in range(length - 1):
        nums.append(nums[-1] * (a - j * b) * p // (b * q * (j + 1)))
    return nums, den


# ---------------------------------------------------------------------------
# the Einstein family


class EinsteinModel(namedtuple("EinsteinModel", "n c")):
    """The family g_rho = (1 + c*rho)^2 g in (possibly rational) dimension n.
    n and c must be ``int`` or ``Fraction`` and are stored as Fractions."""

    __slots__ = ()

    def __new__(cls, n, c):
        return super().__new__(cls, _rational(n, "n"), _rational(c, "c"))


def einstein_invariants(model: EinsteinModel, max_order: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """W-scalars and the zeroth-order constants of the building blocks.

    W_{2a} is the r^{2a} coefficient of W(r) = (1 - c*r^2/2)^(n/2).  The
    constants M_{2N}(1) are read off from Mtilde acting on constants, where
    the action is multiplication by -U(r) with

        U(r) = [d2/dr2 - (n-1) r^{-1} d/dr] W(r) / W(r)

    (the divergence term annihilates the spatially constant W), matched
    against the generating normalization M_{2N}/(N-1)!^2 * (r^2/4)^(N-1).
    The division is the product with the binomial series
    1/W = (1 - c*r^2/2)^(-n/2).
    """
    check_positive_int(max_order, "max_order must be a positive integer")
    n, c = model.n, model.c
    # even series in r: index a holds the r^(2a) coefficient
    w_nums, w_den = _power(n / 2, -c / 2, max_order + 1)
    w_scalars = {a: Fraction(w_nums[a], w_den) for a in range(1, max_order + 1)}
    # [d2/dr2 - (n-1)/r d/dr] r^(2a) = 2a(2a-n) r^(2a-2); with n = nn/nd, nd joins the denominator
    nn, nd = n.numerator, n.denominator
    num = [2 * a * (2 * a * nd - nn) * w_nums[a] for a in range(1, max_order + 1)]
    u_nums, u_den = _ser_mul((num, nd * w_den), _power(-n / 2, -c / 2, max_order))
    m_consts = {
        e + 1: Fraction(-u_nums[e] * factorial(e) ** 2 * 4**e, u_den) for e in range(max_order)
    }
    return w_scalars, m_consts


def einstein_q_closed_form(model: EinsteinModel, n: int) -> Fraction:
    """The Q_{2N} that ``einstein`` prints, in closed form (Ric = 2c(n-1)g):
    (2c)^N prod_{j=1}^{N} (n/2 + j - 1) prod_{j=1}^{N-1} (n/2 - j).

    It follows from Gover's factorization of P_{2N} on Einstein metrics
    (arXiv:math/0506037) and holds at every order, N = n/2 included.  On
    integers with n/2 = a/b, b = 2 * n.denominator, made a Fraction once."""
    check_positive_int(n, "N must be a positive integer")
    a, b = model.n.numerator, 2 * model.n.denominator
    num = (2 * model.c.numerator) ** n
    for j in range(1, n + 1):
        num *= a + (j - 1) * b
    for j in range(1, n):
        num *= a - j * b
    return Fraction(num, model.c.denominator**n * b ** (2 * n - 1))


# ---------------------------------------------------------------------------
# integer-numerator vectors: (numerators, den) stands for numerators[i] / den


def int_matrix(a: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``a`` as ``(numerators, den)``: an integer matrix over the lcm of the
    entry denominators, so that ``a[i][j] == numerators[i][j] / den``."""
    den = math.lcm(*[x.denominator for row in a for x in row])
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in a), den


def _ints(value) -> tuple[list[int], int]:
    """A backend value as integer numerators over the lcm of its denominators."""
    den = math.lcm(*[x.denominator for x in value])
    return [x.numerator * (den // x.denominator) for x in value], den


def _lincomb(dim: int, parts: list) -> tuple[list[int], int]:
    """The sum of scale * numerators / den over the (scale, numerators, den)
    triples ``parts``, int scales, over the lcm of their denominators,
    reduced by the gcd; the zero vector over 1 for no parts."""
    den = math.lcm(*[d for _, _, d in parts])
    acc = [0] * dim
    for scale, vec, d in parts:
        scale *= den // d
        acc = [x + scale * y for x, y in zip(acc, vec)]
    g = math.gcd(den, *acc)
    return [x // g for x in acc], den // g


def _reduced(vec, den: int) -> tuple[list[int], int]:
    """``vec / den``, den > 0, as a canonical pair: divided by the gcd of
    den and every numerator, so that two canonical pairs are equal exactly
    when their Fraction vectors are."""
    g = math.gcd(den, *vec)
    return [x // g for x in vec], den // g


def _fractions(vec, den: int) -> Vector:
    return tuple([Fraction(x, den) for x in vec])


def _test_vector(f, dim: int) -> tuple[list[int], int]:
    """``f`` as (numerators, den): a tuple or list of ``dim`` ints or Fractions, or ValueError."""
    if not isinstance(f, (tuple, list)) or len(f) != dim:
        raise ValueError(f"test vector length must match the matrix dimension {dim}, got {f!r}")
    return _ints([_rational(x, "test vector entries") for x in f])


def _w_and_f(backend, orders) -> tuple[dict[int, int], list[int], int]:
    """W_{2a} f for the a in ``orders``, on integers: [w[a] * x for x in fvec] / den."""
    w_nums, w_den = _ints([backend.w_scalar(a) for a in orders])
    fvec, fden = _ints(backend.f)
    return dict(zip(orders, w_nums)), fvec, w_den * fden


# ---------------------------------------------------------------------------
# the matrix backend and its 1x1 Einstein case


class MatrixAssignment:
    """Matrix backend: symmetric rational matrices stand in for the building
    blocks, scalars for the W-coefficients, and a test vector for the
    function being acted on.  Entries, f and W-scalars must be ``int`` or
    ``Fraction`` and are stored as Fractions; every result is a tuple of
    Fractions, one entry per matrix row.

    Each matrix is also kept as an integer numerator matrix over the lcm of
    its entry denominators, read only by ``_times``.

    ``_word_images`` is the word evaluator's memo: it maps the integer
    numerators of a start vector, as a tuple, to ``{word: (numerators,
    den)}``, the image M_{w_1} ... M_{w_k} of those numerators with den the
    product of the matrices' denominators.  Only ``_apply_words`` reads and
    fills it; the R-iteration and the prefix sums call ``_times`` directly.
    """

    def __init__(
        self,
        matrices: dict[int, Matrix],
        f: Vector,
        w_scalars: dict[int, Fraction] | None = None,
    ):
        dims = {len(m) for m in matrices.values()}
        if len(dims) > 1:
            raise ValueError("all matrices must share one dimension")
        d = dims.pop() if dims else len(f)
        self.matrices = {}
        for order, m in matrices.items():
            if any(len(row) != d for row in m):
                raise ValueError("matrices must be square")
            m = tuple(tuple(_rational(x, "matrix entries") for x in row) for row in m)
            if not mat_is_symmetric(m):
                raise ValueError("matrices must be symmetric")
            self.matrices[order] = m
        self._int_matrices = {order: int_matrix(m) for order, m in self.matrices.items()}
        self.f = _fractions(*_test_vector(f, d))
        self.w_scalars = {a: _rational(w, "W-scalars") for a, w in (w_scalars or {}).items()}
        self._word_images: dict[tuple[int, ...], dict[tuple[int, ...], tuple]] = {}

    @classmethod
    def random(cls, dim: int, max_order: int, seed: int) -> MatrixAssignment:
        """Reproducible random assignment with entries p/q, p in -2..2,
        q in 1..3, symmetrized as (A + A^T)/2.  Each entry is drawn as the
        integer p * (12/q) over 12, so a symmetrized entry is the one
        Fraction (x_ij + x_ji)/24, with no Fraction sum or division."""
        rng = random.Random(seed)

        def entry() -> int:
            return rng.choice([-2, -1, 0, 1, 2]) * (12 // rng.choice([1, 2, 3]))

        matrices: dict[int, Matrix] = {}
        for order in range(1, max_order + 1):
            raw = [[entry() for _ in range(dim)] for _ in range(dim)]
            matrices[order] = tuple(
                tuple(Fraction(raw[i][j] + raw[j][i], 24) for j in range(dim)) for i in range(dim)
            )
        f = tuple(Fraction(entry(), 12) for _ in range(dim))
        w_scalars = {a: Fraction(entry(), 12) for a in range(1, max_order + 1)}
        return cls(matrices, f, w_scalars)

    @property
    def dim(self) -> int:
        return len(self.f)

    def _times(self, order: int, vec, den: int) -> tuple[tuple[int, ...], int]:
        """The matrix of ``order`` times ``vec / den`` as (numerators, den), by
        integer ``mat_vec``; UnboundOrderError if there is no such matrix."""
        if order not in self._int_matrices:
            raise UnboundOrderError(order)
        rows, mden = self._int_matrices[order]
        return mat_vec(rows, vec), den * mden

    def m_apply(self, order: int, value: Vector) -> Vector:
        """The matrix of ``order`` times the test vector ``value``, one
        Fraction per entry; ValueError for a bad vector, as for ``f``."""
        return _fractions(*self._times(order, *_test_vector(value, self.dim)))

    def w_scalar(self, a: int) -> Fraction:
        if a not in self.w_scalars:
            raise UnboundOrderError(a)
        return self.w_scalars[a]


class EinsteinBackend(MatrixAssignment):
    """The Einstein family as a 1x1 matrix backend: M_{2N} is the matrix
    ((m_N,),) of its constant M_{2N}(1), the test vector is f = (1,), and
    the W-scalars are the model's, so every value is a 1-tuple."""

    def __init__(self, model: EinsteinModel, max_order: int):
        w_scalars, self.m_consts = einstein_invariants(model, max_order)
        super().__init__({order: ((m,),) for order, m in self.m_consts.items()}, (1,), w_scalars)


# ---------------------------------------------------------------------------
# the R-iteration


def apply_R(k: int | Fraction, lanes: list, backend) -> list:
    """Apply R_k = -2*rho*d2 + 2k*d + Mtilde(rho) to the rho-polynomial u
    whose coefficients u_0..u_cap are the (numerators, den) pairs ``lanes``;
    k is an integer in the oracles and rational in ``verify_dv_identity``.

    Returns a list of pairs one shorter: the lanes 0..cap-1, the ones the
    input determines exactly.  Coefficient i of the result is 2(i+1)(k-i)*u_{i+1}
    plus the Mtilde part sum_e (1/e!^2)(-1/2)^e M_{2(e+1)} u_{i-e}; the
    derivative factor and the weight's sign are the parts' ``_lincomb``
    scales, and k's denominator is folded into the derivative part's.
    Raises UnboundOrderError if a needed building block is missing; an
    all-zero lane never asks for its block.
    """
    kn, kd = k.numerator, k.denominator
    out = []
    for i in range(len(lanes) - 1):
        parts = []
        vec, den = lanes[i + 1]
        if any(vec):
            parts.append((2 * (i + 1) * (kn - i * kd), vec, den * kd))
        for e in range(i + 1):
            vec, den = lanes[i - e]
            if any(vec):
                image = backend._times(e + 1, vec, den * factorial(e) ** 2 * 2**e)
                parts.append((-1 if e % 2 else 1, *image))
        out.append(_lincomb(backend.dim, parts))
    return out


def _iterate_R(backend, ks: range, lanes: list) -> tuple[list[int], int]:
    """rho=0 value of R_{ks[-1]} ... R_{ks[0]} applied to the pair ``lanes``,
    which is one lane longer than the number of factors, as a canonical
    pair; with no factors the one input lane is reduced too."""
    for k in ks:
        lanes = apply_R(k, lanes, backend)
    if len(lanes) != 1:
        raise RuntimeError(f"expected a one-lane window after the iteration, got {len(lanes)} lanes")
    return _reduced(*lanes[0])


def _oracle_P(backend, n: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    lanes = [f] + [([0] * backend.dim, 1)] * n
    return _iterate_R(backend, range(n - 1, -n, -2), lanes)


def oracle_P(backend, n: int, f) -> Vector:
    """rho=0 value of R_{1-N} R_{3-N} ... R_{N-1} applied to the constant f.

    Agrees exactly with the explicit expansion of P_{2N} evaluated in the
    backend and applied to f.
    """
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_oracle_P(backend, n, _test_vector(f, backend.dim)))


def _oracle_P_partial(backend, n: int, a: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    lanes = [([0] * backend.dim, 1)] * n
    lanes[a - 1] = f
    return _iterate_R(backend, range(n - 3, -n, -2), lanes)


def oracle_P_partial(backend, n: int, a: int, f) -> Vector:
    """rho=0 value of R_{1-N} ... R_{N-3} applied to f * rho^(a-1).

    Equals sum over |I| = N-a of n_{(I,a)} (a-1)!^2 (-2)^(a-1) M_{2I}(f),
    the rho-side counterpart of the s-variable partial iteration.
    """
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    return _fractions(*_oracle_P_partial(backend, n, a, _test_vector(f, backend.dim)))


def _oracle_Q(backend, n: int) -> tuple[list[int], int]:
    w, fvec, den = _w_and_f(backend, range(1, n + 1))
    lanes = [([a * (-2) ** (a + 1) * w[a] * x for x in fvec], den) for a in range(1, n + 1)]
    return _iterate_R(backend, range(n - 3, -n, -2), lanes)


def oracle_Q(backend, n: int) -> Vector:
    """(-1)^N Q_{2N} as -2 times the rho=0 value of R_{1-N}...R_{N-3}(w').

    Here w' = sum_a a(-2)^a W_{2a} rho^(a-1) is built from the backend's
    W-scalars applied to the backend's test vector f, the -2 taken into the
    lanes.  Agrees exactly with the explicit Q-expansion evaluated in the backend.
    """
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_oracle_Q(backend, n))


# ---------------------------------------------------------------------------
# the explicit formulae by prefix sums


def _prefix_sums(backend: MatrixAssignment, n: int, terminal: dict) -> tuple[list[int], int]:
    """(N-1)!^2 V_0 as a canonical pair, where V_s, for s = N down to 0, is

        V_s = terminal[s] + sum_{t=s+1}^{N} w_t/(t-s-1)!^2 * M_{2(t-s)} V_t,

    with w_t = 1/(t(N-t)) for t < N and w_N = 1; a V_s with no terminal
    term and no V_t to sum is zero and is skipped.

    The explicit coefficient n_I = (N-1)!^2 prod_j 1/(I_j-1)!^2
    prod_{j<r} w_{S_j} depends only on the parts of I and its prefix sums
    S_j, so the sum over compositions is grouped by the first cut t = S_1:
    V_s sums the words whose cuts run from s up to N, each applied
    rightmost factor first, and V_0 collects every composition of N in
    O(N^2) matrix-vector products.

    Each V_s is a (numerators, den) pair and each terminal term a
    (scale, numerators, den) triple, as ``_lincomb`` sums them.
    """
    sums: dict[int, tuple[list[int], int]] = {}  # s -> V_s as (numerators, den)
    for s in range(n, -1, -1):
        parts = [terminal[s]] if s in terminal else []
        for t, (vec, den) in sums.items():
            weight_den = (t * (n - t) if t < n else 1) * factorial(t - s - 1) ** 2
            parts.append((1, *backend._times(t - s, vec, den * weight_den)))
        if parts:
            sums[s] = _lincomb(backend.dim, parts)
    vec, den = sums[0]
    scale = factorial(n - 1) ** 2
    return _reduced([scale * x for x in vec], den)


def _formula_P(backend, n: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    return _prefix_sums(backend, n, {n: (1, *f)})


def formula_P(backend, n: int, f) -> Vector:
    """P_{2N} f by the explicit formula, summed over cut points: equals
    ``evaluate_P(expand_P_explicit(N), backend, f)`` and ``oracle_P``,
    in O(N^2) matrix-vector products instead of 2^(N-1) words."""
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_formula_P(backend, n, _test_vector(f, backend.dim)))


def _formula_P_partial(backend, n: int, a: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    return _prefix_sums(backend, n, {n - a: ((-2) ** (a - 1), *f)})


def formula_P_partial(backend, n: int, a: int, f) -> Vector:
    """The closed form ``oracle_P_partial`` iterates to: the sum over
    |I| = N-a of n_{(I,a)} (a-1)!^2 (-2)^(a-1) M_{2I}(f).  The last part's
    1/(a-1)!^2 cancels (a-1)!^2, leaving one terminal term at s = N-a."""
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    return _fractions(*_formula_P_partial(backend, n, a, _test_vector(f, backend.dim)))


def _formula_Q(backend, n: int) -> tuple[list[int], int]:
    w, fvec, den = _w_and_f(backend, range(1, n + 1))
    terminal = {n - a: (a * 4**a * w[a], fvec, den) for a in range(1, n + 1)}
    return _prefix_sums(backend, n, terminal)


def formula_Q(backend, n: int) -> Vector:
    """(-1)^N Q_{2N} by the explicit formula, summed over cut points: equals
    ``evaluate_Q(expand_Q_explicit(N), backend)`` and ``oracle_Q``.  The
    term (I, a) ends in the terminal term at s = N-a,
    a!(a-1)! 4^a/(a-1)!^2 * W_{2a} f = a 4^a W_{2a} f."""
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_formula_Q(backend, n))


# ---------------------------------------------------------------------------
# evaluating closed-form expansions in a backend


def _apply_words(backend: MatrixAssignment, terms, den: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    """The sum of num/den * M_{w_1} ... M_{w_k} f over the (word, num)
    pairs ``terms`` of integer numerators, rightmost factor first, as a
    canonical pair.

    A word's image is its first letter applied by ``_times`` to the image
    of its suffix, taken from the backend's word memo for the numerators
    of f (``MatrixAssignment._word_images``) or computed and stored there,
    so each distinct suffix is multiplied out once per backend and vector.
    The images are of f's numerators alone; ``_lincomb`` sums them with
    the terms' numerators as scales, and f's denominator and ``den`` are
    applied to the sum.  This is the package's one word evaluator: the
    suites' operator-matrix symmetry check runs it on the standard basis
    vectors.
    """
    fvec, fden = f
    images = backend._word_images.setdefault(tuple(fvec), {(): (fvec, 1)})

    def image(word):
        got = images.get(word)
        if got is None:
            got = images[word] = backend._times(word[0], *image(word[1:]))
        return got

    vec, d = _lincomb(len(fvec), [(num, *image(word)) for word, num in terms])
    return _reduced(vec, d * den * fden)


def _evaluate_P(expansion: NCPoly, backend: MatrixAssignment, f: tuple[list[int], int]) -> tuple[list[int], int]:
    return _apply_words(backend, expansion._terms.items(), expansion._den, f)


def evaluate_P(expansion: NCPoly, backend: MatrixAssignment, f) -> Vector:
    """Apply an operator expansion to a backend value (rightmost factor first)."""
    return _fractions(*_evaluate_P(expansion, backend, _test_vector(f, backend.dim)))


def _evaluate_Q(expansion: QExpansion, backend: MatrixAssignment) -> tuple[list[int], int]:
    w, fvec, den = _w_and_f(backend, sorted({key[-1] for key in expansion._terms}))
    terms = [(key[:-1], num * w[key[-1]]) for key, num in expansion._terms.items()]
    return _apply_words(backend, terms, expansion._den, (fvec, den))


def evaluate_Q(expansion: QExpansion, backend: MatrixAssignment) -> Vector:
    """Evaluate a Q-expansion: each (I, a) term is M_{2I} applied to
    W_{2a} times the backend's test vector f, W_{2a}'s numerator folded
    into the term's and its denominator into f's."""
    return _fractions(*_evaluate_Q(expansion, backend))


# ---------------------------------------------------------------------------
# the conjugated-Laplacian identity, checked in the scalar reduction


def _dv_sides(model: EinsteinModel, gamma: Fraction, kmax: int, cap: int) -> list[tuple[tuple, tuple]]:
    """``verify_dv_identity``'s sides for validated arguments, each a
    canonical pair of length cap + 1."""
    n, c = model.n, model.c
    k = gamma + n / 2 - 1
    length = cap + 2  # D reads one lane above the ones compared
    w = _power(n / 2, c, length)
    w_inv, inv_den = _power(-n / 2, c, length)
    nc = n * c
    p_nums, p_den = _power(Fraction(-1), c, length)
    vlog = ([nc.numerator * x for x in p_nums], nc.denominator * p_den)  # v'/v = n*c/(1+c*rho)
    kn, kd = k.numerator, k.denominator
    gn, gd = gamma.numerator, gamma.denominator
    backend = EinsteinBackend(model, cap + 1)
    sides = []
    for j in range(kmax + 1):
        phi = [0] * j + w_inv[: length - j]  # over inv_den
        d_phi = [2 * (i + 1) * (kn - i * kd) * phi[i + 1] for i in range(cap + 1)]
        twisted = [(gn - 2 * i * gd) * x for i, x in enumerate(phi[: cap + 1])]
        twist = _ser_mul((twisted, gd * inv_den), vlog)
        lhs = _reduced(*_ser_mul(_lincomb(cap + 1, [(1, d_phi, kd * inv_den), (1, *twist)]), w))
        lanes = apply_R(k, [([int(i == j)], 1) for i in range(length)], backend)
        # apply_R's lanes are reduced, so over the lcm of their denominators they stay reduced
        den = math.lcm(*[d for _, d in lanes])
        rhs = ([num * (den // d) for (num,), d in lanes], den)
        sides.append((lhs, rhs))
    return sides


def verify_dv_identity(model: EinsteinModel, gamma, kmax: int = 4, cap: int = 8) -> list[tuple[list, list]]:
    """One (lhs, rhs) pair per input psi = rho^j, j = 0..kmax: both sides,
    through rho^cap, of

        w * [ -2*rho*phi'' + (2*gamma+n-2-2*rho*v'/v)*phi' + gamma*(v'/v)*phi ]
        = R_k psi,  k = gamma + n/2 - 1,

    where phi = psi/w, v = (1+c*rho)^n and w = sqrt(v).  The left side is
    the raw warped-product Laplacian conjugated by w (the Laplacian term
    along the boundary drops on rho-only inputs), regrouped as
    w * [D phi + (v'/v)(gamma - 2*rho*d) phi] with D = -2*rho*d2 + 2k*d.
    The right side is ``apply_R`` on the Einstein backend, whose Mtilde is
    -Utilde = -[-2*rho*w'' + (n-2)*w']/w.  gamma must be int or Fraction,
    cap an int >= 0 and kmax an int in 0..cap+1, so that every input's 1
    lies inside the window.  Each side is built on integer numerators over
    one denominator and becomes Fractions once per input.
    """
    check_int_range(cap, 0, math.inf, "cap must be a non-negative integer")
    check_int_range(kmax, 0, cap + 1, "kmax must lie in 0..cap+1")
    sides = _dv_sides(model, _rational(gamma, "gamma"), kmax, cap)
    return [(list(_fractions(*lhs)), list(_fractions(*rhs))) for lhs, rhs in sides]
