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
``formula_P``, ``formula_P_partial`` and ``formula_Q`` use that n_I is a
product of integer binomial weights, one per part, each fixed by the part's
two cut points, and sum over cut points in O(N^2) matrix-vector products,
with no expansion, no n_I table and no R-iteration; the Einstein
cross-path check, which the ``einstein`` command runs, takes its formula
values from them.

A backend holds integers only: each matrix as an integer matrix over its
own denominator, f and the W-scalars as numerators over one denominator
each, every pair reduced.  ``random`` and ``EinsteinBackend`` build these
integers directly; ``matrices``, ``f``, ``w_scalars`` and ``m_consts`` are
Fraction views made on each read.  Each backend also builds, once, the two
integer tables its kernels read:

* ``apply_R``'s table: row r is [A_0[r] | A_1[r] | ... | A_{m-1}[r]] over
  the backend's consecutive orders 1..m, with
  A_e = (-1)^e (T / (e!^2 2^e mden_{e+1})) Mnum_{e+1} and T the lcm of
  the e!^2 2^e mden_{e+1}, so that (-1)^e/(e!^2 2^e) M_{2(e+1)} = A_e / T;
* every matrix as an integer matrix K_g over the common denominator mu,
  the lcm of the matrix denominators, and the rows [K_1 | ... | K_m] of
  the consecutive ones, for the prefix sums and the word evaluator.

The R-iteration, the prefix sums, the word evaluator and the Einstein
family's series share one exact arithmetic and nothing else: integer
numerators over one denominator.  ``apply_R`` maps a window (flat, den),
the lanes u_cap..u_0 of a rho-polynomial stored top lane first in one
integer list over one den, to the next window; the prefix sums take one
lcm and one gcd per level; the word evaluator sums every word's image
(integers over mu^length) in one dot per coordinate, each term scaled by
mu^(longest length - its length).  Backend values are Fractions only at
the public edges.  Each public value function validates its arguments,
runs a private kernel (``_oracle_P``, ``_formula_Q``, ``_evaluate_P``,
``_dv_sides``, ...) and makes the kernel's result Fractions once.  A
kernel returns a canonical pair, reduced by ``_reduced`` (den > 0,
gcd(den, *numerators) = 1), so two kernels' values are equal exactly when
their pairs are; the backends suite compares these pairs.  ``_power``
builds a binomial series on these pairs directly.  The tests pin each of
these kernels to plain ``Fraction`` arithmetic, ``_power`` to
``general_binomial``.

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
from operator import mul

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


def _einstein_kernel(model: EinsteinModel, max_order: int) -> tuple[list[int], int, list[int], int]:
    """``einstein_invariants`` on integers: the numerators of W_2, W_4, ...,
    W_{2 max_order} over one denominator, then those of M_2(1), M_4(1), ...,
    M_{2 max_order}(1) over another, as (w_nums, w_den, m_nums, m_den)."""
    check_positive_int(max_order, "max_order must be a positive integer")
    n, c = model.n, model.c
    # even series in r: index a holds the r^(2a) coefficient
    w_nums, w_den = _power(n / 2, -c / 2, max_order + 1)
    # [d2/dr2 - (n-1)/r d/dr] r^(2a) = 2a(2a-n) r^(2a-2); with n = nn/nd, nd joins the denominator
    nn, nd = n.numerator, n.denominator
    num = [2 * a * (2 * a * nd - nn) * w_nums[a] for a in range(1, max_order + 1)]
    u_nums, u_den = _ser_mul((num, nd * w_den), _power(-n / 2, -c / 2, max_order))
    m_nums = [-x * factorial(e) ** 2 * 4**e for e, x in enumerate(u_nums)]
    return w_nums[1:], w_den, m_nums, u_den


def einstein_invariants(model: EinsteinModel, max_order: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """W-scalars and the zeroth-order constants of the building blocks.

    W_{2a} is the r^{2a} coefficient of W(r) = (1 - c*r^2/2)^(n/2).  The
    constants M_{2N}(1) are read off from Mtilde acting on constants, where
    the action is multiplication by -U(r) with

        U(r) = [d2/dr2 - (n-1) r^{-1} d/dr] W(r) / W(r)

    (the divergence term annihilates the spatially constant W), matched
    against the generating normalization M_{2N}/(N-1)!^2 * (r^2/4)^(N-1).
    The division is the product with the binomial series
    1/W = (1 - c*r^2/2)^(-n/2).  The integers come from ``_einstein_kernel``,
    which ``EinsteinBackend`` is built from; this is its Fraction edge.
    """
    w_nums, w_den, m_nums, m_den = _einstein_kernel(model, max_order)
    w_scalars = {a: Fraction(x, w_den) for a, x in enumerate(w_nums, 1)}
    return w_scalars, {order: Fraction(x, m_den) for order, x in enumerate(m_nums, 1)}


def einstein_q_closed_form(model: EinsteinModel, n: int) -> Fraction:
    """The Q_{2N} that ``einstein`` prints, in closed form (Ric = 2c(n-1)g):
    (2c)^N prod_{j=1}^{N} (n/2 + j - 1) prod_{j=1}^{N-1} (n/2 - j).

    It follows from Gover's factorization of P_{2N} on Einstein metrics
    (arXiv:math/0506037) and holds at every order, N = n/2 included.  Gover's
    product of (-1)^N P_{2N}(1) is (n/2 - N) times this one, so Branson's
    relation against it also checks Gover's.  On integers with n/2 = a/b,
    b = 2 * n.denominator, made a Fraction once."""
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


def _ints(value) -> tuple[list[int], int]:
    """A backend value as integer numerators over the lcm of its denominators."""
    den = math.lcm(*[x.denominator for x in value])
    return [x.numerator * (den // x.denominator) for x in value], den


def _reduced(vec, den: int) -> tuple[list[int], int]:
    """``vec / den``, den > 0, as a canonical pair: divided by the gcd of
    den and every numerator, so that two canonical pairs are equal exactly
    when their Fraction vectors are."""
    g = math.gcd(den, *vec)
    return [x // g for x in vec], den // g


def _fractions(vec, den: int) -> Vector:
    return tuple([Fraction(x, den) for x in vec])


def _int_matrix(flat: list[int], den: int, dim: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The dim x dim matrix whose entries, row by row, are ``flat`` over
    ``den``, as integer rows over one denominator, reduced."""
    flat, den = _reduced(flat, den)
    return tuple(tuple(flat[i : i + dim]) for i in range(0, dim * dim, dim)), den


def _test_vector(f, dim: int) -> tuple[list[int], int]:
    """``f`` as (numerators, den): a tuple or list of ``dim`` ints or Fractions, or ValueError."""
    if not isinstance(f, (tuple, list)) or len(f) != dim:
        raise ValueError(f"test vector length must match the matrix dimension {dim}, got {f!r}")
    return _ints([_rational(x, "test vector entries") for x in f])


def _w_and_f(backend, orders) -> tuple[dict[int, int], list[int], int]:
    """W_{2a} f for the a in ``orders``, on the backend's stored integers:
    [w[a] * x for x in fvec] / den."""
    w_nums, w_den = backend._w
    for a in orders:
        if a not in w_nums:
            raise UnboundOrderError(a)
    fvec, fden = backend._f
    return w_nums, fvec, w_den * fden


# ---------------------------------------------------------------------------
# the matrix backend and its 1x1 Einstein case


class MatrixAssignment:
    """Matrix backend: symmetric rational matrices stand in for the building
    blocks, scalars for the W-coefficients, and a test vector for the
    function being acted on.  Entries, f and W-scalars must be ``int`` or
    ``Fraction``; every result is a tuple of Fractions, one entry per
    matrix row.

    The backend stores integers, each pair reduced: ``_mats`` maps an order
    to its integer rows over the matrix's denominator, ``_f`` is f's
    numerators over one denominator and ``_w`` the W-scalars' ({a:
    numerator}, den).  ``matrices``, ``f`` and ``w_scalars`` are Fraction
    views of them, built on each read.  ``_r_table`` is ``apply_R``'s
    (rows, T, m) and ``_mu`` the prefix sums' and the word evaluator's
    (mu, {order: K}, rows of [K_1 | ... | K_m], m), both built once here;
    m is the number of consecutive orders 1..m the backend has.

    ``_word_images`` is the word evaluator's memo: it maps the integer
    numerators of a start vector, as a tuple, to ``{word: image}``, the
    integer vector K_{w_1} ... K_{w_k} of those numerators, which is
    mu^k M_{w_1} ... M_{w_k} of them.  Only ``_apply_words`` reads and
    fills it.
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
        if d == 0:
            raise ValueError("the matrix dimension must be positive")
        ints = {}
        for order, m in matrices.items():
            if any(len(row) != d for row in m):
                raise ValueError("matrices must be square")
            m = tuple(tuple(_rational(x, "matrix entries") for x in row) for row in m)
            if not mat_is_symmetric(m):
                raise ValueError("matrices must be symmetric")
            ints[order] = _int_matrix(*_ints([x for row in m for x in row]), d)
        f = _test_vector(f, d)
        w_scalars = {a: _rational(w, "W-scalars") for a, w in (w_scalars or {}).items()}
        w_nums, w_den = _ints(list(w_scalars.values()))
        self._store(ints, f, (dict(zip(w_scalars, w_nums)), w_den))

    def _store(self, matrices: dict, f: tuple[list[int], int], w: tuple[dict[int, int], int]) -> None:
        """Keep the reduced integer matrices, f and W-scalars, and build the
        kernels' tables from them."""
        self._mats, self._f, self._w = matrices, f, w
        self._word_images: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
        m = 0
        while m + 1 in matrices:
            m += 1
        d = len(f[0])
        scales = [factorial(e) ** 2 * 2**e * matrices[e + 1][1] for e in range(m)]
        t = math.lcm(*scales)
        signed = [(-1) ** e * (t // scale) for e, scale in enumerate(scales)]
        r_rows = [[s * x for e, s in enumerate(signed) for x in matrices[e + 1][0][r]] for r in range(d)]
        self._r_table = r_rows, t, m
        mu = math.lcm(*[den for _, den in matrices.values()])
        ks = {
            order: tuple(tuple(x * (mu // den) for x in row) for row in rows)
            for order, (rows, den) in matrices.items()
        }
        self._mu = mu, ks, [[x for g in range(1, m + 1) for x in ks[g][r]] for r in range(d)], m

    @classmethod
    def random(cls, dim: int, max_order: int, seed: int) -> MatrixAssignment:
        """Reproducible random assignment with entries p/q, p in -2..2,
        q in 1..3, symmetrized as (A + A^T)/2.  Each entry is drawn as the
        integer p * (12/q) over 12, so a symmetrized entry is the integer
        x_ij + x_ji over 24, and f and the W-scalars are integers over 12;
        no Fraction is made."""
        check_positive_int(dim, "dim must be a positive integer")
        rng = random.Random(seed)

        def entry() -> int:
            return rng.choice([-2, -1, 0, 1, 2]) * (12 // rng.choice([1, 2, 3]))

        matrices = {}
        for order in range(1, max_order + 1):
            raw = [[entry() for _ in range(dim)] for _ in range(dim)]
            matrices[order] = _int_matrix([raw[i][j] + raw[j][i] for i in range(dim) for j in range(dim)], 24, dim)
        f = _reduced([entry() for _ in range(dim)], 12)
        w_nums, w_den = _reduced([entry() for _ in range(max_order)], 12)
        backend = cls.__new__(cls)
        backend._store(matrices, f, (dict(enumerate(w_nums, 1)), w_den))
        return backend

    @property
    def dim(self) -> int:
        return len(self._f[0])

    @property
    def matrices(self) -> dict[int, Matrix]:
        return {
            order: tuple(tuple(Fraction(x, den) for x in row) for row in rows)
            for order, (rows, den) in self._mats.items()
        }

    @property
    def f(self) -> Vector:
        return _fractions(*self._f)

    @property
    def w_scalars(self) -> dict[int, Fraction]:
        w_nums, w_den = self._w
        return {a: Fraction(x, w_den) for a, x in w_nums.items()}

    def m_apply(self, order: int, value: Vector) -> Vector:
        """The matrix of ``order`` times the test vector ``value``, one
        Fraction per entry, by integer ``mat_vec``; ValueError for a bad
        vector, as for ``f``, and UnboundOrderError if there is no such
        matrix."""
        vec, den = _test_vector(value, self.dim)
        if order not in self._mats:
            raise UnboundOrderError(order)
        rows, mden = self._mats[order]
        return _fractions(mat_vec(rows, vec), den * mden)


class EinsteinBackend(MatrixAssignment):
    """The Einstein family as a 1x1 matrix backend: M_{2N} is the matrix
    ((m_N,),) of its constant M_{2N}(1), the test vector is f = (1,), and
    the W-scalars are the model's, so every value is a 1-tuple.  It is
    built from ``_einstein_kernel``'s integers."""

    def __init__(self, model: EinsteinModel, max_order: int):
        w_nums, w_den, m_nums, m_den = _einstein_kernel(model, max_order)
        matrices = {order: _int_matrix([x], m_den, 1) for order, x in enumerate(m_nums, 1)}
        w_nums, w_den = _reduced(w_nums, w_den)
        self._store(matrices, ([1], 1), (dict(enumerate(w_nums, 1)), w_den))

    @property
    def m_consts(self) -> dict[int, Fraction]:
        return {order: Fraction(rows[0][0], den) for order, (rows, den) in self._mats.items()}


# ---------------------------------------------------------------------------
# the R-iteration


def apply_R(k: int | Fraction, window: tuple[list[int], int], backend) -> tuple[list[int], int]:
    """Apply R_k = -2*rho*d2 + 2k*d + Mtilde(rho) to the rho-polynomial u
    whose coefficients u_0..u_cap are the window ``(flat, den)``: one
    integer list over one den holding the lanes top first, u_cap, ...,
    u_0, each of ``backend.dim`` entries; k is an integer in the oracles
    and rational in ``verify_dv_identity``.

    Returns the window one lane shorter, lanes cap-1..0, the ones the input
    determines exactly, reduced by one gcd.  Coefficient i of the result is
    2(i+1)(k-i) u_{i+1} plus the Mtilde part
    sum_e (-1)^e/(e!^2 2^e) M_{2(e+1)} u_{i-e} = sum_e A_e u_{i-e} / T, so
    with k = kn/kd output lane i, row r, is

        kd * (row r of the table) . (u_i | ... | u_lo) + T 2(i+1)(kn - i kd) u_{i+1}[r]

    over den * T * kd, where (u_i | ... | u_lo) is one slice of the window
    and lo is the lowest nonzero input lane.  Lane lo meets every block up
    to order cap - lo, so UnboundOrderError(m + 1) is raised exactly when
    that passes the backend's consecutive orders 1..m: a nonzero lane asks
    for its block, and a zero lane never does.
    """
    flat, den = window
    d = backend.dim
    rows, t, m = backend._r_table
    lanes = len(flat) // d
    last = len(flat) - 1
    while last >= 0 and not flat[last]:
        last -= 1
    lo = lanes - 1 - last // d if last >= 0 else lanes
    if lanes - 1 - lo > m:
        raise UnboundOrderError(m + 1)
    kn, kd = k.numerator, k.denominator
    stop = (lanes - lo) * d
    out = []
    for i in range(lanes - 2, -1, -1):
        top = (lanes - 2 - i) * d  # u_{i+1}, then u_i from top + d on
        up = flat[top : top + d]
        step = t * 2 * (i + 1) * (kn - i * kd)
        if i < lo:
            out += [step * x for x in up]
        else:
            low = flat[top + d : stop]
            out += [kd * sum(map(mul, row, low)) + step * x for row, x in zip(rows, up)]
    return _reduced(out, den * t * kd)


def _iterate_R(backend, ks: range, window: tuple[list[int], int]) -> tuple[list[int], int]:
    """rho=0 value of R_{ks[-1]} ... R_{ks[0]} applied to ``window``, which
    is one lane longer than the number of factors, as a canonical pair;
    with no factors the one input lane is reduced too."""
    for k in ks:
        window = apply_R(k, window, backend)
    if len(window[0]) != backend.dim:
        raise RuntimeError(f"expected a one-lane window after the iteration, got {len(window[0])} entries")
    return _reduced(*window)


def _oracle_P(backend, n: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    fvec, fden = f
    return _iterate_R(backend, range(n - 1, -n, -2), ([0] * (n * backend.dim) + fvec, fden))


def oracle_P(backend, n: int, f) -> Vector:
    """rho=0 value of R_{1-N} R_{3-N} ... R_{N-1} applied to the constant f.

    Agrees exactly with the explicit expansion of P_{2N} evaluated in the
    backend and applied to f.
    """
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_oracle_P(backend, n, _test_vector(f, backend.dim)))


def _oracle_P_partial(backend, n: int, a: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    # lanes n-1..0 with f in lane a-1
    fvec, fden = f
    d = backend.dim
    return _iterate_R(backend, range(n - 3, -n, -2), ([0] * ((n - a) * d) + fvec + [0] * ((a - 1) * d), fden))


def oracle_P_partial(backend, n: int, a: int, f) -> Vector:
    """rho=0 value of R_{1-N} ... R_{N-3} applied to f * rho^(a-1).

    Equals sum over |I| = N-a of n_{(I,a)} (a-1)!^2 (-2)^(a-1) M_{2I}(f),
    the rho-side counterpart of the s-variable partial iteration.
    """
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    return _fractions(*_oracle_P_partial(backend, n, a, _test_vector(f, backend.dim)))


def _oracle_Q(backend, n: int) -> tuple[list[int], int]:
    # lane a-1 holds a(-2)^(a+1) W_{2a} f, top lane (a = n) first
    w, fvec, den = _w_and_f(backend, range(1, n + 1))
    flat = [a * (-2) ** (a + 1) * w[a] * x for a in range(n, 0, -1) for x in fvec]
    return _iterate_R(backend, range(n - 3, -n, -2), (flat, den))


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
    """V_0 as a canonical pair, where V_s, for s = N down to 0, is

        V_s = terminal[s] + sum_{t=s+1}^{N} C(t-1, t-s-1) C(N-s-1, t-s-1) M_{2(t-s)} V_t;

    a V_s with no terminal term and no V_t to sum is zero and is skipped.

    n_I = prod_j C(S_j-1, I_j-1) C(N-S_{j-1}-1, I_j-1) over the prefix sums
    S_j is a product of one weight per part, that of the part on the cut
    points (s, t] above, so the sum over compositions is grouped by the
    first cut t = S_1: V_s sums the words whose cuts run from s up to N,
    each applied rightmost factor first, and V_0 collects every composition
    of N in O(N^2) matrix-vector products.

    Each terminal term is a (scale, numerators, den) triple and each V_s a
    reduced (numerators, den) pair.  The V_t a level reads are those of
    t = s+1 up to the top terminal: over the one lcm of their denominators
    (and the level's terminal term's), the weighted V_t are stacked in
    block order t - s = 1, 2, ... and each row is one dot with the row of
    [K_1 | ... | K_m], the matrices over the common denominator mu; the
    level is over lcm * mu and reduced once.  UnboundOrderError(m + 1)
    when a level reads a block above the consecutive orders 1..m.
    """
    mu, _, stacked, m = backend._mu
    top = max(terminal)
    scale, vec, den = terminal[top]
    sums = {top: _reduced([scale * x for x in vec], den)}  # s -> V_s
    for s in range(top - 1, -1, -1):
        if top - s > m:
            raise UnboundOrderError(m + 1)
        term = terminal.get(s)
        den = math.lcm(*[sums[t][1] for t in range(s + 1, top + 1)], term[2] if term else 1)
        stack = []
        for t in range(s + 1, top + 1):
            vec, d = sums[t]
            weight = math.comb(t - 1, t - s - 1) * math.comb(n - s - 1, t - s - 1) * (den // d)
            stack += [weight * x for x in vec]
        out = [sum(map(mul, row, stack)) for row in stacked]
        if term:
            scale, vec, d = term
            scale *= mu * (den // d)
            out = [x + scale * y for x, y in zip(out, vec)]
        sums[s] = _reduced(out, den * mu)
    return sums[0]


def _formula_P(backend, n: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    return _prefix_sums(backend, n, {n: (1, *f)})


def formula_P(backend, n: int, f) -> Vector:
    """P_{2N} f by the explicit formula, summed over cut points: equals
    ``evaluate_P(expand_P_explicit(N), backend, f)`` and ``oracle_P``,
    in O(N^2) matrix-vector products instead of 2^(N-1) words."""
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_formula_P(backend, n, _test_vector(f, backend.dim)))


def _formula_P_partial(backend, n: int, a: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    scale = math.comb(n - 1, a - 1) * factorial(a - 1) ** 2 * (-2) ** (a - 1)
    return _prefix_sums(backend, n, {n - a: (scale, *f)})


def formula_P_partial(backend, n: int, a: int, f) -> Vector:
    """The closed form ``oracle_P_partial`` iterates to: the sum over
    |I| = N-a of n_{(I,a)} (a-1)!^2 (-2)^(a-1) M_{2I}(f).  The last part's
    weight C(N-1, a-1) C(a-1, a-1) = C(N-1, a-1) joins that factor in one
    terminal term at s = N-a."""
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    return _fractions(*_formula_P_partial(backend, n, a, _test_vector(f, backend.dim)))


def _formula_Q(backend, n: int) -> tuple[list[int], int]:
    w, fvec, den = _w_and_f(backend, range(1, n + 1))
    terminal = {
        n - a: (math.comb(n - 1, a - 1) * factorial(a) * factorial(a - 1) * 4**a * w[a], fvec, den)
        for a in range(1, n + 1)
    }
    return _prefix_sums(backend, n, terminal)


def formula_Q(backend, n: int) -> Vector:
    """(-1)^N Q_{2N} by the explicit formula, summed over cut points: equals
    ``evaluate_Q(expand_Q_explicit(N), backend)`` and ``oracle_Q``.  The
    term (I, a) ends in the terminal term at s = N-a, the last part's
    weight C(N-1, a-1) times a!(a-1)! 4^a W_{2a} f."""
    check_positive_int(n, "N must be a positive integer")
    return _fractions(*_formula_Q(backend, n))


# ---------------------------------------------------------------------------
# evaluating closed-form expansions in a backend


def _apply_words(backend: MatrixAssignment, terms, den: int, f: tuple[list[int], int]) -> tuple[list[int], int]:
    """The sum of num/den * M_{w_1} ... M_{w_k} f over the (word, num)
    pairs ``terms`` of integer numerators, rightmost factor first, as a
    canonical pair.

    A word's image is its first letter's integer matrix K over mu applied
    by ``mat_vec`` to the image of its suffix, taken from the backend's
    word memo for the numerators of f (``MatrixAssignment._word_images``)
    or computed and stored there, so each distinct suffix is multiplied out
    once per backend and vector; the image of a word of length l is
    integers over mu^l.  With lmax the longest length, each term's
    numerator is scaled by mu^(lmax - l), and each coordinate of the sum
    is one dot of these scales with the images, over den * fden * mu^lmax.
    This is the package's one word evaluator: the suites' operator-matrix
    symmetry check runs it on the standard basis vectors.
    """
    fvec, fden = f
    mu, ks, _, _ = backend._mu
    images = backend._word_images.setdefault(tuple(fvec), {(): tuple(fvec)})

    def image(word):
        got = images.get(word)
        if got is None:
            if word[0] not in ks:
                raise UnboundOrderError(word[0])
            got = images[word] = mat_vec(ks[word[0]], image(word[1:]))
        return got

    columns = [(len(word), num, image(word)) for word, num in terms]
    lmax = max([length for length, _, _ in columns], default=0)
    powers = [1]
    for _ in range(lmax):
        powers.append(powers[-1] * mu)
    scales = [num * powers[lmax - length] for length, num, _ in columns]
    out = [sum(map(mul, scales, coord)) for coord in zip(*[img for _, _, img in columns])]
    return _reduced(out or [0] * len(fvec), den * fden * powers[lmax])


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
        twist, t_den = _ser_mul((twisted, gd * inv_den), vlog)
        den = math.lcm(kd * inv_den, t_den)
        d_up, t_up = den // (kd * inv_den), den // t_den
        lhs = _reduced(*_ser_mul(([d_up * x + t_up * y for x, y in zip(d_phi, twist)], den), w))
        # psi = rho^j in the window of lanes cap+1..0; apply_R's window is reduced, top lane first
        flat, den = apply_R(k, ([int(i == j) for i in range(length - 1, -1, -1)], 1), backend)
        sides.append((lhs, (flat[::-1], den)))
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
