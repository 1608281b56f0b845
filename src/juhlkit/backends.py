"""Concrete oracle backends for the expansion formulae.

There is one backend type and one value type.  A matrix backend
(``MatrixAssignment``, usually drawn at random) assigns a symmetric rational
matrix to each second-order building block, so operator compositions become
matrix products acting on a test vector; every backend value is a tuple of
Fractions.  The Einstein backend models the one-parameter metric family
g_rho = (1+c*rho)^2 g, in which every invariant collapses to exact rational
series arithmetic; it is the 1x1 case, with M_{2N} the matrix
((M_{2N}(1),),) and the test vector (1,).  Both drive a direct iteration of
the operators

    R_k = -2*rho*d2/drho2 + 2k*d/drho + Mtilde(rho),

where Mtilde(rho) = sum_N M_{2N} * (1/(N-1)!^2) * (-rho/2)^(N-1), giving a
computation of the operator and Q-curvature values that is independent of
the closed-form expansions.

Einstein family.  With g_rho = (1+c*rho)^2 g the volume ratio is
v(rho) = (1+c*rho)^n and w = sqrt(v) = (1+c*rho)^(n/2); in the r variable
(rho = -r^2/2) the expansion W(r) = (1 - c*r^2/2)^(n/2) gives
W_{2a} = C(n/2, a) * (-c/2)^a with the generalized binomial, where the
dimension n may itself be a rational parameter.  Anchors: c = 0 is the flat
model (all invariants vanish); c = 1/2 reproduces the hyperbolic normal
form h_r = (1 - r^2/4)^2 g, i.e. the round unit sphere at conformal
infinity.  The model yields Q_2 = n*c, which at c = 1/2 matches the round
sphere value Q_2 = n/2 = R/(2(n-1)) with R = n(n-1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact_core import check_int_range, check_positive_int, factorial
from .free_algebra import (
    Matrix,
    NCPoly,
    Vector,
    int_matrix,
    mat_is_symmetric,
    mat_vec,
)
from .juhl_core import QExpansion

__all__ = [
    "UnboundOrderError",
    "EinsteinModel",
    "EinsteinBackend",
    "MatrixAssignment",
    "general_binomial",
    "einstein_invariants",
    "apply_R",
    "oracle_P",
    "oracle_P_partial",
    "oracle_Q",
    "evaluate_P",
    "evaluate_Q",
    "DvIdentityReport",
    "verify_dv_identity",
]


class UnboundOrderError(KeyError):
    """The backend has no building block (or W-scalar) of the needed order."""


# ---------------------------------------------------------------------------
# truncated series over Fraction (plain coefficient lists)


def _ser_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _ser_div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    if not den[0]:
        raise ZeroDivisionError("series division needs a unit constant term")
    n = len(num)
    out: list[Fraction] = []
    for i in range(n):
        acc = num[i]
        for j in range(1, i + 1):
            if j < len(den) and den[j]:
                acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out


def _ser_deriv(a: list[Fraction]) -> list[Fraction]:
    # top lane is unknown after differentiating; callers keep slack lanes
    return [(i + 1) * a[i + 1] for i in range(len(a) - 1)] + [Fraction(0)]


def _ser_shift(a: list[Fraction]) -> list[Fraction]:
    # multiply by the series variable
    return [Fraction(0)] + a[:-1]


def _ser_scale(c: Fraction, a: list[Fraction]) -> list[Fraction]:
    return [c * x for x in a]


def _ser_add(*series: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * len(series[0])
    for s in series:
        for i, x in enumerate(s):
            out[i] += x
    return out


def general_binomial(x: Fraction, k: int) -> Fraction:
    """C(x, k) = x(x-1)...(x-k+1)/k! for rational x."""
    if k < 0:
        raise ValueError("k must be >= 0")
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


# ---------------------------------------------------------------------------
# the Einstein family


@dataclass(frozen=True)
class EinsteinModel:
    """The family g_rho = (1 + c*rho)^2 g in (possibly rational) dimension n."""

    n: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", Fraction(self.n))
        object.__setattr__(self, "c", Fraction(self.c))


def einstein_invariants(model: EinsteinModel, max_order: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """W-scalars and the zeroth-order constants of the building blocks.

    W_{2a} is the r^{2a} coefficient of W(r) = (1 - c*r^2/2)^(n/2).  The
    constants M_{2N}(1) are read off from Mtilde acting on constants, where
    the action is multiplication by -U(r) with

        U(r) = [d2/dr2 - (n-1) r^{-1} d/dr] W(r) / W(r)

    (the divergence term annihilates the spatially constant W), matched
    against the generating normalization M_{2N}/(N-1)!^2 * (r^2/4)^(N-1).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n, c = model.n, model.c
    # even series in r: index a holds the r^(2a) coefficient
    w_even = [general_binomial(n / 2, a) * (-c / 2) ** a for a in range(max_order + 1)]
    w_scalars = {a: w_even[a] for a in range(1, max_order + 1)}
    # [d2/dr2 - (n-1)/r d/dr] r^(2a) = 2a(2a-n) r^(2a-2)
    num = [2 * a * (2 * a - n) * w_even[a] for a in range(1, max_order + 1)]
    u_even = _ser_div(num, w_even[:max_order])
    m_consts = {
        e + 1: -u_even[e] * factorial(e) ** 2 * 4**e for e in range(max_order)
    }
    return w_scalars, m_consts


# ---------------------------------------------------------------------------
# the matrix backend and its 1x1 Einstein case


class MatrixAssignment:
    """Matrix backend: symmetric rational matrices stand in for the building
    blocks, scalars for the W-coefficients, and a test vector for the
    function being acted on.  Every backend value is a tuple of Fractions,
    one entry per matrix row.

    Next to the public ``matrices``, each one is kept as an integer
    numerator matrix over the lcm of its entry denominators, which
    ``m_apply`` and the evaluation kernel work on.
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
        for m in matrices.values():
            if any(len(row) != d for row in m):
                raise ValueError("matrices must be square")
            if not mat_is_symmetric(m):
                raise ValueError("matrices must be symmetric")
        if len(f) != d:
            raise ValueError("test vector length must match the matrix dimension")
        self.matrices = dict(matrices)
        self._int_matrices = {order: int_matrix(m) for order, m in self.matrices.items()}
        self.f = tuple(Fraction(x) for x in f)
        self.w_scalars = dict(w_scalars) if w_scalars else {}

    @classmethod
    def random(cls, dim: int, max_order: int, seed: int) -> MatrixAssignment:
        """Reproducible random assignment with entries p/q, p in -2..2,
        q in 1..3, symmetrized as (A + A^T)/2."""
        rng = random.Random(seed)

        def entry() -> Fraction:
            return Fraction(rng.choice([-2, -1, 0, 1, 2]), rng.choice([1, 2, 3]))

        matrices: dict[int, Matrix] = {}
        for order in range(1, max_order + 1):
            raw = [[entry() for _ in range(dim)] for _ in range(dim)]
            sym = tuple(
                tuple((raw[i][j] + raw[j][i]) / 2 for j in range(dim)) for i in range(dim)
            )
            matrices[order] = sym
        f = tuple(entry() for _ in range(dim))
        w_scalars = {a: entry() for a in range(1, max_order + 1)}
        return cls(matrices, f, w_scalars)

    @property
    def dim(self) -> int:
        return len(self.f)

    def m_apply(self, order: int, value: Vector) -> Vector:
        """The matrix of ``order`` times ``value``: integer dot products over
        one common denominator, then one Fraction per output entry."""
        if order not in self._int_matrices:
            raise UnboundOrderError(order)
        rows, den = self._int_matrices[order]
        vden = math.lcm(*[x.denominator for x in value])
        vnum = [x.numerator * (vden // x.denominator) for x in value]
        return tuple([Fraction(x, den * vden) for x in mat_vec(rows, vnum)])

    def w_scalar(self, a: int) -> Fraction:
        if a not in self.w_scalars:
            raise UnboundOrderError(a)
        return self.w_scalars[a]

    def zero_value(self) -> Vector:
        return (Fraction(0),) * self.dim


class EinsteinBackend(MatrixAssignment):
    """The Einstein family as a 1x1 matrix backend: M_{2N} is the matrix
    ((m_N,),) of its constant M_{2N}(1), the test vector is f = (1,), and
    the W-scalars are the model's, so every value is a 1-tuple."""

    def __init__(self, model: EinsteinModel, max_order: int):
        self.model = model
        w_scalars, self.m_consts = einstein_invariants(model, max_order)
        super().__init__({order: ((m,),) for order, m in self.m_consts.items()}, (1,), w_scalars)


# ---------------------------------------------------------------------------
# the R-iteration


def apply_R(k: int, lanes: list, backend) -> list:
    """Apply R_k = -2*rho*d2 + 2k*d + Mtilde(rho) to the rho-polynomial u
    whose coefficients u_0..u_cap, backend values, are the list ``lanes``.

    Returns a list one lane shorter: the lanes 0..cap-1, the ones the input
    determines exactly.  Coefficient i of the result is
    2(i+1)(k-i)*u_{i+1} plus the Mtilde part
    sum_e (1/e!^2)(-1/2)^e M_{2(e+1)} u_{i-e}.  Raises UnboundOrderError if
    a needed building block is missing from the backend.
    """
    cap = len(lanes) - 1
    weights = [Fraction((-1) ** e, factorial(e) ** 2 * 2**e) for e in range(cap)]
    out = []
    for i in range(cap):
        factor = 2 * (i + 1) * (k - i)
        acc = [factor * x for x in lanes[i + 1]]
        for e in range(i + 1):
            low = lanes[i - e]
            if any(low):
                weight = weights[e]
                acc = [x + weight * y for x, y in zip(acc, backend.m_apply(e + 1, low))]
        out.append(tuple(acc))
    return out


def _iterate_R(backend, ks: range, lanes: list):
    """rho=0 value of R_{ks[-1]} ... R_{ks[0]} applied to ``lanes``, which
    is one lane longer than the number of factors."""
    for k in ks:
        lanes = apply_R(k, lanes, backend)
    if len(lanes) != 1:
        raise RuntimeError(f"expected a one-lane window after the iteration, got {len(lanes)} lanes")
    return lanes[0]


def oracle_P(backend, n: int, f):
    """rho=0 value of R_{1-N} R_{3-N} ... R_{N-1} applied to the constant f.

    Agrees exactly with the explicit expansion of P_{2N} evaluated in the
    backend and applied to f.
    """
    check_positive_int(n, "N must be a positive integer")
    return _iterate_R(backend, range(n - 1, -n, -2), [f] + [backend.zero_value()] * n)


def oracle_P_partial(backend, n: int, a: int, f):
    """rho=0 value of R_{1-N} ... R_{N-3} applied to f * rho^(a-1).

    Equals sum over |I| = N-a of n_{(I,a)} (a-1)!^2 (-2)^(a-1) M_{2I}(f),
    the rho-side counterpart of the s-variable partial iteration.
    """
    check_positive_int(n, "N must be a positive integer")
    check_int_range(a, 1, n, "a must lie in 1..N")
    lanes = [backend.zero_value()] * n
    lanes[a - 1] = f
    return _iterate_R(backend, range(n - 3, -n, -2), lanes)


def oracle_Q(backend, n: int):
    """(-1)^N Q_{2N} as -2 times the rho=0 value of R_{1-N}...R_{N-3}(w').

    Here w' = sum_a a(-2)^a W_{2a} rho^(a-1) is built from the backend's
    W-scalars (applied to the backend's test vector f).  Agrees exactly
    with the explicit Q-expansion evaluated in the backend.
    """
    check_positive_int(n, "N must be a positive integer")
    lanes = []
    for a in range(1, n + 1):
        scale = a * (-2) ** a * backend.w_scalar(a)
        lanes.append(tuple([scale * x for x in backend.f]))
    return tuple([-2 * x for x in _iterate_R(backend, range(n - 3, -n, -2), lanes)])


# ---------------------------------------------------------------------------
# evaluating closed-form expansions in a backend


def _apply_words(backend: MatrixAssignment, terms, f) -> Vector:
    """The sum of coeff * M_{w_1} ... M_{w_k} f over the (word, coeff) pairs
    ``terms``, rightmost factor first.

    Each word is applied with integer ``mat_vec`` steps on the integer
    numerator matrices, under one running denominator per word; the words
    are summed over the lcm of their denominators, and the result has one
    Fraction per entry.  This is the package's one word evaluator: the
    suites' operator-matrix symmetry check runs it on the standard basis
    vectors.  Shares only ``mat_vec`` with ``m_apply``, which the
    R-iteration uses.
    """
    ints = backend._int_matrices
    fden = math.lcm(*[x.denominator for x in f])
    fnum = [x.numerator * (fden // x.denominator) for x in f]
    acc = [0] * len(fnum)
    acc_den = 1
    for word, coeff in terms:
        vec, den = fnum, fden * coeff.denominator
        for order in reversed(word):
            if order not in ints:
                raise UnboundOrderError(order)
            rows, mden = ints[order]
            vec = mat_vec(rows, vec)
            den *= mden
        lcm = math.lcm(acc_den, den)
        old_scale, new_scale = lcm // acc_den, lcm // den * coeff.numerator
        acc = [x * old_scale + y * new_scale for x, y in zip(acc, vec)]
        acc_den = lcm
    return tuple([Fraction(x, acc_den) for x in acc])


def evaluate_P(expansion: NCPoly, backend: MatrixAssignment, f) -> Vector:
    """Apply an operator expansion to a backend value (rightmost factor first)."""
    return _apply_words(backend, expansion.items(), f)


def evaluate_Q(expansion: QExpansion, backend: MatrixAssignment) -> Vector:
    """Evaluate a Q-expansion: each (I, a) term is M_{2I} applied to
    W_{2a} times the backend's test vector f, W_{2a} folded into the term's
    coefficient."""
    terms = [(word, coeff * backend.w_scalar(a)) for (word, a), coeff in expansion.items()]
    return _apply_words(backend, terms, backend.f)


# ---------------------------------------------------------------------------
# the conjugated-Laplacian identity, checked in the scalar reduction


@dataclass
class DvIdentityReport:
    """Outcome of the scalar check of the conjugated-Laplacian identity."""

    n: Fraction
    c: Fraction
    gamma: Fraction
    kmax: int
    cap: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_dv_identity(model: EinsteinModel, gamma, kmax: int = 4, cap: int = 8) -> DvIdentityReport:
    """Check, on inputs psi = rho^k for k <= kmax, that

        w * [ -2*rho*phi'' + (2*gamma+n-2-2*rho*v'/v)*phi' + gamma*(v'/v)*phi ]
        = -2*rho*psi'' + (2*gamma+n-2)*psi' - Utilde*psi,

    where phi = psi/w, v = (1+c*rho)^n, w = sqrt(v), and
    Utilde = [-2*rho*w'' + (n-2)*w']/w.  The left side is the raw
    warped-product Laplacian conjugated by w (the Laplacian term along the
    boundary drops on rho-only inputs); the right side is the normal form
    driving the R-iteration.  Both sides are compared exactly through
    rho^cap, computed with two lanes of slack.
    """
    n, c = model.n, model.c
    gamma = Fraction(gamma)
    length = cap + 3
    v = [general_binomial(n, j) * c**j for j in range(length)]
    w = [general_binomial(n / 2, j) * c**j for j in range(length)]
    w_inv = _ser_div([Fraction(1)] + [Fraction(0)] * (length - 1), w)
    vlog = _ser_div(_ser_deriv(v), v)  # v'/v
    const = 2 * gamma + n - 2
    utilde = _ser_div(
        _ser_add(_ser_scale(Fraction(-2), _ser_shift(_ser_deriv(_ser_deriv(w)))),
                 _ser_scale(Fraction(n - 2), _ser_deriv(w))),
        w,
    )
    first_order = _ser_add(
        [const] + [Fraction(0)] * (length - 1),
        _ser_scale(Fraction(-2), _ser_shift(vlog)),
    )
    failures: list[str] = []
    for k in range(kmax + 1):
        psi = [Fraction(0)] * length
        psi[k] = Fraction(1)
        phi = _ser_mul(w_inv, psi)
        phi1 = _ser_deriv(phi)
        phi2 = _ser_deriv(phi1)
        bracket = _ser_add(
            _ser_scale(Fraction(-2), _ser_shift(phi2)),
            _ser_mul(first_order, phi1),
            _ser_scale(gamma, _ser_mul(vlog, phi)),
        )
        lhs = _ser_mul(w, bracket)
        psi1 = _ser_deriv(psi)
        psi2 = _ser_deriv(psi1)
        rhs = _ser_add(
            _ser_scale(Fraction(-2), _ser_shift(psi2)),
            _ser_scale(const, psi1),
            _ser_scale(Fraction(-1), _ser_mul(utilde, psi)),
        )
        if lhs[: cap + 1] != rhs[: cap + 1]:
            failures.append(
                f"k={k}: lhs={lhs[: cap + 1]} rhs={rhs[: cap + 1]}"
            )
    return DvIdentityReport(n=n, c=c, gamma=gamma, kmax=kmax, cap=cap, failures=failures)
