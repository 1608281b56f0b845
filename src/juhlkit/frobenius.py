"""Scalar series solutions of the hypergeometric-type operators

    D_m = y(1+y) d2/dy2 + [1 - (N-1)y] d/dy + m(N-m)

at their regular singular point, the generating-function chain F_0..F_r
attached to an increasing sequence m_1 < ... < m_r = N, and the integer
coefficient table c_{j,l} that the chain encodes.

Series are stored in normalized form: the stored entry u_j is (j!)^2 times
the y^j coefficient, which keeps the defining recursion

    u_{j+1} = -(m-j)(N-m-j) u_j + f_j

integer-preserving for integer data.  ``int`` entries are stored as
``int`` (anything else becomes a ``Fraction``), so the chain built from
integer data (``compute_F``, ``jacobi_P``, ``jacobi_Q``) runs on integers.
The actual y^j coefficients, Fractions, are recovered at presentation time.
``apply_Dm`` works on the actual y-coefficients, scaled by (cap!)^2 so that
they stay integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import check_positive_int, factorial

CAP_PAD = 2  # every series in this module is truncated at N + CAP_PAD

__all__ = [
    "ScalarSeries",
    "check_msequence",
    "solve_Dm",
    "apply_Dm",
    "jacobi_P",
    "jacobi_Q",
    "compute_F",
    "c_table",
    "RecusolveReport",
    "verify_recusolve",
]


def _exact(v):
    """``v`` itself if it is an ``int`` or a ``Fraction``, else ``Fraction(v)``."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class ScalarSeries:
    """Truncated power series in y over the rationals, in normalized storage."""

    __slots__ = ("normalized", "cap")

    def __init__(self, normalized, cap: int | None = None):
        vals = [_exact(v) for v in normalized]
        if cap is None:
            cap = len(vals) - 1
        if cap < 0:
            raise ValueError("cap must be >= 0")
        vals += [0] * (cap + 1 - len(vals))
        if len(vals) != cap + 1:
            raise ValueError("more coefficients than cap + 1")
        self.normalized = vals
        self.cap = cap

    @classmethod
    def zero(cls, cap: int) -> ScalarSeries:
        return cls([], cap)

    @classmethod
    def constant(cls, value, cap: int) -> ScalarSeries:
        return cls([value], cap)

    def y_coeff(self, j: int) -> Fraction:
        """The actual y^j coefficient, u_j / (j!)^2."""
        return Fraction(self.normalized[j], factorial(j) ** 2)

    def degree(self) -> int:
        """Largest j with a nonzero coefficient, or -1 for the zero series."""
        for j in range(self.cap, -1, -1):
            if self.normalized[j]:
                return j
        return -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        n = max(self.cap, other.cap) + 1
        pad_a = self.normalized + [0] * (n - len(self.normalized))
        pad_b = other.normalized + [0] * (n - len(other.normalized))
        return pad_a == pad_b

    def __repr__(self) -> str:
        return f"ScalarSeries({self.normalized!r})"


def check_msequence(entries) -> tuple[int, ...]:
    """Validate a strictly increasing sequence of positive integers."""
    seq = tuple(entries)
    if not seq:
        raise ValueError("an m-sequence must have at least one entry")
    for e in seq:
        check_positive_int(e, "m-sequence entries must be positive integers")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"m-sequence must be strictly increasing, got {seq}")
    return seq


def solve_Dm(m: int, big_n: int, f: ScalarSeries, u0) -> ScalarSeries:
    """The unique series u with D_m u = f and u(0) = u0.

    Computed by the normalized-coefficient recursion
    u_{j+1} = -(m-j)(N-m-j) u_j + f_j.
    """
    cap = f.cap
    u = [_exact(u0)]
    for j in range(cap):
        u.append(-(m - j) * (big_n - m - j) * u[j] + f.normalized[j])
    return ScalarSeries(u, cap)


def apply_Dm(m: int, big_n: int, u: ScalarSeries) -> ScalarSeries:
    """Apply D_m directly, term by term, on actual y-coefficients.

    The y-coefficients a_i = u_i / (i!)^2 enter scaled by (cap!)^2, as
    u_i * (cap!/i!)^2, which is an integer for integer storage; each output
    coefficient is divided back once.  Independent of the recursion in
    ``solve_Dm``; exact whenever ``u`` is a polynomial of degree < cap (true
    up-cap coefficients are zero).
    """
    cap = u.cap
    top = factorial(cap)
    a = [v * (top // factorial(i)) ** 2 for i, v in enumerate(u.normalized)]
    a_pad = a + [0, 0]
    upp = [(i + 2) * (i + 1) * a_pad[i + 2] for i in range(cap + 1)]
    up = [(i + 1) * a_pad[i + 1] for i in range(cap + 1)]
    out = []
    for i in range(cap + 1):
        term = upp[i - 1] if i >= 1 else 0             # y * u''
        if i >= 2:
            term += upp[i - 2]                         # y^2 * u''
        term += up[i]                                  # u'
        if i >= 1:
            term -= (big_n - 1) * up[i - 1]            # -(N-1) y * u'
        term += m * (big_n - m) * a[i]
        num, den = term * factorial(i) ** 2, top * top
        q, rem = divmod(num, den)
        out.append(Fraction(num, den) if rem else q)  # an exact quotient stays an int
    return ScalarSeries(out, cap)


def jacobi_P(m: int, big_n: int) -> ScalarSeries:
    """The kernel solution: D_m P = 0, P(0) = 1.

    A polynomial of degree exactly min(m, N-m); up to normalization these
    are Jacobi polynomials.
    """
    if not 0 <= m <= big_n:
        raise ValueError(f"m must lie in 0..N, got {m}")
    sol = solve_Dm(m, big_n, ScalarSeries.zero(big_n + CAP_PAD), 1)
    want = min(m, big_n - m)
    if sol.degree() != want:
        raise AssertionError(f"kernel solution degree {sol.degree()} != {want}")
    return sol


def jacobi_Q(m: int, big_n: int) -> ScalarSeries:
    """The particular solution: D_m Q = P_m, Q(0) = 0, for m != N/2.

    A polynomial of degree <= max(m, N-m); at m = N/2 no polynomial solution
    exists and a ValueError is raised.
    """
    if not 0 <= m <= big_n:
        raise ValueError(f"m must lie in 0..N, got {m}")
    if 2 * m == big_n:
        raise ValueError(f"singular case m = N/2 (m={m}, N={big_n})")
    sol = solve_Dm(m, big_n, jacobi_P(m, big_n), 0)
    if sol.degree() > max(m, big_n - m):
        raise AssertionError(f"particular solution degree {sol.degree()} too large")
    return sol


def compute_F(seq) -> list[ScalarSeries]:
    """The chain F_0 = 1, D_{m_l} F_l = F_{l-1}, F_l(0) = 0, as F_0..F_r."""
    mseq = check_msequence(seq)
    big_n = mseq[-1]
    chain = [ScalarSeries.constant(1, big_n + CAP_PAD)]
    for m in mseq:
        chain.append(solve_Dm(m, big_n, chain[-1], 0))
    return chain


def c_table(seq, jmax: int) -> list[list[int]]:
    """The integer table c[j][l] for 0 <= j <= jmax, 0 <= l <= r.

    Seeds c[0][0] = 1, zero for j < l and for (l = 0, j >= 1); recursion
    c[j+1][l] = -(m_l - j)(N - m_l - j) c[j][l] + c[j][l-1].  The entries
    satisfy c[j][l] = (j!)^2 * [y^j] F_l.
    """
    mseq = check_msequence(seq)
    big_n = mseq[-1]
    if jmax < big_n:
        raise ValueError(f"jmax must be >= N = {big_n}, got {jmax}")
    r = len(mseq)
    rows = [[0] * (r + 1) for _ in range(jmax + 1)]
    rows[0][0] = 1
    for j in range(jmax):
        for l in range(1, r + 1):
            m = mseq[l - 1]
            rows[j + 1][l] = -(m - j) * (big_n - m - j) * rows[j][l] + rows[j][l - 1]
    return rows


@dataclass
class RecusolveReport:
    """Outcome of checking the degree and top coefficient of F_r, with the
    chain F_0..F_r that was checked."""

    seq: tuple[int, ...]
    big_n: int
    computed_degree: int
    computed_top: Fraction
    expected_top: Fraction
    observed_degrees: tuple[int, ...]
    passed: bool
    chain: list[ScalarSeries]


def verify_recusolve(seq) -> RecusolveReport:
    """Check that F_r has degree N and top coefficient
    1 / [N^2 * prod_{l<r} m_l (N - m_l)].

    Failure is reported, not raised.  Degrees of the intermediate F_l are
    recorded; only the bound deg F_l <= m_l is guaranteed for l < r.
    """
    mseq = check_msequence(seq)
    big_n = mseq[-1]
    chain = compute_F(mseq)
    denom = big_n * big_n
    for m in mseq[:-1]:
        denom *= m * (big_n - m)
    expected = Fraction(1, denom)
    top = chain[-1].y_coeff(big_n)
    degrees = tuple(f.degree() for f in chain)
    passed = degrees[-1] == big_n and top == expected
    return RecusolveReport(
        seq=mseq,
        big_n=big_n,
        computed_degree=degrees[-1],
        computed_top=top,
        expected_top=expected,
        observed_degrees=degrees,
        passed=passed,
        chain=chain,
    )
