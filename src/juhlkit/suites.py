"""Verification suites driving every module invariant.

Each suite expands into a deterministic list of independent instances
(description, check function, arguments).  Instances are pure and
picklable (a module-level function pickles by reference), so they can fan
out across a process pool; aggregation preserves the input order, making
reports deterministic regardless of scheduling.
A check returns None on success or a failure string carrying the exact
computed and expected values.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from fractions import Fraction

from . import backends, exact_core, frobenius, juhl_core, nc_series
from .free_algebra import NCPoly, mat_is_symmetric

SUITE_NAMES = ("combinatorial", "inversion", "krattenthaler", "frobenius", "backends")

DEFAULT_ORDERS = {
    "combinatorial": 14,
    "inversion_p": 10,
    "inversion_q": 8,
    "krattenthaler": 9,
    "frobenius": 11,
    "backends": 8,
}

Instance = tuple[str, Callable[..., str | None], tuple]


@dataclass
class SuiteFailure:
    instance: str
    detail: str


@dataclass
class SuiteReport:
    suite: str
    order_note: str
    instances: int
    failures: list[SuiteFailure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# combinatorial suite: brute-force operator iteration vs closed forms


def _full_iteration_closed_form(n: int) -> NCPoly:
    return NCPoly({comp: exact_core.nbar_coeff(comp) for comp in exact_core.compositions_of(n)})


def _ck_full_iteration(n: int) -> str | None:
    computed = nc_series.iterate_L_full(n)
    expected = _full_iteration_closed_form(n)
    if computed != expected:
        return f"iterate_L_full({n}) = {computed!r}, closed form = {expected!r}"
    return None


def _ck_partial_iteration(n: int) -> str | None:
    full = nc_series.iterate_L_full(n)
    recombined = NCPoly.zero()
    for a in range(1, n + 1):
        part = nc_series.iterate_L_partial(n, a)
        if a == n:
            expected = NCPoly({(): exact_core.nbar_coeff((n,))})
        else:
            expected = NCPoly(
                {
                    comp: exact_core.nbar_coeff(comp + (a,))
                    for comp in exact_core.compositions_of(n - a)
                }
            )
        if part != expected:
            return f"iterate_L_partial({n},{a}) = {part!r}, closed form = {expected!r}"
        recombined = recombined + part * NCPoly.from_word((a,))
    if recombined != full:
        return f"sum_a partial({n},a)*x_a = {recombined!r} != full {full!r}"
    return None


def _ck_l_bridge(n: int) -> str | None:
    # explicit M-expansion vs the s-variable iteration after x_M -> M/(M-1)!^2
    explicit = juhl_core.expand_P_explicit(n)
    full = nc_series.iterate_L_full(n)
    for comp in exact_core.compositions_of(n):
        denom = 1
        for e in comp:
            denom *= exact_core.factorial(e - 1) ** 2
        lhs = explicit.coeff(comp)
        rhs = full.coeff(tuple(reversed(comp))) / denom
        if lhs != rhs:
            return f"N={n}, I={comp}: explicit {lhs} != rescaled iteration {rhs}"
    return None


def suite_combinatorial(max_order: int) -> list[Instance]:
    out: list[Instance] = []
    for n in range(1, max_order + 1):
        out.append((f"full iteration N={n}", _ck_full_iteration, (n,)))
        out.append((f"partial-iteration N={n}", _ck_partial_iteration, (n,)))
    for n in range(1, max_order + 1):
        out.append((f"L-bridge N={n}", _ck_l_bridge, (n,)))
    return out


# ---------------------------------------------------------------------------
# inversion suite: explicit vs recursive expansions


def _ck_p_inversion(n: int) -> str | None:
    explicit = juhl_core.expand_P_explicit(n)
    recursive = juhl_core.expand_P_recursive(n)
    if explicit != recursive:
        return f"P expansions differ at N={n}: explicit {explicit!r}, recursive {recursive!r}"
    for word, coeff in explicit.items():
        mirrored = explicit.coeff(tuple(reversed(word)))
        if coeff != mirrored:
            return f"N={n}: coeff({word}) = {coeff} != coeff(reversed) = {mirrored}"
    return None


def _ck_q_inversion(n: int) -> str | None:
    explicit = juhl_core.expand_Q_explicit(n)
    recursive = juhl_core.expand_Q_recursive(n)
    if explicit != recursive:
        return f"Q expansions differ at N={n}: explicit {explicit!r}, recursive {recursive!r}"
    if explicit.weights() != {n}:
        return f"Q expansion at N={n} not homogeneous: weights {sorted(explicit.weights())}"
    pure_w = explicit.coeff(((), n))
    expected = exact_core.factorial(n) * exact_core.factorial(n - 1) * 4**n
    if pure_w != expected:
        return f"N={n}: pure-W coefficient {pure_w} != N!(N-1)!2^(2N) = {expected}"
    return None


def suite_inversion(p_order: int, q_order: int) -> list[Instance]:
    out: list[Instance] = []
    for n in range(1, p_order + 1):
        out.append((f"P inversion N={n}", _ck_p_inversion, (n,)))
    for n in range(1, q_order + 1):
        out.append((f"Q inversion N={n}", _ck_q_inversion, (n,)))
    return out


# ---------------------------------------------------------------------------
# krattenthaler suite: the summation identities of the inversion argument

_GRID = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3))


def _ck_k_grid(comp: tuple[int, ...]) -> str | None:
    for x in _GRID:
        for y in _GRID:
            lhs, rhs = juhl_core.krattenthaler_identity(comp, x, y)
            if lhs != rhs:
                return f"K={comp}, X={x}, Y={y}: lhs {lhs} != rhs {rhs}"
    return None


def _ck_kidenb(comp: tuple[int, ...], bmax: int) -> str | None:
    for b in range(1, bmax + 1):
        check = juhl_core.verify_kidenb(comp, b)
        if not check.passed:
            return f"K={comp}, b={b}: lhs {check.lhs} != rhs {check.rhs}"
    return None


def _ck_kcoeff(comp: tuple[int, ...], bmax: int) -> str | None:
    for b in range(1, bmax + 1):
        literal = juhl_core.kcoeff(comp, b)
        if literal:
            return f"K={comp}, b={b}: literal double sum = {literal} != 0"
        closed = juhl_core.kcoeff_closed_form(comp, b)
        if closed:
            return f"K={comp}, b={b}: closed-form path = {closed} != 0"
    return None


def _ck_telescope(seed: int, count: int, smax: int, entry_max: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.randint(1, smax)
        comp = tuple(rng.randint(1, entry_max) for _ in range(s + 1))
        check = juhl_core.telescope_check(comp)
        if not check.passed:
            return f"K={comp}: lhs {check.lhs} != rhs {check.rhs}"
    return None


def suite_krattenthaler(max_order: int) -> list[Instance]:
    out: list[Instance] = []
    for total in range(2, max_order):
        for comp in exact_core.compositions_of(total):
            if len(comp) > 1:
                out.append((f"grid identity K={comp}", _ck_k_grid, (comp,)))
    for total in range(1, max_order + 1):
        for comp in exact_core.compositions_of(total):
            out.append((f"X=Y identity K={comp}", _ck_kidenb, (comp, 10)))
    for total in range(1, max_order):
        for comp in exact_core.compositions_of(total):
            out.append((f"vanishing coefficient K={comp}", _ck_kcoeff, (comp, 5)))
    out.append(
        (f"telescoping identity (random, s<={max_order})", _ck_telescope, (20210405, 40, max_order, 5))
    )
    return out


# ---------------------------------------------------------------------------
# frobenius suite: series solutions, generating chain, coefficient table


def _ck_frob_jacobi(n: int) -> str | None:
    zero = [0] * (n + frobenius.CAP_PAD + 1)
    for m in range(0, n + 1):
        p = frobenius.jacobi_P(m, n)
        if frobenius.degree(p) != min(m, n - m):
            return f"N={n}, m={m}: deg P = {frobenius.degree(p)} != {min(m, n - m)}"
        if frobenius.apply_Dm(m, n, p) != zero:
            return f"N={n}, m={m}: D_m P_m != 0"
        if p != frobenius.jacobi_P(n - m, n):
            return f"N={n}, m={m}: P_m != P_(N-m)"
        if 2 * m != n:
            q = frobenius.jacobi_Q(m, n)
            if frobenius.degree(q) > max(m, n - m):
                return f"N={n}, m={m}: deg Q = {frobenius.degree(q)} > {max(m, n - m)}"
            if frobenius.apply_Dm(m, n, q) != p:
                return f"N={n}, m={m}: D_m Q_m != P_m"
            if q != frobenius.jacobi_Q(n - m, n):
                return f"N={n}, m={m}: Q_m != Q_(N-m)"
    top = frobenius.y_coeff(frobenius.jacobi_Q(0, n), n)
    if top != Fraction(1, n * n):
        return f"N={n}: top coefficient of Q_0 = {top} != 1/N^2"
    return None


def _ck_frob_ctable(n: int) -> str | None:
    for comp in exact_core.compositions_of(n):
        seq = exact_core.partial_sums(comp)
        table = frobenius.c_table(seq, n)
        got = table[n][len(seq)]
        want = exact_core.nbar_coeff(comp)
        if got != want:
            return f"I={comp}: c[N][r] = {got} != nbar = {want}"
    return None


def _ck_frob_recusolve(n: int) -> str | None:
    for comp in exact_core.compositions_of(n):
        seq = exact_core.partial_sums(comp)
        report = frobenius.verify_recusolve(seq)
        if not report.passed:
            return (
                f"seq={seq}: degree {report.computed_degree} (want {n}), "
                f"top {report.computed_top} (want {report.expected_top})"
            )
        chain = report.chain
        table = frobenius.c_table(seq, n)
        for l, m in enumerate(seq, start=1):
            series = chain[l]
            if frobenius.apply_Dm(m, n, series) != chain[l - 1]:
                return f"seq={seq}: D_(m_{l}) F_{l} != F_{l - 1}"
            if frobenius.degree(series) > m:
                return f"seq={seq}: deg F_{l} = {frobenius.degree(series)} > m_l = {m}"
            for j in range(n + 1):
                if series[j] != table[j][l]:
                    return (
                        f"seq={seq}: (j!)^2 [y^{j}] F_{l} = {series[j]}"
                        f" != c[{j}][{l}] = {table[j][l]}"
                    )
            low = [j for j, v in enumerate(series) if v]
            if not low or low[0] != l or series[l] != 1:
                return f"seq={seq}: lowest normalized coefficient of F_{l} is not y^{l} with value 1"
    return None


def suite_frobenius(max_order: int) -> list[Instance]:
    out: list[Instance] = []
    for n in range(1, max_order + 1):
        out.append((f"series solutions N={n}", _ck_frob_jacobi, (n,)))
        out.append((f"coefficient table N={n}", _ck_frob_ctable, (n,)))
        out.append((f"generating chain N={n}", _ck_frob_recusolve, (n,)))
    return out


# ---------------------------------------------------------------------------
# backends suite: oracle iteration vs evaluated expansions


def _ck_backend_matrix(seed: int, nmax: int, dim: int) -> str | None:
    backend = backends.MatrixAssignment.random(dim, nmax, seed)
    f = backend.f
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for n in range(1, nmax + 1):
        expansion = juhl_core.expand_P_explicit(n)
        direct = backends.oracle_P(backend, n, f)
        closed = backends.evaluate_P(expansion, backend, f)
        if direct != closed:
            return f"seed={seed}, N={n}: oracle_P {direct} != evaluated expansion {closed}"
        q_direct = backends.oracle_Q(backend, n)
        q_closed = backends.evaluate_Q(juhl_core.expand_Q_explicit(n), backend)
        if q_direct != q_closed:
            return f"seed={seed}, N={n}: oracle_Q {q_direct} != evaluated expansion {q_closed}"
        # the images of the basis vectors are the operator matrix's columns
        columns = tuple(backends.evaluate_P(expansion, backend, e) for e in basis)
        if not mat_is_symmetric(columns):
            return f"seed={seed}, N={n}: evaluated operator matrix is not symmetric"
        for a in range(1, n + 1):
            direct = backends.oracle_P_partial(backend, n, a, f)
            scale = Fraction(exact_core.factorial(a - 1) ** 2 * (-2) ** (a - 1))
            if a == n:
                closed = tuple(scale * x for x in f)
            else:
                shifted = NCPoly(
                    {
                        comp: exact_core.n_coeff(comp + (a,))
                        for comp in exact_core.compositions_of(n - a)
                    }
                )
                closed = tuple(scale * x for x in backends.evaluate_P(shifted, backend, f))
            if direct != closed:
                return f"seed={seed}, N={n}, a={a}: partial iteration {direct} != closed form {closed}"
    return None


def _ck_einstein_anchor(n: Fraction, nmax: int) -> str | None:
    flat = backends.EinsteinBackend(backends.EinsteinModel(n, Fraction(0)), nmax)
    for order in range(1, nmax + 1):
        if any(backends.oracle_Q(flat, order)):
            return f"n={n}: flat model has nonzero Q at N={order}"
        if any(backends.evaluate_Q(juhl_core.expand_Q_explicit(order), flat)):
            return f"n={n}: flat model explicit Q nonzero at N={order}"
    sphere = backends.EinsteinBackend(backends.EinsteinModel(n, Fraction(1, 2)), 1)
    q2 = -backends.evaluate_Q(juhl_core.expand_Q_explicit(1), sphere)[0]
    if q2 != n / 2:
        return f"n={n}: unit sphere Q_2 = {q2} != n/2 = {n / 2}"
    return None


def _ck_einstein_paths(n: Fraction, c: Fraction, nmax: int) -> str | None:
    backend = backends.EinsteinBackend(backends.EinsteinModel(n, c), nmax)
    for order in range(1, nmax + 1):
        direct = backends.oracle_Q(backend, order)[0]
        closed = backends.evaluate_Q(juhl_core.expand_Q_explicit(order), backend)[0]
        if direct != closed:
            return f"n={n}, c={c}, N={order}: oracle {direct} != formula {closed}"
    return None


def _ck_dv_identity(n: Fraction, c: Fraction, gamma: Fraction) -> str | None:
    report = backends.verify_dv_identity(backends.EinsteinModel(n, c), gamma)
    if not report.passed:
        return f"n={n}, c={c}, gamma={gamma}: {report.failures[0]}"
    return None


EINSTEIN_DIMS = (Fraction(3), Fraction(4), Fraction(5), Fraction(6), Fraction(8))
EINSTEIN_CS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))


def suite_backends(max_order: int, seed: int) -> list[Instance]:
    out: list[Instance] = []
    for s in range(seed, seed + 5):
        out.append((f"matrix cross-paths seed={s}", _ck_backend_matrix, (s, max_order, 4)))
    for n in EINSTEIN_DIMS:
        out.append((f"einstein anchors n={n}", _ck_einstein_anchor, (n, max_order)))
        for c in EINSTEIN_CS:
            out.append((f"einstein cross-paths n={n} c={c}", _ck_einstein_paths, (n, c, max_order)))
    for n in (Fraction(3), Fraction(4), Fraction(5)):
        for c in (Fraction(0), Fraction(1, 2)):
            for gamma in (Fraction(0), 1 - n / 2):
                out.append(
                    (f"conjugation identity n={n} c={c} gamma={gamma}", _ck_dv_identity, (n, c, gamma))
                )
    return out


# ---------------------------------------------------------------------------
# execution

def _run_instance(item: Instance) -> tuple[str, str | None]:
    desc, check, args = item
    try:
        return desc, check(*args)
    except Exception as exc:  # a raised error is an instance failure, not a crash
        return desc, f"raised {exc!r}"


def build_suite(name: str, max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    """Instance list plus a short note naming the order bound in effect."""
    if name == "combinatorial":
        order = max_order or DEFAULT_ORDERS["combinatorial"]
        return f"N<={order}", suite_combinatorial(order)
    if name == "inversion":
        p_order = max_order or DEFAULT_ORDERS["inversion_p"]
        q_order = max_order or DEFAULT_ORDERS["inversion_q"]
        return f"P N<={p_order}, Q N<={q_order}", suite_inversion(p_order, q_order)
    if name == "krattenthaler":
        order = max_order or DEFAULT_ORDERS["krattenthaler"]
        return f"|K|<={order}", suite_krattenthaler(order)
    if name == "frobenius":
        order = max_order or DEFAULT_ORDERS["frobenius"]
        return f"N<={order}", suite_frobenius(order)
    if name == "backends":
        order = max_order or DEFAULT_ORDERS["backends"]
        return f"N<={order}, seed={seed}", suite_backends(order, seed)
    raise ValueError(f"unknown suite {name!r}")


def run_suites(
    names,
    max_order: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> list[SuiteReport]:
    """Run the named suites and return one deterministic report per suite."""
    ordered: list[str] = []
    for name in names:
        expansion = list(SUITE_NAMES) if name == "all" else [name]
        for item in expansion:
            if item not in SUITE_NAMES:
                raise ValueError(f"unknown suite {item!r}")
            if item not in ordered:
                ordered.append(item)
    reports = []
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for name in ordered:
            note, instances = build_suite(name, max_order, seed)
            start = time.perf_counter()
            if pool is None:
                results = [_run_instance(item) for item in instances]
            else:
                results = []
                try:
                    for result in pool.map(_run_instance, instances, chunksize=8):
                        results.append(result)
                except BrokenProcessPool:
                    # a worker died: every instance without a result fails,
                    # and the next suite gets a new pool
                    results += [(desc, "worker process died") for desc, _, _ in instances[len(results):]]
                    pool.shutdown()
                    pool = ProcessPoolExecutor(max_workers=jobs)
            failures = [SuiteFailure(desc, detail) for desc, detail in results if detail is not None]
            reports.append(
                SuiteReport(
                    suite=name,
                    order_note=note,
                    instances=len(instances),
                    failures=failures,
                    wall_time=time.perf_counter() - start,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return reports
