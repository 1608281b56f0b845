"""Verification suites driving every module invariant.

Each suite expands into a deterministic list of independent instances
(description, check function, arguments).  With more than one job the
instances run on forked workers, which inherit them: nothing is pickled,
and only each result, (index, detail, seconds), crosses a pipe back.
Aggregation preserves the input order, making reports deterministic
regardless of scheduling.
A check returns None on success or a failure string carrying the exact
computed and expected values.

A partial form, for a last part a, is read as its full form's right
quotient by x_a (``NCPoly.right_quotient``), in both suites that check one.
"""

from __future__ import annotations

import gc
import io
import itertools
import marshal
import math
import os
import random
import time
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from typing import NoReturn

from . import backends, exact_core, frobenius, juhl_core, nc_series
from .free_algebra import NCPoly

Instance = tuple[str, Callable[..., str | None], tuple]

SuiteFailure = namedtuple("SuiteFailure", "instance detail")


class SuiteReport(namedtuple("SuiteReport", "suite order_note instances failures wall_time")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# combinatorial suite: brute-force operator iteration vs closed forms


def _closed_form(ratio: Callable[[tuple], tuple[int, int]], n: int) -> NCPoly:
    """The sum over compositions I of n of ratio(I) x_I, from the integer
    (numerator, denominator) pairs of ``exact_core``."""
    return NCPoly._from_ratios({comp: ratio(comp) for comp in exact_core.compositions_of(n)})


def _ck_full_iteration(n: int) -> str | None:
    computed = nc_series.iterate_L_full(n)
    expected = _closed_form(exact_core.nbar_ratio, n)
    if computed != expected:
        return f"iterate_L_full({n}) = {computed!r}, closed form = {expected!r}"
    return None


def _ck_partial_iteration(n: int) -> str | None:
    """The full check restricted to the words that end in a, one failure
    message per a: the partial iteration and the partial closed form are
    both right quotients by x_a, of the cached full iteration and of the
    full closed form.  It adds no comparison to ``_ck_full_iteration``; it
    stays an instance only because ``perfbench``'s recorded digest of
    ``verify combinatorial --max-order 8`` pins the instance count."""
    closed = _closed_form(exact_core.nbar_ratio, n)
    for a in range(1, n + 1):
        part = nc_series.iterate_L_partial(n, a)
        expected = closed.right_quotient(a)
        if part != expected:
            return f"iterate_L_partial({n},{a}) = {part!r}, closed form = {expected!r}"
    return None


def _ck_l_bridge(n: int) -> str | None:
    # explicit M-expansion vs the s-variable iteration after x_M -> M/(M-1)!^2
    explicit = juhl_core.expand_P_explicit(n)
    full = nc_series.iterate_L_full(n)
    bridged = NCPoly._from_ratios({
        w[::-1]: (c, full._den * math.prod(exact_core.factorial(e - 1) for e in w) ** 2)
        for w, c in full._terms.items()
    })
    if explicit == bridged:
        return None
    for comp in exact_core.compositions_of(n):
        lhs, rhs = explicit.coeff(comp), bridged.coeff(comp)
        if lhs != rhs:
            return f"N={n}, I={comp}: explicit {lhs} != rescaled iteration {rhs}"
    return f"N={n}: explicit {explicit!r} != rescaled iteration {bridged!r}"


def suite_combinatorial(max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    order = max_order or 14
    out: list[Instance] = []
    for n in range(1, order + 1):
        out.append((f"full iteration N={n}", _ck_full_iteration, (n,)))
        out.append((f"partial-iteration N={n}", _ck_partial_iteration, (n,)))
    for n in range(1, order + 1):
        out.append((f"L-bridge N={n}", _ck_l_bridge, (n,)))
    return f"N<={order}", out


# ---------------------------------------------------------------------------
# inversion suite: explicit vs recursive expansions


def _ck_p_inversion(n: int) -> str | None:
    explicit = juhl_core.expand_P_explicit(n)
    recursive = juhl_core.expand_P_recursive(n)
    if explicit != recursive:
        return f"P expansions differ at N={n}: explicit {explicit!r}, recursive {recursive!r}"
    # one denominator per map: a word and its mirror agree iff their stored numerators do
    terms = explicit._terms
    for word, num in terms.items():
        if num != terms.get(word[::-1], 0):
            coeff, mirrored = explicit.coeff(word), explicit.coeff(word[::-1])
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


def suite_inversion(max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    order = max_order or 12
    out: list[Instance] = [(f"P inversion N={n}", _ck_p_inversion, (n,)) for n in range(1, order + 1)]
    out += [(f"Q inversion N={n}", _ck_q_inversion, (n,)) for n in range(1, order + 1)]
    return f"P N<={order}, Q N<={order}", out


# ---------------------------------------------------------------------------
# krattenthaler suite: the summation identities of the inversion argument

_GRID = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3))


def _ck_k_grid(comp: tuple[int, ...]) -> str | None:
    points = [(x, y) for x in _GRID for y in _GRID]
    for (x, y), (lhs, rhs) in zip(points, juhl_core.krattenthaler_identity(comp, points), strict=True):
        if lhs != rhs:
            return f"K={comp}, X={x}, Y={y}: lhs {lhs} != rhs {rhs}"
    return None


def _ck_kidenb(comp: tuple[int, ...], bmax: int) -> str | None:
    bs = range(1, bmax + 1)
    for b, (lhs, rhs) in zip(bs, juhl_core.verify_kidenb(comp, bs), strict=True):
        if lhs != rhs:
            return f"K={comp}, b={b}: lhs {lhs} != rhs {rhs}"
    return None


def _ck_kcoeff(comp: tuple[int, ...], bmax: int) -> str | None:
    bs = range(1, bmax + 1)
    literals = juhl_core.kcoeff(comp, bs)
    closed_forms = juhl_core.kcoeff_closed_form(comp, bs)
    for b, literal, closed in zip(bs, literals, closed_forms, strict=True):
        if literal:
            return f"K={comp}, b={b}: literal double sum = {literal} != 0"
        if closed:
            return f"K={comp}, b={b}: closed-form path = {closed} != 0"
    return None


def _ck_telescope(seed: int, count: int, smax: int, entry_max: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.randint(1, smax)
        comp = tuple(rng.randint(1, entry_max) for _ in range(s + 1))
        lhs, rhs = juhl_core.telescope_check(comp)
        if lhs != rhs:
            return f"K={comp}: lhs {lhs} != rhs {rhs}"
    return None


def suite_krattenthaler(max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    order = max_order or 10
    out: list[Instance] = []
    for total in range(2, order):
        for comp in exact_core.compositions_of(total):
            if len(comp) > 1:
                out.append((f"grid identity K={comp}", _ck_k_grid, (comp,)))
    for total in range(1, order + 1):
        for comp in exact_core.compositions_of(total):
            out.append((f"X=Y identity K={comp}", _ck_kidenb, (comp, 10)))
    for total in range(1, order):
        for comp in exact_core.compositions_of(total):
            out.append((f"vanishing coefficient K={comp}", _ck_kcoeff, (comp, 5)))
    out.append((f"telescoping identity (random, s<={order})", _ck_telescope, (20210405, 40, order, 5)))
    return f"|K|<={order}", out


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
        num, den = exact_core.nbar_ratio(comp)
        if got * den != num:
            return f"I={comp}: c[N][r] = {got} != nbar = {Fraction(num, den)}"
    return None


def _ck_frob_recusolve(n: int) -> str | None:
    # D_m F_l depends only on (m, F_l), which every sequence with the same
    # first l entries shares: apply D_m once per distinct pair and compare
    # the image with each sequence's own F_(l-1)
    images: dict[tuple, list] = {}
    for comp in exact_core.compositions_of(n):
        seq = exact_core.partial_sums(comp)
        chain = frobenius.compute_F(seq)
        deg = frobenius.degree(chain[-1])
        top = frobenius.y_coeff(chain[-1], n)
        want = frobenius.top_coefficient(seq)
        if deg != n or top != want:
            return f"seq={seq}: degree {deg} (want {n}), top {top} (want {want})"
        for l, m in enumerate(seq, start=1):
            series = chain[l]
            key = (m, tuple(series))
            if key not in images:
                images[key] = frobenius.apply_Dm(m, n, series)
            if images[key] != chain[l - 1]:
                return f"seq={seq}: D_(m_{l}) F_{l} != F_{l - 1}"
            if frobenius.degree(series) > m:
                return f"seq={seq}: deg F_{l} = {frobenius.degree(series)} > m_l = {m}"
            low = [j for j, v in enumerate(series) if v]
            if not low or low[0] != l or series[l] != 1:
                return f"seq={seq}: lowest normalized coefficient of F_{l} is not y^{l} with value 1"
    return None


def suite_frobenius(max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    order = max_order or 11
    out: list[Instance] = []
    for n in range(1, order + 1):
        out.append((f"series solutions N={n}", _ck_frob_jacobi, (n,)))
        out.append((f"coefficient table N={n}", _ck_frob_ctable, (n,)))
        out.append((f"generating chain N={n}", _ck_frob_recusolve, (n,)))
    return f"N<={order}", out


# ---------------------------------------------------------------------------
# backends suite: oracle iteration vs evaluated expansions


# The backends checks below compare the canonical pairs (numerators, den) of
# the backend kernels: two such pairs are equal exactly when their Fraction
# vectors are, so Fractions are made only to write a failure message.


def _ck_backend_matrix(seed: int, nmax: int, dim: int) -> str | None:
    backend = backends.MatrixAssignment.random(dim, nmax, seed)
    f = backends._ints(backend.f)
    basis = [([int(i == j) for j in range(dim)], 1) for i in range(dim)]
    for n in range(1, nmax + 1):
        expansion = juhl_core.expand_P_explicit(n)
        direct = backends._oracle_P(backend, n, f)
        closed = backends._evaluate_P(expansion, backend, f)
        if direct != closed:
            direct, closed = backends._fractions(*direct), backends._fractions(*closed)
            return f"seed={seed}, N={n}: oracle_P {direct} != evaluated expansion {closed}"
        q_direct = backends._oracle_Q(backend, n)
        q_closed = backends._evaluate_Q(juhl_core.expand_Q_explicit(n), backend)
        if q_direct != q_closed:
            q_direct, q_closed = backends._fractions(*q_direct), backends._fractions(*q_closed)
            return f"seed={seed}, N={n}: oracle_Q {q_direct} != evaluated expansion {q_closed}"
        # the images of the basis vectors are the operator matrix's columns
        columns = [backends._evaluate_P(expansion, backend, e) for e in basis]
        for i, (col_i, den_i) in enumerate(columns):
            if any(col_i[j] * den_j != col_j[i] * den_i for j, (col_j, den_j) in enumerate(columns[:i])):
                return f"seed={seed}, N={n}: evaluated operator matrix is not symmetric"
        # oracle_P_partial iterates to the sum over |I| = N-a of
        # n_{(I,a)} (a-1)!^2 (-2)^(a-1) x_I: the words of the expansion that end in a
        for a in range(1, n + 1):
            direct = backends._oracle_P_partial(backend, n, a, f)
            scale = exact_core.factorial(a - 1) ** 2 * (-2) ** (a - 1)
            closed = backends._evaluate_P(expansion.right_quotient(a) * scale, backend, f)
            if direct != closed:
                direct, closed = backends._fractions(*direct), backends._fractions(*closed)
                return f"seed={seed}, N={n}, a={a}: partial iteration {direct} != closed form {closed}"
    return None


def _ck_einstein_anchor(n: Fraction, nmax: int) -> str | None:
    # the flat model c = 0: every W_{2a} and every M_{2N}(1) up to the order vanish
    w_scalars, m_consts = backends.einstein_invariants(backends.EinsteinModel(n, Fraction(0)), nmax)
    for order in range(1, nmax + 1):
        for name, value in ((f"W_{2 * order}", w_scalars[order]), (f"M_{2 * order}(1)", m_consts[order])):
            if value:
                return f"n={n}: flat model {name} = {value} != 0"
    sphere = backends.EinsteinBackend(backends.EinsteinModel(n, Fraction(1, 2)), 1)
    (q2,), den = backends._evaluate_Q(juhl_core.expand_Q_explicit(1), sphere)
    if -q2 * 2 * n.denominator != n.numerator * den:
        return f"n={n}: unit sphere Q_2 = {Fraction(-q2, den)} != n/2 = {n / 2}"
    return None


def _gover_product(model: backends.EinsteinModel, order: int) -> Fraction:
    """(-1)^N P_{2N}(1) on the Einstein model by Gover's factorization
    (arXiv:math/0506037): prod_{j=1}^{N} 2c(n/2+j-1)(n/2-j), on integers
    with n/2 = a/b, b = 2 * n.denominator, and made a Fraction once."""
    a, b = model.n.numerator, 2 * model.n.denominator
    num = 1
    for j in range(1, order + 1):
        num *= 2 * model.c.numerator * (a + (j - 1) * b) * (a - j * b)
    return Fraction(num, (model.c.denominator * b * b) ** order)


def _ck_einstein_paths(n: Fraction, c: Fraction, nmax: int) -> str | None:
    model = backends.EinsteinModel(n, c)
    backend = backends.EinsteinBackend(model, nmax)
    one = ([1], 1)  # the backend's test vector f = (1,)
    for order in range(1, nmax + 1):
        direct = backends._oracle_Q(backend, order)
        closed = backends._formula_Q(backend, order)
        if direct != closed:
            direct, closed = backends._fractions(*direct)[0], backends._fractions(*closed)[0]
            return f"n={n}, c={c}, N={order}: oracle {direct} != formula {closed}"
        (q_num,), q_den = direct
        sign = (-1) ** order
        q_value = backends.einstein_q_closed_form(model, order)
        if q_num * q_value.denominator != sign * q_value.numerator * q_den:
            return f"n={n}, c={c}, N={order}: oracle {Fraction(q_num, q_den)} != closed form {sign * q_value}"
        # (-1)^N P_{2N}(1) by Branson's relation (n/2 - N) Q_{2N} and by Gover's factorization
        (p_num,), p_den = backends._formula_P(backend, order, one)
        p_num *= sign
        # (n/2 - N) Q = (n.numerator - 2N n.denominator) Q / (2 n.denominator)
        if p_num * 2 * n.denominator * q_value.denominator != (
            (n.numerator - 2 * order * n.denominator) * q_value.numerator * p_den
        ):
            signed_p, branson = Fraction(p_num, p_den), (n / 2 - order) * q_value
            return f"n={n}, c={c}, N={order}: (-1)^N P(1) {signed_p} != (n/2-N) Q {branson}"
        gover = _gover_product(model, order)
        if p_num * gover.denominator != gover.numerator * p_den:
            return f"n={n}, c={c}, N={order}: (-1)^N P(1) {Fraction(p_num, p_den)} != Gover product {gover}"
    return None


def _ck_dv_identity(n: Fraction, c: Fraction, gamma: Fraction, order: int) -> str | None:
    # psi = 1 reads M_{2(e+1)}(1) at rho^e, so cap = order - 1 reads every
    # constant up to the suite's order; below order 9 the cap stays at 8
    sides = backends._dv_sides(backends.EinsteinModel(n, c), gamma, 4, max(8, order - 1))
    for k, (lhs, rhs) in enumerate(sides):
        if lhs != rhs:
            lhs, rhs = list(backends._fractions(*lhs)), list(backends._fractions(*rhs))
            return f"n={n}, c={c}, gamma={gamma}: k={k}: lhs={lhs} rhs={rhs}"
    return None


EINSTEIN_DIMS = (Fraction(3), Fraction(4), Fraction(5), Fraction(6), Fraction(8))
EINSTEIN_CS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))


def suite_backends(max_order: int | None, seed: int) -> tuple[str, list[Instance]]:
    order = max_order or 8
    out: list[Instance] = []
    for s in range(seed, seed + 5):
        out.append((f"matrix cross-paths seed={s}", _ck_backend_matrix, (s, order, 4)))
    for n in EINSTEIN_DIMS:
        out.append((f"einstein anchors n={n}", _ck_einstein_anchor, (n, order)))
        for c in EINSTEIN_CS:
            out.append((f"einstein cross-paths n={n} c={c}", _ck_einstein_paths, (n, c, order)))
    for n in (Fraction(3), Fraction(4), Fraction(5)):
        for c in (Fraction(0), Fraction(1, 2)):
            for gamma in (Fraction(0), 1 - n / 2):
                out.append(
                    (f"conjugation identity n={n} c={c} gamma={gamma}", _ck_dv_identity, (n, c, gamma, order))
                )
    return f"N<={order}, seed={seed}", out


# each builder maps (max_order or None for its default, seed) to (note, instances)
SUITES = {
    "combinatorial": suite_combinatorial,
    "inversion": suite_inversion,
    "krattenthaler": suite_krattenthaler,
    "frobenius": suite_frobenius,
    "backends": suite_backends,
}
SUITE_NAMES = tuple(SUITES)


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
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if max_order is not None:
        exact_core.check_positive_int(max_order, "max_order must be a positive integer or None")
    return SUITES[name](max_order, seed)


def _worker(items: list[Instance], share: list[int], read_fd: int, write_fd: int) -> NoReturn:
    """A forked worker: one marshal record (index, detail, seconds) per
    instance of its share, flushed to the pipe as soon as the instance ends.
    It ends in ``os._exit``, so it never returns into the caller's stack."""
    code = 1
    try:
        os.close(read_fd)  # so that a write fails, not blocks, once the parent is gone
        with open(write_fd, "wb") as out:
            for index in share:
                start = time.perf_counter()
                detail = _run_instance(items[index])[1]  # by name at call time: a tracer may have wrapped it
                marshal.dump((index, detail, time.perf_counter() - start), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _drain(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _fork_round(items: list[Instance], shares: list[list[int]]) -> list[bytes]:
    """Fork one worker per share of ``items`` and return what each wrote to
    its pipe before it ended, share by share.  No worker outlives the call."""
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    outputs: list[bytes] = []
    # the inherited objects stay out of the workers' collections, so the
    # pages holding them are not copied
    gc.freeze()
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(items, share, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        for _, read_fd in children:
            outputs.append(_drain(read_fd))
    finally:
        gc.unfreeze()
        for pid, read_fd in children:
            os.close(read_fd)
            if len(outputs) < len(children):  # interrupted or failed: take every worker down
                import signal  # only here, to keep it out of the import

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outputs


def _records(data: bytes):
    """The (index, detail, seconds) records in one worker's output."""
    stream = io.BytesIO(data)
    while stream.tell() < len(data):
        try:
            yield marshal.load(stream)
        except (EOFError, ValueError):  # the partial last record of a worker that died writing it
            return


def _run_forked(items: list[Instance], workers: int) -> list[tuple[str | None, float, int]]:
    """Run ``items`` on forked workers and return (detail, seconds, worker)
    per instance, in input order.  Worker w of a round takes every
    ``workers``-th instance from the w-th.  The first instance of a share
    without a result killed its worker and reads ``worker process died``;
    the rest of that share runs in a new round."""
    results: dict[int, tuple[str | None, float, int]] = {}
    todo = list(range(len(items)))
    worker = 0  # numbers the workers of every round
    while todo:
        shares = [todo[w::workers] for w in range(min(workers, len(todo)))]
        todo = []
        for share, data in zip(shares, _fork_round(items, shares)):
            for index, detail, seconds in _records(data):
                results[index] = (detail, seconds, worker)
            missing = [index for index in share if index not in results]
            if missing:
                results[missing[0]] = ("worker process died", 0.0, worker)
                todo += missing[1:]
            worker += 1
        todo.sort()
    return [results[index] for index in range(len(items))]


def _report(name: str, note: str, instances: list[Instance], details, wall_time: float) -> SuiteReport:
    failures = [SuiteFailure(desc, detail) for (desc, _, _), detail in zip(instances, details) if detail is not None]
    return SuiteReport(name, note, len(instances), failures, wall_time)


def run_suites(
    names,
    max_order: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> list[SuiteReport]:
    """Run the named suites and return one deterministic report per suite.

    Every suite is built before any runs, so a bad name or order, or no
    name at all, raises first.  With ``jobs`` above 1, the instances of
    every suite run in one round of at most one forked worker per CPU, and
    a suite's ``wall_time`` is the most seconds one worker spent on its
    instances.  Without ``os.fork`` the suites run serially."""
    ordered: list[str] = []
    for name in names:
        ordered += SUITE_NAMES if name == "all" else (name,)
    if not ordered:
        raise ValueError(f"no suite named: name any of {', '.join(SUITE_NAMES)}, or all")
    built = [(name, *build_suite(name, max_order, seed)) for name in dict.fromkeys(ordered)]
    workers = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    reports = []
    if workers == 1:
        for name, note, instances in built:
            start = time.perf_counter()
            details = [_run_instance(item)[1] for item in instances]
            reports.append(_report(name, note, instances, details, time.perf_counter() - start))
        return reports
    outcomes = iter(_run_forked([item for _, _, instances in built for item in instances], workers))
    for name, note, instances in built:
        part = list(itertools.islice(outcomes, len(instances)))
        busy: dict[int, float] = {}
        for _, seconds, worker in part:
            busy[worker] = busy.get(worker, 0.0) + seconds
        reports.append(_report(name, note, instances, [detail for detail, _, _ in part], max(busy.values())))
    return reports
