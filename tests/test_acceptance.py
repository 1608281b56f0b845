"""Acceptance suite: one test per criterion, exact comparison throughout.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
all) and enforces the stated wall-clock budget.
"""

import time
from fractions import Fraction

from juhlkit import backends, exact_core, frobenius, juhl_core, nc_series, suites
from juhlkit.free_algebra import NCPoly


def _finish(num: int, description: str, ok: bool, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} {status} ({elapsed:.2f}s / budget {budget:.0f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_base_cases():
    started = time.perf_counter()
    yamabe = NCPoly({(1,): 1})
    paneitz = NCPoly({(2,): 1, (1, 1): 1})
    ok = (
        juhl_core.expand_P_explicit(1) == yamabe
        and juhl_core.expand_P_recursive(1) == yamabe
        and juhl_core.expand_P_explicit(2) == paneitz
        and juhl_core.expand_P_recursive(2) == paneitz
    )
    _finish(1, "P_2 = M_2 and P_4 = M_2^2 + M_4, explicit and recursive", ok, started, 1.0)


def test_criterion_2_full_iteration_suite():
    started = time.perf_counter()
    ok = True
    for n in range(1, 11):
        expected = NCPoly(
            {comp: exact_core.nbar_coeff(comp) for comp in exact_core.compositions_of(n)}
        )
        if nc_series.iterate_L_full(n) != expected:
            ok = False
            break
    _finish(2, "iterate_L_full(N) = sum nbar_I x_I for N <= 10", ok, started, 60.0)


def test_criterion_3_inversion_suite():
    started = time.perf_counter()
    ok = all(
        juhl_core.expand_P_explicit(n) == juhl_core.expand_P_recursive(n)
        for n in range(1, 12)
    ) and all(
        juhl_core.expand_Q_explicit(n) == juhl_core.expand_Q_recursive(n)
        for n in range(1, 11)
    )
    _finish(3, "explicit = recursive for P (N <= 11) and Q (N <= 10)", ok, started, 120.0)


def test_criterion_4_krattenthaler_suite():
    started = time.perf_counter()
    reports = suites.run_suites(["krattenthaler"], max_order=8)
    ok = all(rep.passed for rep in reports)
    _finish(
        4,
        "two-variable grid |K|<=7, X=Y form |K|<=8 b<=10, kcoeff=0 both paths "
        "|K|<=7 b<=5, telescope s<=8",
        ok,
        started,
        60.0,
    )


def test_criterion_5_frobenius_suite():
    started = time.perf_counter()
    reports = suites.run_suites(["frobenius"], max_order=9)
    ok = all(rep.passed for rep in reports)
    _finish(
        5,
        "deg P_m, P-symmetry, Q_0 top coefficient, c_{N,r} = nbar_I and the "
        "degree-N/top-coefficient claim for N <= 9",
        ok,
        started,
        60.0,
    )


def test_criterion_6_backend_cross_paths():
    started = time.perf_counter()
    reports = suites.run_suites(["backends"], max_order=6, seed=0)
    ok = all(rep.passed for rep in reports)
    _finish(
        6,
        "matrix backend (d=4, N<=6, 5 seeds) and Einstein backend "
        "(flat, unit-sphere anchors n in {3,4,5,6,8}, c in {0,1/2,-1/3})",
        ok,
        started,
        60.0,
    )


def test_criterion_7_key_identity_scalar_check():
    started = time.perf_counter()
    ok = True
    for n in (Fraction(3), Fraction(4), Fraction(5)):
        for c in (Fraction(0), Fraction(1, 2)):
            for gamma in (Fraction(0), 1 - n / 2):
                sides = backends.verify_dv_identity(
                    backends.EinsteinModel(n, c), gamma, kmax=4, cap=8
                )
                if any(lhs != rhs for lhs, rhs in sides):
                    ok = False
    _finish(
        7,
        "conjugated-Laplacian identity, flat and unit-sphere models, "
        "gamma in {0, 1-n/2}, inputs rho^k k<=4, cap 8",
        ok,
        started,
        10.0,
    )
