"""Suite instances: what they carry and how much work a check repeats."""

import os
import pickle
import time
from fractions import Fraction

import pytest

from juhlkit import backends, cli, exact_core, frobenius, juhl_core, nc_series, suites
from juhlkit.free_algebra import NCPoly


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_instances_carry_picklable_check_functions(name):
    _, instances = suites.build_suite(name, 2, 0)
    for desc, check, args in instances:
        assert getattr(suites, check.__name__) is check
        assert pickle.loads(pickle.dumps((desc, check, args))) == (desc, check, args)
    assert suites._run_instance(instances[0]) == (instances[0][0], None)


def test_generating_chain_check_builds_each_chain_once(monkeypatch):
    # the coefficient-table and generating-chain checks of an order read one
    # prefix tree: one solve_Dm step per nonempty prefix, 2^N - 1 in all,
    # where each sequence used to build its own chain in each check
    calls = []
    plain = frobenius.solve_Dm
    monkeypatch.setattr(frobenius, "solve_Dm", lambda m, big_n, f, u0: calls.append(m) or plain(m, big_n, f, u0))
    n = 6
    frobenius.chain_tree.cache_clear()
    assert suites._ck_frob_ctable(n) is None
    assert suites._ck_frob_recusolve(n) is None
    assert len(calls) == 2**n - 1
    assert sorted(calls) == sorted(m for m in range(1, n + 1) for _ in range(2 ** (m - 1)))


def test_a_faulty_step_at_a_shared_prefix_fails_both_chain_checks(monkeypatch):
    # F_1 of the prefix (1,) is the parent of every sequence that starts at
    # 1: a wrong entry there reaches those sequences' F_r in the table check,
    # and the chain check names the faulty step itself at the first
    # sequence that reaches it
    plain = frobenius.solve_Dm

    def faulty(m, big_n, f, u0):
        out = plain(m, big_n, f, u0)
        return [out[0], out[1] + 1, *out[2:]] if m == 1 else out

    monkeypatch.setattr(frobenius, "solve_Dm", faulty)
    frobenius.chain_tree.cache_clear()
    try:
        table = suites._ck_frob_ctable(6)
        chain = suites._ck_frob_recusolve(6)
    finally:
        frobenius.chain_tree.cache_clear()
    assert table is not None and table.startswith("I=(1, 5): c[N][r] = ")
    assert chain == "seq=(1, 6): D_(m_1) F_1 != F_0"


def test_generating_chain_check_fails_on_a_shared_faulty_step(monkeypatch):
    # D_1 F_1 is the first step of every sequence that starts at 1
    plain = frobenius.apply_Dm

    def faulty(m, n, u):
        out = plain(m, n, u)
        return [out[0] + 1, *out[1:]] if m == 1 else out

    monkeypatch.setattr(frobenius, "apply_Dm", faulty)
    assert suites._ck_frob_recusolve(6) == "seq=(1, 6): D_(m_1) F_1 != F_0"


def test_generating_chain_check_applies_D_m_once_per_distinct_step(monkeypatch):
    n = 6
    steps, total = set(), 0
    for comp in exact_core.compositions_of(n):
        seq = exact_core.partial_sums(comp)
        chain = frobenius.compute_F(seq)
        steps |= {(m, tuple(chain[l])) for l, m in enumerate(seq, start=1)}
        total += len(seq)
    plain = frobenius.apply_Dm
    calls = []
    monkeypatch.setattr(frobenius, "apply_Dm", lambda m, big_n, u: calls.append((m, tuple(u))) or plain(m, big_n, u))
    assert suites._ck_frob_recusolve(n) is None
    assert len(calls) == len(steps) and set(calls) == steps
    assert len(steps) < total  # sequences share steps


def test_combinatorial_suite_iterates_each_order_once(monkeypatch):
    # the full iteration of order N starts from NCSeries.one(N); the full,
    # partial and L-bridge checks of an order share one cached iteration
    calls = []
    plain = nc_series.NCSeries.one

    def counting(cls, cap):
        calls.append(cap)
        return plain(cap)

    monkeypatch.setattr(nc_series.NCSeries, "one", classmethod(counting))
    nc_series.iterate_L_full.cache_clear()
    [report] = suites.run_suites(["combinatorial"], max_order=6)
    assert report.passed
    assert calls == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("n", [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(5), Fraction(8)])
def test_einstein_closed_forms_match_their_fraction_products(n):
    # the closed form multiplies integers into one Fraction; the reference
    # multiplies the Fraction factors as written.  Gover's product of
    # (-1)^N P_{2N}(1) is (n/2 - N) times it, the relation of Branson's that
    # the Einstein cross-path check compares, so that check compares no
    # Gover product
    for c in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(-5, 7)):
        model = backends.EinsteinModel(n, c)
        half = n / 2
        for order in range(1, 21):
            gover = Fraction(1)
            q = (2 * c) ** order
            for j in range(1, order + 1):
                gover *= 2 * c * (half + j - 1) * (half - j)
                q *= half + j - 1
            for j in range(1, order):
                q *= half - j
            closed = backends.einstein_q_closed_form(model, order)
            assert closed == q, (n, c, order)
            assert (half - order) * closed == gover, (n, c, order)


@pytest.mark.parametrize(
    "module, attr, fake, check, args, detail",
    [
        # the krattenthaler kernels return unreduced integer pairs
        (juhl_core, "_kidenb_sides", lambda comp, bs: [((2, 2), (-4, -2))], suites._ck_kidenb, ((1,), 1),
         "K=(1,), b=1: lhs 1 != rhs 2"),
        # each side reads the point back: the first point (0, 0) passes, the second (0, 1) fails
        (juhl_core, "_krattenthaler_sides", lambda comp, points: [((x.numerator, x.denominator),
         (y.numerator, y.denominator)) for x, y in points], suites._ck_k_grid, ((1, 1),),
         "K=(1, 1), X=0, Y=1: lhs 0 != rhs 1"),
        (juhl_core, "_kcoeff", lambda comp, bs: [(b - 1, 1) for b in bs], suites._ck_kcoeff, ((1, 2), 3),
         "K=(1, 2), b=2: literal double sum = 1 != 0"),
        (juhl_core, "_kcoeff_closed_form", lambda comp, bs: [(2 * b, 6) for b in bs], suites._ck_kcoeff,
         ((1, 2), 3), "K=(1, 2), b=1: closed-form path = 1/3 != 0"),
        # s <= 1 and entries <= 1 leave K = (1, 1) as the only draw
        (juhl_core, "_telescope_sides", lambda comp: ((1, 1), (2, 1)), suites._ck_telescope, (0, 1, 1, 1),
         "K=(1, 1): lhs 1 != rhs 2"),
        # F_1 of (1,) is the zero series
        (frobenius, "chain_tree", lambda n: {(): (1, 0, 0, 0), (1,): (0, 0, 0, 0)}, suites._ck_frob_recusolve, (1,),
         "seq=(1,): degree -1 (want 1)"),
        (backends, "_dv_sides", lambda model, gamma, kmax, cap: [(([0], 1), ([n], 1)) for n in range(3)],
         suites._ck_dv_identity, (Fraction(3), Fraction(0), Fraction(0), 8),
         "n=3, c=0, gamma=0: k=1: lhs=[Fraction(0, 1)] rhs=[Fraction(1, 1)]"),
        (backends, "einstein_q_closed_form", lambda model, order: Fraction(7), suites._ck_einstein_paths,
         (Fraction(3), Fraction(1, 2), 2), "n=3, c=1/2, N=1: oracle -3/2 != closed form -7"),
        # N=1 on n=3, c=1/2: (-1)^N P_2(1) = 3/4 = (n/2-N) Q_2
        (backends, "_formula_P", lambda backend, n, f: ([7], 1), suites._ck_einstein_paths,
         (Fraction(3), Fraction(1, 2), 2), "n=3, c=1/2, N=1: (-1)^N P(1) -7 != (n/2-N) Q 3/4"),
        (nc_series, "iterate_L_full", lambda n: NCPoly.from_word((1,), 2), suites._ck_full_iteration, (1,),
         "iterate_L_full(1) = NCPoly(2*x1), closed form = NCPoly(1*x1)"),
        # the partial at a = 1 is right; a = 2 is doubled
        (nc_series, "iterate_L_partial", lambda n, a, plain=nc_series.iterate_L_partial: plain(n, a) * a,
         suites._ck_partial_iteration, (2,), "iterate_L_partial(2,2) = NCPoly(2*1), closed form = NCPoly(1*1)"),
        # the partials are read off the full iteration, so a corrupted one shows there too
        (nc_series, "iterate_L_full", lambda n: NCPoly.from_word((1,), 2), suites._ck_partial_iteration, (1,),
         "iterate_L_partial(1,1) = NCPoly(2*1), closed form = NCPoly(1*1)"),
        # n_(2) = n_(1,1) = 1; the walk names the first composition that differs
        (juhl_core, "expand_P_explicit", lambda n: NCPoly({(2,): 1, (1, 1): Fraction(3, 4)}), suites._ck_l_bridge,
         (2,), "N=2, I=(1, 1): explicit 3/4 != rescaled iteration 1"),
        # (3,) rescales by 2!^2: nbar_(3) = 4 becomes 1
        (juhl_core, "expand_P_explicit", lambda n: NCPoly.from_word((2, 1), 2), suites._ck_l_bridge, (3,),
         "N=3, I=(3,): explicit 0 != rescaled iteration 1"),
        # entry N of F_r on the tree for I = (1,) against nbar_(1) = 1
        (frobenius, "chain_tree", lambda n: {(1,): (0, 0, 0, 0)}, suites._ck_frob_ctable, (1,),
         "I=(1,): c[N][r] = 0 != nbar = 1"),
    ],
    ids=["kidenb", "k-grid", "kcoeff-literal", "kcoeff-closed-form", "telescope", "generating-chain",
         "conjugation", "einstein-closed-form", "einstein-branson", "full-iteration",
         "partial-iteration", "partial-of-full-iteration", "l-bridge", "l-bridge-rescaled", "coefficient-table"],
)
def test_checks_report_both_sides_on_failure(monkeypatch, module, attr, fake, check, args, detail):
    monkeypatch.setattr(module, attr, fake)
    assert check(*args) == detail


def test_combinatorial_suite_runs_one_L_iteration_per_order(monkeypatch):
    # the partial iterations are right quotients of the cached full one: N
    # factors at each N, and no second L-run per (N, a)
    calls = []
    plain = nc_series.apply_L
    monkeypatch.setattr(nc_series, "apply_L", lambda k, u: calls.append(k) or plain(k, u))
    nc_series.iterate_L_full.cache_clear()
    try:
        assert all(report.passed for report in suites.run_suites(["combinatorial"], 8))
    finally:
        nc_series.iterate_L_full.cache_clear()
    assert len(calls) == sum(range(1, 9)) == 36


def test_partial_checks_never_write_the_cached_full_forms():
    # right_quotient builds a new dict: the cached iteration and expansion
    # each check reads keep their terms
    orders = range(1, 8)
    held = [(f, n, f(n), dict(f(n)._terms), f(n)._den)
            for f in (nc_series.iterate_L_full, juhl_core.expand_P_explicit) for n in orders]
    for n in orders:
        assert suites._ck_partial_iteration(n) is None
    assert suites._ck_backend_matrix(0, max(orders), 3) is None
    for f, n, tmap, terms, den in held:
        assert f(n) is tmap and tmap._terms == terms and tmap._den == den, (f.__name__, n)


@pytest.mark.parametrize(
    "literal, closed, detail",
    [
        ([0, 2, 0], [0, 0, 5], "K=(2,), b=2: literal double sum = 2 != 0"),
        ([0, 0, 3], [0, 4, 0], "K=(2,), b=2: closed-form path = 4 != 0"),
        ([0, 2, 0], [0, 4, 0], "K=(2,), b=2: literal double sum = 2 != 0"),
    ],
    ids=["literal-first-b", "closed-first-b", "same-b"],
)
def test_kcoeff_check_reports_by_b_then_literal_first(monkeypatch, literal, closed, detail):
    monkeypatch.setattr(juhl_core, "_kcoeff", lambda comp, bs: [(v, 1) for v in literal])
    monkeypatch.setattr(juhl_core, "_kcoeff_closed_form", lambda comp, bs: [(v, 1) for v in closed])
    assert suites._ck_kcoeff((2,), 3) == detail


def test_krattenthaler_checks_call_each_identity_once_per_instance(monkeypatch):
    calls = []
    for name in ("_krattenthaler_sides", "_kidenb_sides", "_kcoeff", "_kcoeff_closed_form"):
        def counting(comp, params, name=name, plain=getattr(juhl_core, name)):
            params = list(params)
            calls.append((name, comp, len(params)))
            return plain(comp, params)

        monkeypatch.setattr(juhl_core, name, counting)
    _, instances = suites.build_suite("krattenthaler", 5, 0)
    expected = {
        suites._ck_k_grid: [("_krattenthaler_sides", 16)],
        suites._ck_kidenb: [("_kidenb_sides", 10)],
        suites._ck_kcoeff: [("_kcoeff", 5), ("_kcoeff_closed_form", 5)],
    }
    checked = 0
    for desc, check, args in instances:
        if check in expected:
            calls.clear()
            assert check(*args) is None, desc
            assert calls == [(name, args[0], n) for name, n in expected[check]], desc
            checked += 1
    assert checked == len(instances) - 1  # all but the telescoping instance


def test_passing_krattenthaler_checks_make_no_fraction(monkeypatch):
    # the checks compare the kernels' integer pairs; a Fraction is made only
    # to write a failure message
    made = []
    plain = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or plain(cls, *args, **kw))
    _, instances = suites.build_suite("krattenthaler", 7, 0)
    assert all(check(*args) is None for _, check, args in instances)
    monkeypatch.undo()
    assert made == []


@pytest.mark.parametrize(
    "terms, detail",
    [
        ({(2, 1): Fraction(3, 4), (1, 2): Fraction(1, 4)}, "N=3: coeff((2, 1)) = 3/4 != coeff(reversed) = 1/4"),
        ({(1, 3): 2, (3, 1): 2, (1, 1, 2): Fraction(1, 3)}, "N=3: coeff((1, 1, 2)) = 1/3 != coeff(reversed) = 0"),
        ({(1, 3): Fraction(5, 6), (3, 1): Fraction(5, 6), (2,): -1}, None),
    ],
    ids=["mirror-differs", "mirror-missing", "symmetric"],
)
def test_mirror_check_reads_the_stored_numerators(monkeypatch, terms, detail):
    # both expansions return the same map, so only the mirror check can fail
    for name in ("expand_P_explicit", "expand_P_recursive"):
        monkeypatch.setattr(juhl_core, name, lambda n: NCPoly(terms))
    assert suites._ck_p_inversion(3) == detail


def test_conjugation_check_reads_every_m_constant(monkeypatch):
    # psi = 1 reaches M_{2(e+1)} at rho^e, so a fault in any constant up to
    # rho^cap (cap = max(8, suite order - 1)) must fail the instance: M_2..M_18
    # at the default suite order 8, M_2..M_24 at suite order 12.  The fault
    # adds 1 to a constant in the integer kernel the Einstein backend is built from
    plain = backends._einstein_kernel
    for suite_order, top in ((8, 9), (12, 12)):
        for order in range(1, top + 1):
            def perturbed(model, max_order, order=order):
                w_nums, w_den, m_nums, m_den = plain(model, max_order)
                m_nums = [x + m_den if i == order else x for i, x in enumerate(m_nums, 1)]
                return w_nums, w_den, m_nums, m_den

            monkeypatch.setattr(backends, "_einstein_kernel", perturbed)
            detail = suites._ck_dv_identity(Fraction(3), Fraction(1, 2), Fraction(0), suite_order)
            assert detail is not None and detail.startswith("n=3, c=1/2, gamma=0: k=0: "), (suite_order, order)


def test_flat_anchor_reads_the_flat_model_invariants(monkeypatch):
    # at c = 0 every W_{2a} is 0, so oracle_Q and evaluate_Q are 0 whatever
    # the M's are; the anchor has to read the invariants themselves
    plain = backends.einstein_invariants
    assert suites._ck_einstein_anchor(Fraction(4), 8) is None

    def shifted(model, max_order):
        w_scalars, m_consts = plain(model, max_order)
        return w_scalars, {k: v + 1 for k, v in m_consts.items()}

    monkeypatch.setattr(backends, "einstein_invariants", shifted)
    assert suites._ck_einstein_anchor(Fraction(4), 8) == "n=4: flat model M_2(1) = 1 != 0"


@pytest.mark.parametrize("max_order", [0, -1, True])
def test_a_bad_max_order_raises_before_any_instance_runs(monkeypatch, max_order):
    ran = []
    monkeypatch.setattr(suites, "_run_instance", ran.append)
    with pytest.raises(ValueError, match="max_order must be a positive integer"):
        suites.run_suites(list(suites.SUITE_NAMES), max_order=max_order)
    assert ran == []


def test_an_unknown_suite_raises_before_any_instance_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(suites, "_run_instance", ran.append)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(["inversion", "nope"], max_order=1)
    assert ran == []


def test_no_suite_named_raises_instead_of_passing(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(suites, "_run_instance", ran.append)
    with pytest.raises(ValueError, match="no suite named"):
        suites.run_suites([])
    with pytest.raises(ValueError, match="no suite named"):
        cli.cmd_verify([], None, 0, 1)
    assert ran == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cpus, jobs, workers", [(3, 64, 3), (8, 2, 2), (1, 64, None), (None, 4, None)])
def test_jobs_runs_at_most_one_worker_per_cpu(monkeypatch, cpus, jobs, workers):
    created = []

    def recording_dispatcher(items, workers):
        # records the worker count and runs in process, so no worker is started
        created.append(workers)
        return [(suites._run_instance(item)[1], 0.0, 0) for item in items]

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(suites, "_run_forked", recording_dispatcher)
    reports = suites.run_suites(["inversion", "krattenthaler"], max_order=2, jobs=jobs)
    assert [rep.passed for rep in reports] == [True, True]
    assert created == ([] if workers is None else [workers])


def _passes():
    return None


def _fails():
    return "computed 1 != expected 2"


def _kills_its_worker():
    os._exit(3)


def test_a_dying_worker_fails_only_its_instance_and_the_rest_of_its_share_runs_again():
    # two workers: the first takes 0, 2, 4, 6 and dies at 2; 4 and 6 run in a new round
    items = [("a", _passes, ()), ("b", _fails, ()), ("c", _kills_its_worker, ()), ("d", _passes, ())]
    items += [("e", _fails, ()), ("f", _passes, ()), ("g", _passes, ())]
    details = [detail for detail, _, _ in suites._run_forked(items, 2)]
    failed = "computed 1 != expected 2"
    assert details == [None, failed, "worker process died", None, failed, None, None]


def test_no_worker_is_left_after_a_forked_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = suites.run_suites(["inversion", "frobenius"], max_order=3, jobs=2)
    assert [rep.passed for rep in reports] == [True, True]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleeps():
    time.sleep(60)


def test_an_interrupted_round_kills_and_reaps_its_workers(monkeypatch):
    def interrupted(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(suites, "_drain", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        suites._run_forked([("sleeps", _sleeps, ())] * 2, 2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
