"""Suite instances: what they carry and how much work a check repeats."""

import pickle
from fractions import Fraction

import pytest

from juhlkit import backends, exact_core, frobenius, juhl_core, suites


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_instances_carry_picklable_check_functions(name):
    _, instances = suites.build_suite(name, 2, 0)
    for desc, check, args in instances:
        assert getattr(suites, check.__name__) is check
        assert pickle.loads(pickle.dumps((desc, check, args))) == (desc, check, args)
    assert suites._run_instance(instances[0]) == (instances[0][0], None)


def test_generating_chain_check_builds_each_chain_once(monkeypatch):
    calls = []
    plain = frobenius.compute_F

    def counting(seq):
        calls.append(tuple(seq))
        return plain(seq)

    monkeypatch.setattr(frobenius, "compute_F", counting)
    n = 6
    assert suites._ck_frob_recusolve(n) is None
    sequences = [exact_core.partial_sums(c) for c in exact_core.compositions_of(n)]
    assert len(sequences) == 2 ** (n - 1)
    assert len(set(sequences)) == len(sequences)
    assert sorted(calls) == sorted(sequences)


@pytest.mark.parametrize(
    "module, attr, fake, check, args, detail",
    [
        (juhl_core, "verify_kidenb", lambda comp, b: (1, 2), suites._ck_kidenb, ((1,), 1),
         "K=(1,), b=1: lhs 1 != rhs 2"),
        # s <= 1 and entries <= 1 leave K = (1, 1) as the only draw
        (juhl_core, "telescope_check", lambda comp: (1, 2), suites._ck_telescope, (0, 1, 1, 1),
         "K=(1, 1): lhs 1 != rhs 2"),
        (frobenius, "top_coefficient", lambda seq: Fraction(1, 2), suites._ck_frob_recusolve, (1,),
         "seq=(1,): degree 1 (want 1), top 1 (want 1/2)"),
        (backends, "verify_dv_identity", lambda model, gamma: [([0], [0]), ([0], [1]), ([0], [2])],
         suites._ck_dv_identity, (Fraction(3), Fraction(0), Fraction(0)),
         "n=3, c=0, gamma=0: k=1: lhs=[0] rhs=[1]"),
        (backends, "einstein_q_closed_form", lambda model, order: Fraction(7), suites._ck_einstein_paths,
         (Fraction(3), Fraction(1, 2), 2), "n=3, c=1/2, N=1: oracle -3/2 != closed form -7"),
    ],
    ids=["kidenb", "telescope", "generating-chain", "conjugation", "einstein-closed-form"],
)
def test_checks_report_both_sides_on_failure(monkeypatch, module, attr, fake, check, args, detail):
    monkeypatch.setattr(module, attr, fake)
    assert check(*args) == detail
