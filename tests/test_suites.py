"""Suite instances: what they carry and how much work a check repeats."""

import pickle

import pytest

from juhlkit import exact_core, frobenius, suites


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


def test_recusolve_report_carries_the_checked_chain():
    seq = (1, 3, 4)
    report = frobenius.verify_recusolve(seq)
    assert report.passed
    assert report.chain == frobenius.compute_F(seq)
