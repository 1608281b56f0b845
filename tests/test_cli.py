"""CLI contract: output schemas, determinism, exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from juhlkit import cli
from juhlkit import exact_core
from juhlkit import suites


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_tsv_order_two(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--N", "2"])
    assert code == 0
    assert out == "composition\tn\tm\tnbar\n2\t1\t1\t1\n1,1\t1\t-1\t1\n"


def test_constants_json_rows(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--N", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "juhl-kit/1"
    assert doc["rows"] == [
        {"composition": [2], "n": "1", "m": "1", "nbar": "1"},
        {"composition": [1, 1], "n": "1", "m": "-1", "nbar": "1"},
    ]


def test_constants_row_counts(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--N", "5", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 16
    code, out, _ = run_cli(capsys, ["constants", "--N", "1", "--format", "json"])
    assert len(json.loads(out)["rows"]) == 1


def test_expand_P_explicit_schema(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--target", "P", "--N", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "juhl-kit/1"
    assert doc["target"] == "P"
    assert doc["N"] == 2
    assert doc["form"] == "explicit"
    assert doc["basis"] == "M"
    assert doc["terms"] == [
        {"word": [2], "coeff": "1"},
        {"word": [1, 1], "coeff": "1"},
    ]


def test_expand_Q_explicit_order_one(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--target", "Q", "--N", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sign_convention"] == "(-1)^N Q"
    assert doc["terms"] == [{"word": [], "a": 1, "coeff": "4"}]


def test_expand_recursive_same_terms_as_explicit(capsys):
    _, explicit, _ = run_cli(capsys, ["expand", "--target", "P", "--N", "3"])
    _, recursive, _ = run_cli(
        capsys, ["expand", "--target", "P", "--N", "3", "--form", "recursive"]
    )
    de, dr = json.loads(explicit), json.loads(recursive)
    assert de["terms"] == dr["terms"]
    assert dr["form"] == "recursive"
    assert {k: v for k, v in de.items() if k != "form"} == {
        k: v for k, v in dr.items() if k != "form"
    }


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["constants", "--N", "6", "--format", "json"])
    _, second, _ = run_cli(capsys, ["constants", "--N", "6", "--format", "json"])
    assert first == second
    _, first, _ = run_cli(capsys, ["verify", "combinatorial", "--max-order", "3"])
    _, second, _ = run_cli(capsys, ["verify", "combinatorial", "--max-order", "3"])
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--N", "0"],
        ["constants", "--N", "x"],
        ["expand", "--target", "R", "--N", "2"],
        ["expand", "--target", "P", "--N", "2", "--form", "implicit"],
        ["verify", "nonsense"],
        ["einstein", "--dim", "4", "--c", "1/0"],
        [],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


def test_verify_small_suites_pass(capsys):
    code, out, err = run_cli(
        capsys, ["verify", "combinatorial", "inversion", "--max-order", "3"]
    )
    assert code == 0
    assert "[PASS] combinatorial" in out
    assert "[PASS] inversion" in out
    assert out.endswith("verify: all suites passed\n")
    assert "combinatorial:" in err  # timing goes to stderr


def test_verify_reports_counterexample_on_injected_fault(capsys, monkeypatch):
    # flip one closed-form coefficient; the brute-force iteration must disagree
    true_nbar = exact_core.nbar_coeff

    def corrupted(entries):
        value = true_nbar(entries)
        if tuple(entries) == (1, 1):
            return value + 1
        return value

    monkeypatch.setattr(exact_core, "nbar_coeff", corrupted)
    code, out, _ = run_cli(capsys, ["verify", "combinatorial", "--max-order", "2"])
    assert code == 1
    assert "FAIL" in out
    assert "full iteration N=2" in out
    assert "verify: " in out and "failure" in out


def test_verify_env_variable_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("JUHL_MAX_ORDER", "2")
    code, out, _ = run_cli(capsys, ["verify", "combinatorial"])
    assert code == 0
    assert "(N<=2)" in out


def test_bare_verify_runs_every_suite(capsys, monkeypatch):
    monkeypatch.setenv("JUHL_MAX_ORDER", "2")
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    for name in ("combinatorial", "inversion", "krattenthaler", "frobenius", "backends"):
        assert f"[PASS] {name} " in out
    assert out.endswith("verify: all suites passed\n")


@pytest.mark.parametrize(
    "raw, message",
    [
        ("abc", "JUHL_MAX_ORDER must be an integer, got 'abc'"),
        ("0", "JUHL_MAX_ORDER must be >= 1, got 0"),
        ("-3", "JUHL_MAX_ORDER must be >= 1, got -3"),
    ],
)
@pytest.mark.parametrize(
    "argv", [["verify", "inversion"], ["einstein", "--dim", "4", "--c", "1/2"]]
)
def test_bad_env_max_order_exits_two(capsys, monkeypatch, raw, message, argv):
    # both commands read JUHL_MAX_ORDER when --max-order is not given
    monkeypatch.setenv("JUHL_MAX_ORDER", raw)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(message)


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("juhlkit ")]


def test_readme_cli_block_is_read():
    assert len(_readme_cli_examples()) >= 6


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_exit_zero(capsys, monkeypatch, argv):
    monkeypatch.setenv("JUHL_MAX_ORDER", "2")
    code, _, _ = run_cli(capsys, argv)
    assert code == 0


def test_einstein_flat_table(capsys):
    code, out, _ = run_cli(
        capsys, ["einstein", "--dim", "4", "--c", "0", "--max-order", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N\tW\tQ\tregime"
    for line in lines[1:]:
        _, w, q, _ = line.split("\t")
        assert w == "0" and q == "0"


def test_einstein_sphere_q2_and_regime(capsys):
    code, out, _ = run_cli(
        capsys,
        ["einstein", "--dim", "4", "--c", "1/2", "--max-order", "3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert rows[0]["Q"] == "2"
    assert rows[0]["regime"] == "standard"
    assert rows[1]["regime"] == "standard"
    assert rows[2]["regime"] == "extension"


def test_einstein_rational_dimension(capsys):
    code, out, _ = run_cli(
        capsys,
        ["einstein", "--dim", "7/2", "--c=-1/3", "--max-order", "4", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(row["regime"] == "standard" for row in rows)
    assert rows[0]["Q"] == "-7/6"  # Q_2 = n*c = (7/2)(-1/3)


def test_einstein_mismatch_exits_one(capsys, monkeypatch):
    from juhlkit import backends

    true_oracle = backends.oracle_Q

    def corrupted(backend, order):
        value = true_oracle(backend, order)
        return (value[0] + 1,) if order == 2 else value

    monkeypatch.setattr(backends, "oracle_Q", corrupted)
    code, _, err = run_cli(capsys, ["einstein", "--dim", "5", "--c", "1/2", "--max-order", "3"])
    assert code == 1
    assert "mismatch at N=2" in err


dims = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
cs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**3),
)


@given(dim=dims, c=cs)
@settings(max_examples=40, deadline=None)
def test_einstein_rational_inputs_first_row(dim, c):
    # zero and negative rational dimensions, zero, negative and large c:
    # the formula/oracle check passes and W_2 = -n*c/4, Q_2 = n*c
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["einstein", f"--dim={dim}", f"--c={c}", "--max-order", "3", "--format", "json"])
    assert code == 0, err.getvalue()
    doc = json.loads(out.getvalue())
    assert (doc["n"], doc["c"]) == (str(dim), str(c))
    first = doc["rows"][0]
    assert first["N"] == 1
    assert Fraction(first["W"]) == -dim * c / 4
    assert Fraction(first["Q"]) == dim * c
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_verify_jobs_flag_matches_serial_output(capsys, suite):
    _, serial, _ = run_cli(capsys, ["verify", suite, "--max-order", "3"])
    _, parallel, _ = run_cli(
        capsys, ["verify", suite, "--max-order", "3", "--jobs", "2"]
    )
    assert serial == parallel


def _worker_exits():
    # module level, so a forked pool worker unpickles it by reference
    os._exit(3)


def test_verify_reports_a_dying_worker_as_failures(capsys, monkeypatch):
    plain = suites.build_suite

    def with_exiting_check(name, max_order, seed):
        note, instances = plain(name, max_order, seed)
        if name == "inversion":
            instances = [*instances, ("worker exits", _worker_exits, ())]
        return note, instances

    monkeypatch.setattr(suites, "build_suite", with_exiting_check)
    code, out, _ = run_cli(
        capsys, ["verify", "inversion", "krattenthaler", "--max-order", "2", "--jobs", "2"]
    )
    assert code == 1
    # the suite's one chunk got no result; the next suite runs in a new pool
    assert "[FAIL] inversion (P N<=2, Q N<=2): 5 instances, 5 failures\n" in out
    assert "  FAIL worker exits: worker process died\n" in out
    assert "[PASS] krattenthaler" in out
    assert out.endswith("verify: 5 failure(s)\n")


def test_verify_jobs_uses_one_pool_for_all_suites(capsys, monkeypatch):
    created = []

    class CountingPool(suites.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", CountingPool)
    code, out, _ = run_cli(
        capsys, ["verify", "inversion", "krattenthaler", "--max-order", "2", "--jobs", "2"]
    )
    assert code == 0
    assert "[PASS] inversion" in out and "[PASS] krattenthaler" in out
    assert len(created) == 1


def test_python_m_juhlkit_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("JUHL_MAX_ORDER", None)
    proc = subprocess.run(
        [sys.executable, "-m", "juhlkit", "verify", "--max-order", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verify: all suites passed\n")
