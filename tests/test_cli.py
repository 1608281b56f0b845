"""CLI contract: output schemas, determinism, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import operator
import os
import re
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from juhlkit import backends
from juhlkit import cli
from juhlkit import exact_core
from juhlkit import juhl_core
from juhlkit import suites


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tsv_of(rows):
    """The TSV of ``rows``: a header of the row keys, then one line per row,
    lists comma-joined."""

    def field(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    lines = ["\t".join(rows[0])] + ["\t".join(map(field, row.values())) for row in rows]
    return "".join(line + "\n" for line in lines)


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


@pytest.mark.parametrize("form", ["explicit", "recursive"])
@pytest.mark.parametrize("target", ["P", "Q"])
def test_expand_is_the_sorted_terms_document(capsys, target, form):
    # the coefficients print from the stored numerators; the public terms are Fractions
    for order in range(1, 9):
        expansion = getattr(juhl_core, f"expand_{target}_{form}")(order)
        if target == "P":
            terms = [{"word": list(w), "coeff": str(c)} for w, c in expansion.sorted_terms()]
        else:
            terms = [{"word": list(w), "a": a, "coeff": str(c)} for (w, a), c in expansion.sorted_terms()]
        code, out, _ = run_cli(capsys, ["expand", "--target", target, "--N", str(order), "--form", form])
        assert code == 0
        assert json.loads(out)["terms"] == terms


def test_expand_P_recursive_order_twelve_stdout_is_pinned(capsys):
    # sha256 recorded from the composition-by-composition recursion, before
    # the sum was regrouped into a table
    code, out, _ = run_cli(capsys, ["expand", "--target", "P", "--N", "12", "--form", "recursive"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5591e3422bc0e49cf02165d5207b494dd58ec96b0f33f7ef3483fdc04aed599a"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["expand", "--target", "P", "--N", "10", "--form", "recursive"],
            "822ad38e5e908b4bdad904726f962ae248a2954d8b6951fd80ccda10e8c521be",
        ),
        (
            ["expand", "--target", "Q", "--N", "9", "--form", "recursive"],
            "178e202f5933bf2d7ee2a2d7ec63bfb11671cabffae75675d505bc2322566b1b",
        ),
    ],
    ids=["P 10", "Q 9"],
)
def test_expand_deep_recursive_stdout_is_pinned(capsys, argv, digest):
    # the digests the benchmark's expand-deep workload checks
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--N", "4"],
        ["expand", "--target", "P", "--N", "4"],
        ["expand", "--target", "P", "--N", "4", "--form", "recursive"],
        ["expand", "--target", "Q", "--N", "3"],
        ["expand", "--target", "Q", "--N", "3", "--form", "recursive"],
        ["einstein", "--dim", "6", "--c", "1/2", "--max-order", "4"],
        ["einstein", "--dim", "0", "--c", "0", "--max-order", "3"],
        ["einstein", "--dim=-3/5", "--c=-7/3", "--max-order", "3"],
    ],
    ids=" ".join,
)
def test_tsv_is_the_json_rows(capsys, argv):
    # a header of the row keys, then one line per row: lists comma-joined
    code, tsv, _ = run_cli(capsys, [*argv, "--format", "tsv"])
    assert code == 0
    _, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    rows = json.loads(out)["terms" if argv[0] == "expand" else "rows"]
    assert tsv == tsv_of(rows)


@pytest.mark.parametrize(
    "argv",
    [["constants", "--N", str(n)] for n in range(1, 7)]
    + [
        ["expand", "--target", target, "--N", str(n), "--form", form]
        for target in ("P", "Q")
        for n in range(1, 7)
        for form in ("explicit", "recursive")
    ]
    + [
        ["einstein", "--dim", "4", "--c", "1/2", "--max-order", "6"],
        ["einstein", "--dim=7/2", "--c=-1/3", "--max-order", "8"],
        ["einstein", "--dim", "0", "--c", "0", "--max-order", "3"],
    ],
    ids=" ".join,
)
def test_json_stdout_is_json_dumps_of_itself(capsys, argv):
    # the producers' row fields, built from cli._PIECES, are the text
    # json.dumps(indent=2) writes; expand Q at N = 1 has the one word [] only
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("order", range(1, 15))
def test_constants_walks_the_compositions_in_order(capsys, order):
    # the prefix-product walk prints each composition of N once, in
    # compositions_of's order (length ascending, then lexicographic)
    code, tsv, _ = run_cli(capsys, ["constants", "--N", str(order)])
    assert code == 0
    column = [tuple(map(int, line.split("\t", 1)[0].split(","))) for line in tsv.splitlines()[1:]]
    assert column == exact_core.compositions_of(order)


@pytest.mark.parametrize("order", range(1, 13))
def test_constants_is_the_fraction_path_document(capsys, order):
    # the rows print from integer ratio pairs; the public coefficients are Fractions
    rows = [
        {
            "composition": list(comp),
            "n": str(exact_core.n_coeff(comp)),
            "m": str(exact_core.m_coeff(comp)),
            "nbar": str(exact_core.nbar_coeff(comp)),
        }
        for comp in exact_core.compositions_of(order)
    ]
    doc = {"schema": "juhl-kit/1", "N": order, "rows": rows}
    code, out, _ = run_cli(capsys, ["constants", "--N", str(order), "--format", "json"])
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"
    code, tsv, _ = run_cli(capsys, ["constants", "--N", str(order)])
    assert code == 0
    assert tsv == tsv_of(rows)


def test_constants_rows_stream_at_order_forty():
    # 2^39 rows: a walk that listed a level of prefixes or the table would
    # not reach its first rows before the alarm
    def timeout(signum, frame):
        raise TimeoutError("constants --N 40 did not yield its first rows in time")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        rows = list(itertools.islice(cli._constant_rows(40, "tsv"), 1000))
        json_rows = list(itertools.islice(cli._constant_rows(40, "json"), 1000))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    comps = (tuple(map(operator.sub, bounds[1:], bounds)) for bounds in exact_core.cut_bounds(0, 40))
    for row, json_row, comp in zip(rows, json_rows, comps):
        want = [list(comp), str(exact_core.n_coeff(comp)), str(exact_core.m_coeff(comp)), str(exact_core.nbar_coeff(comp))]
        assert list(row) == [",".join(map(str, comp)), *want[1:]]
        assert list(json_row) == [json.dumps(value, indent=2).replace("\n", "\n      ") for value in want]
    assert len(rows) == len(json_rows) == 1000


def test_constants_order_thirteen_stdout_is_pinned(capsys):
    # the digest the benchmark's expand-deep workload checks, recorded while
    # the document went through json.dumps
    code, out, _ = run_cli(capsys, ["constants", "--N", "13", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3467851dbcabb4d285f8a0e83429926232230ebe14d568992f6ecc440b6a2668"
    )


def emit(head, key, keys, rows, fmt):
    """``cli._emit``'s output, each value of ``rows`` passed as its text in
    the format: JSON's through ``json.dumps`` at the depth of a row field,
    TSV's through ``str``, a list comma-joined."""

    def field(value):
        if fmt == "json":
            return json.dumps(value, indent=2).replace("\n", "\n      ")
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit(head, key, keys, (tuple(map(field, row)) for row in rows), fmt) == 0
    return out.getvalue()


strings = st.one_of(st.text(), st.text(alphabet='ab"\\/\n\t\x00\x7fé€\U0001f600'))
row_values = st.one_of(strings, st.integers(), st.lists(st.integers(min_value=-(10**30), max_value=10**30)))
# the field names, then rows of that width
tables = st.lists(strings, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(st.just(tuple(keys)), st.lists(st.tuples(*[row_values] * len(keys)), max_size=4))
)


@given(head=st.dictionaries(strings, st.one_of(strings, st.integers()), max_size=4), key=strings, table=tables)
@example(head={}, key="rows", table=(("100%", "%s", "%%d"), [("%s", [], [1, 2])]))  # % in the row template
@settings(max_examples=200, deadline=None)
def test_emit_json_is_json_dumps(head, key, table):
    keys, rows = table
    head.pop(key, None)
    doc = {**head, key: [dict(zip(keys, row)) for row in rows]}
    assert emit(head, key, keys, iter(rows), "json") == json.dumps(doc, indent=2) + "\n"


@given(table=tables)
@example(table=(("word", "coeff"), []))  # no rows: the header alone
@settings(max_examples=100, deadline=None)
def test_emit_tsv_is_the_header_and_field_lines(table):
    keys, rows = table
    expected = ["\t".join(keys)] + [
        "\t".join(",".join(map(str, value)) if isinstance(value, list) else str(value) for value in row) for row in rows
    ]
    assert emit({"schema": "s"}, "rows", keys, iter(rows), "tsv") == "".join(line + "\n" for line in expected)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emit_writes_each_row_before_pulling_the_next(fmt):
    out = io.StringIO()
    pulled = []
    _, open_, close, _, quote = cli._PIECES[fmt]

    def rows():
        for i in range(4):
            # "tag" is the last field, so its text ends the previous row
            assert not pulled or f"row{pulled[-1]}" in out.getvalue()
            pulled.append(i)
            yield f"{open_}{i}{close}", f"{quote}row{i}{quote}"

    with contextlib.redirect_stdout(out):
        cli._emit({"schema": "s"}, "rows", ("word", "tag"), rows(), fmt)
    assert pulled == [0, 1, 2, 3]
    assert "row3" in out.getvalue()


def test_closed_stdout_ends_the_table_quietly():
    # the reader stops after one line, as ``| head -n 1`` does; the table at
    # N = 14 is far larger than a pipe buffer, so a later write meets the
    # closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "juhlkit", "constants", "--N", "14"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first == b"composition\tn\tm\tnbar\n"
    assert err == b""


TIMING_LINE = re.compile(rb"[a-z]+: [0-9]+\.[0-9]{2}s\n")
RUN_MAIN = "from juhlkit.cli import main; sys.exit(main(sys.argv[1:]))"


def _verify_process(args, stdout, code=RUN_MAIN):
    # unbuffered, so each report line is its own write to the pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("JUHL_MAX_ORDER", None)
    return subprocess.Popen(
        [sys.executable, "-u", "-c", f"import sys; {code}", "verify", *args],
        env=env, stdout=stdout, stderr=subprocess.PIPE,
    )


def test_verify_on_a_closed_stdout_exits_with_its_verdict():
    # the reader stops after one line, as ``| head -n 1`` does: the reports
    # exist before the first line, so a passing run still exits 0, and
    # stderr holds the timing lines only
    proc = _verify_process(["--max-order", "3"], subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first == b"[PASS] combinatorial (N<=3): 9 instances, 0 failures\n"
    assert all(TIMING_LINE.fullmatch(line) for line in err.splitlines(keepends=True))


@pytest.mark.parametrize(
    "code, verdict",
    [
        (RUN_MAIN, 0),
        (
            # flip one closed-form coefficient, as the in-process fault test does
            "from juhlkit import cli, exact_core; true = exact_core.nbar_int; "
            "exact_core.nbar_int = lambda c: true(c) + (c == (1, 1)); "
            "sys.exit(cli.main(sys.argv[1:]))",
            1,
        ),
    ],
    ids=["passing", "failing"],
)
def test_verify_before_its_first_line_meets_a_closed_stdout(code, verdict):
    # the read end closes before verify writes, so its first write meets the
    # closed pipe whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _verify_process(["combinatorial", "--max-order", "2"], write_end, code)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == verdict
    assert TIMING_LINE.fullmatch(err)


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
    true_nbar = exact_core.nbar_int

    def corrupted(comp):
        return true_nbar(comp) + (comp == (1, 1))

    monkeypatch.setattr(exact_core, "nbar_int", corrupted)
    # n_int reads nbar_int too: keep the corrupted explicit expansion out of the cache
    juhl_core.expand_P_explicit.cache_clear()
    try:
        code, out, _ = run_cli(capsys, ["verify", "combinatorial", "--max-order", "2"])
    finally:
        juhl_core.expand_P_explicit.cache_clear()
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

    true_oracle = backends._oracle_Q

    def corrupted(backend, order):
        vec, den = true_oracle(backend, order)
        return ([vec[0] + den], den) if order == 2 else (vec, den)

    monkeypatch.setattr(backends, "_oracle_Q", corrupted)
    code, out, err = run_cli(capsys, ["einstein", "--dim", "5", "--c", "1/2", "--max-order", "3"])
    assert code == 1
    assert out == ""
    assert err == "einstein: n=5, c=1/2, N=2: oracle 113/8 != formula 105/8\n"


def test_einstein_formula_mismatch_exits_one(capsys, monkeypatch):
    from juhlkit import backends

    true_formula = backends._formula_Q

    def corrupted(backend, order):
        vec, den = true_formula(backend, order)
        return ([vec[0] + den], den) if order == 2 else (vec, den)

    monkeypatch.setattr(backends, "_formula_Q", corrupted)
    code, out, err = run_cli(capsys, ["einstein", "--dim", "5", "--c", "1/2", "--max-order", "3"])
    assert code == 1
    assert out == ""
    assert err == "einstein: n=5, c=1/2, N=2: oracle 105/8 != formula 113/8\n"


def test_einstein_order_twelve_stdout_is_pinned(capsys):
    # sha256 recorded while the formula column was the evaluated 2^(N-1)-word
    # expansion, before it became the prefix sums
    code, out, _ = run_cli(capsys, ["einstein", "--dim", "7/2", "--c=-1/3", "--max-order", "12"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0071590a624372b6850532abb3aa2bd4c62c63ef468fe068691fc6917d5eb3b9"
    )


@pytest.mark.parametrize("dim, c, standard", [("4", "1/2", 2), ("7/2", "-1/3", 20)])
def test_einstein_order_twenty_rows_are_the_closed_form(capsys, dim, c, standard):
    # at n = 4 every Q_{2N} with N >= 3 is 0; at n = 7/2 none is
    from juhlkit import backends

    code, out, _ = run_cli(capsys, ["einstein", f"--dim={dim}", f"--c={c}", "--max-order", "20", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    model = backends.EinsteinModel(Fraction(dim), Fraction(c))
    assert [Fraction(row["Q"]) for row in rows] == [backends.einstein_q_closed_form(model, n) for n in range(1, 21)]
    assert [row["regime"] for row in rows] == ["standard"] * standard + ["extension"] * (20 - standard)


def test_einstein_closed_form_mismatch_exits_one(capsys, monkeypatch):
    from juhlkit import backends

    true_closed = backends.einstein_q_closed_form

    def corrupted(model, order):
        value = true_closed(model, order)
        return value + 1 if order == 2 else value

    monkeypatch.setattr(backends, "einstein_q_closed_form", corrupted)
    code, out, err = run_cli(capsys, ["einstein", "--dim", "5", "--c", "1/2", "--max-order", "3"])
    assert code == 1
    assert out == ""
    assert err == "einstein: n=5, c=1/2, N=2: oracle 105/8 != closed form 113/8\n"


# (-1)^N P_{2N}(1) on n=5, c=1/2 at N=2 is 105/16 = (n/2-N) Q_4;
# the table prints no P, so only the checks it runs can see these faults
@pytest.mark.parametrize(
    "module, attr, detail",
    [
        (backends, "_formula_P", "(-1)^N P(1) 121/16 != (n/2-N) Q 105/16"),
    ],
    ids=["branson"],
)
def test_einstein_p_side_mismatch_exits_one(capsys, monkeypatch, module, attr, detail):
    true_value = getattr(module, attr)

    def corrupted(*args):
        value = true_value(*args)
        if args[1] != 2:
            return value
        vec, den = value  # a kernel's (numerators, den) pair
        return [vec[0] + den], den

    monkeypatch.setattr(module, attr, corrupted)
    code, out, err = run_cli(capsys, ["einstein", "--dim", "5", "--c", "1/2", "--max-order", "3"])
    assert code == 1
    assert out == ""
    assert err == f"einstein: n=5, c=1/2, N=2: {detail}\n"


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


huge = st.integers(min_value=-(10**30), max_value=10**30)
huge_dens = st.integers(min_value=1, max_value=10**30)  # "p/-q" is a usage error


@given(p=huge, q=huge_dens, r=huge, s=huge_dens)
@example(p=10**30, q=10**30 - 1, r=-(10**30), s=7)
@example(p=-(10**30), q=1, r=0, s=10**30)
@settings(max_examples=40, deadline=None)
def test_einstein_huge_rational_inputs(p, q, r, s):
    # numerators and denominators up to 10^30, either sign of n and c: the
    # table prints (TSV equal to the JSON rows) or the check's message does,
    # and nothing raises; the long numbers go through the row template
    def run(fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["einstein", f"--dim={p}/{q}", f"--c={r}/{s}", "--max-order", "3", "--format", fmt])
        return code, out.getvalue(), err.getvalue()

    code, out, err = run("json")
    if code == 1:
        assert out == "" and err.startswith(f"einstein: n={Fraction(p, q)}, c={Fraction(r, s)}, N=")
        return
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["n"], doc["c"]) == (str(Fraction(p, q)), str(Fraction(r, s)))
    assert [row["N"] for row in doc["rows"]] == [1, 2, 3]
    assert run("tsv") == (0, tsv_of(doc["rows"]), "")


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_verify_jobs_flag_matches_serial_output(capsys, suite):
    _, serial, _ = run_cli(capsys, ["verify", suite, "--max-order", "3"])
    _, parallel, _ = run_cli(
        capsys, ["verify", suite, "--max-order", "3", "--jobs", "2"]
    )
    assert serial == parallel


def _worker_exits():
    os._exit(3)


def test_verify_reports_a_dying_worker_as_failures(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on one CPU
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
    # only the instance that killed its worker fails; the rest of that
    # worker's share, krattenthaler instances, runs in a new round
    assert "[FAIL] inversion (P N<=2, Q N<=2): 5 instances, 1 failures\n" in out
    assert "  FAIL worker exits: worker process died\n" in out
    assert "[PASS] krattenthaler" in out
    assert out.endswith("verify: 1 failure(s)\n")


def test_verify_jobs_uses_one_pool_for_all_suites(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on one CPU
    forks = []
    plain = os.fork

    def counting_fork():
        pid = plain()
        forks.append(pid)  # a worker appends to its own copy of the list
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    code, out, _ = run_cli(
        capsys, ["verify", "inversion", "krattenthaler", "--max-order", "2", "--jobs", "2"]
    )
    assert code == 0
    assert "[PASS] inversion" in out and "[PASS] krattenthaler" in out
    # one round of two workers for the instances of both suites
    assert len(forks) == 2


def test_verify_jobs_without_fork_runs_serially(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _, serial, _ = run_cli(capsys, ["verify", "inversion", "--max-order", "3"])
    monkeypatch.delattr(os, "fork")
    code, parallel, _ = run_cli(capsys, ["verify", "inversion", "--max-order", "3", "--jobs", "2"])
    assert code == 0
    assert parallel == serial


def test_verify_jobs_stdout_through_a_pipe_is_the_serial_stdout():
    # stdout is a pipe, so block-buffered: a worker that flushed the
    # buffer it inherited would print lines twice
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("JUHL_MAX_ORDER", None)
    outputs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "juhlkit", "verify", "--max-order", "3", "--jobs", jobs],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[1] == outputs[0]


def test_importing_the_cli_loads_no_pool_or_dataclass_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "pickle")
    code = f"import sys, juhlkit.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
