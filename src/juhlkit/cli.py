"""Command-line front end.

Subcommands: ``constants`` (coefficient tables), ``expand`` (operator and
Q-curvature expansions), ``verify`` (identity suites), ``einstein`` (exact
table for the one-parameter Einstein family, printed only once the backends
suite's Einstein cross-path check has passed at every order, else that
check's failure message on stderr).  Each table prints as one indented JSON
document or, with ``--format tsv``, as that document's rows.  ``_emit``
takes a table's field names once and its rows as tuples of fields that are
already text in the table's format, each list, string and integer built
from the format's pieces in ``_PIECES``, and writes each row with one
``%`` as it is produced, so ``constants`` and ``expand`` never hold the
whole 2^(N-1)-row document.  ``constants`` walks the compositions without
listing them, visiting each prefix once with its text and running products,
from which each row's text and coefficients follow: n_I and nbar_I as exact
integer quotients (n_I is a product of binomials), m_I as a reduced ratio.

All rationals are serialized as exact strings "p/q", never floats.  Stdout
is byte-deterministic for identical invocations; wall-clock timing goes to
stderr.  Exit codes: 0 success, 1 identity failure, 2 usage error.  When
the reader closes stdout early, as ``| head`` does, a table stops and exits
0, and ``verify``, whose reports all exist before its first line prints,
exits with its verdict; neither writes to stderr beyond verify's timing.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from . import backends, exact_core, juhl_core, suites

SCHEMA = "juhl-kit/1"
ENV_MAX_ORDER = "JUHL_MAX_ORDER"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact rational like 1/2, got {text!r}")


def _suite_name(text: str) -> str:
    # a type check, not ``choices``: argparse would test the list default
    # ["all"] against ``choices`` as one value and reject it
    names = (*suites.SUITE_NAMES, "all")
    if text not in names:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(names)})")
    return text


def _env_max_order(parser: argparse.ArgumentParser) -> int | None:
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        parser.error(f"{ENV_MAX_ORDER} must be an integer, got {raw!r}")
    if value < 1:
        parser.error(f"{ENV_MAX_ORDER} must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juhlkit",
        description="Exact engine for Juhl's explicit and recursive GJMS/Q-curvature formulae.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="coefficient table n_I, m_I, nbar_I at order N")
    p_const.add_argument("--N", dest="order", type=_positive_int, required=True)
    p_const.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_exp = sub.add_parser("expand", help="operator or Q-curvature expansion")
    p_exp.add_argument("--target", choices=("P", "Q"), required=True)
    p_exp.add_argument("--N", dest="order", type=_positive_int, required=True)
    p_exp.add_argument("--form", choices=("explicit", "recursive"), default="explicit")
    p_exp.add_argument("--format", choices=("json", "tsv"), default="json")

    p_ver = sub.add_parser("verify", help="run identity suites")
    p_ver.add_argument(
        "suites",
        nargs="*",
        type=_suite_name,
        default=["all"],
        help=f"suites to run: {', '.join(suites.SUITE_NAMES)} or all (default: all)",
    )
    p_ver.add_argument("--max-order", type=_positive_int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=_positive_int, default=1)

    p_ein = sub.add_parser("einstein", help="exact W/Q table for the Einstein family")
    p_ein.add_argument("--dim", type=_rational, required=True, help="dimension n (rational allowed)")
    p_ein.add_argument("--c", type=_rational, required=True, help="family parameter in g_rho=(1+c*rho)^2 g")
    p_ein.add_argument("--max-order", type=_positive_int, default=None)
    p_ein.add_argument("--format", choices=("tsv", "json"), default="tsv")

    return parser


# the pieces a row producer builds its fields from, per format: the item
# separator, a list's open and close (JSON puts each item on its own line at
# the depth json.dumps(indent=2) gives it), the empty list, the string quote
_PIECES = {
    "json": (",\n        ", "[\n        ", "\n      ]", "[]", '"'),
    "tsv": (",", "", "", "", ""),
}


def _emit(head: dict, rows_key: str, keys: tuple[str, ...], rows, fmt: str) -> int:
    """Write a table to stdout one row at a time, as the iterable ``rows``
    yields them.  The field names ``keys`` (unique) come once per table, and
    each row is a tuple of its fields in their order, each already its
    value's text in ``fmt``, built from ``_PIECES[fmt]``: a list as its
    items joined by the separator between the list open and close, or the
    empty list; a string between two quotes; an integer as its digits (an
    ``int`` itself will do).  Every string a producer quotes (a rational,
    an integer, ``standard`` or ``extension``) is text that JSON quotes
    without escapes, so the two quotes alone make its JSON form.

    JSON is the document ``{**head, rows_key: [dict(zip(keys, row)) for row
    in rows]}``, byte-identical to ``json.dumps(doc, indent=2)`` and a
    newline for head values of ``str`` or ``int``; each row is one ``%`` of
    a template built from the field names once per table.  TSV is a header
    of ``keys``, alone when there are no rows, then one ``%`` per row.
    """
    write = sys.stdout.write  # at call time: callers swap sys.stdout
    if fmt == "tsv":
        write("\t".join(keys) + "\n")
        line = "\t".join(["%s"] * len(keys)) + "\n"
        for row in rows:
            write(line % row)
        return 0
    write("{\n")
    for key, value in head.items():
        value = encode_basestring_ascii(value) if isinstance(value, str) else value
        write(f"  {encode_basestring_ascii(key)}: {value},\n")
    write(f"  {encode_basestring_ascii(rows_key)}: [")
    fields = ",\n".join(f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    template = "\n    {\n" + fields + "\n    }"
    after_first = "," + template
    for row in rows:
        write(template % row)
        template = after_first
    write("\n  ]\n}\n" if template is after_first else "]\n}\n")
    return 0


def _ratio_text(num: int, den: int, quote: str) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, without the
    Fraction, between two ``quote``s."""
    g = gcd(num, den)
    return f"{quote}{num // g}/{den // g}{quote}" if den != g else f"{quote}{num // g}{quote}"


def _constant_rows(order: int, fmt: str):
    """The rows of ``constants`` as ``_emit`` takes them in ``fmt``: each
    composition I of ``order``, in ``exact_core.compositions_of``'s order,
    as a list, with n_I, m_I and nbar_I as strings.

    exact_core's n_ratio, m_ratio and nbar_ratio in one pass: with
    H = prod_{j<r} h_j (N-h_j) over the heads h_j = I_1+...+I_j,
    F = prod_j (I_j-1)!^2 and G = prod_j I_j * prod_{j<r} (I_j+I_{j+1}),
    nbar_I = (N-1)!^2 / H, n_I = nbar_I / F and
    m_I = (-1)^(r+1) N (N-1)!^2 / (F G).
    n_I is the integer prod_j C(S_j-1, I_j-1) C(T_j-1, I_j-1) over the
    prefix sums S_j = I_1+...+I_j and suffix sums T_j = I_j+...+I_r (the
    product of (S_j-1)!/S_{j-1}! telescopes to (N-1)!/prod_{j<r} S_j, and
    likewise for T), so n_I and nbar_I = n_I F print as exact integer
    quotients; m_I, whose integrality is unproven, prints as a reduced
    ratio.
    For each length r, the prefixes of the r-2 parts before the last two
    come in lexicographic order from a chain of r-2 generators, each
    extending its parent's prefixes by one part, and each prefix carries
    its text (the list open, then each part followed by the separator), its
    last part, its head and its running products of H, F and G.  The last
    two parts a, b of a row depend on its prefix only through their sum, so
    their text (ending in the list close) and their factors of H, F and G
    are tabulated once per sum; a row multiplies its prefix's products by
    its tail's factors and appends the tail's text to the prefix's.  Only
    one prefix per level is live, so the rows stream.
    """
    sep, open_, close, _, q = _PIECES[fmt]
    fact2 = [exact_core.factorial(i) ** 2 for i in range(order)]
    nbar_num = fact2[order - 1]
    m_num = order * nbar_num
    # for each rest = a + b, the last two parts a, b: their text, a, and their
    # factors of H (the head N - b times b), F and G (a b (a + b), less the
    # factor a + last that links them to a prefix's last part)
    tails = [
        [
            (f"{a}{sep}{b}{close}", a, (order - b) * b, fact2[a - 1] * fact2[b - 1], a * b * rest)
            for a, b in zip(range(1, rest), range(rest - 1, 0, -1))
        ]
        for rest in range(order + 1)
    ]

    def grow(prefixes, after: int):
        # each prefix extended by a part e that leaves room for ``after`` more parts
        for text, last, head, h_prod, f_prod, g_prod in prefixes:
            for e in range(1, order - head - after + 1):
                h = head + e
                yield (
                    f"{text}{e}{sep}",
                    e,
                    h,
                    h_prod * h * (order - h),
                    f_prod * fact2[e - 1],
                    g_prod * e * (last + e) if last else e,
                )

    yield f"{open_}{order}{close}", f"{q}1{q}", f"{q}1{q}", f"{q}{nbar_num}{q}"  # I = (N): F = (N-1)!^2, no heads
    for r in range(2, order + 1):
        m_num = -m_num
        prefixes = [(open_, 0, 0, 1, 1, 1)]  # the empty prefix has no last part
        for k in range(r - 2):
            prefixes = grow(prefixes, r - k - 1)
        for text, last, head, h_prod, f_prod, g_prod in prefixes:
            for tail, a, h_tail, f_tail, g_tail in tails[order - head]:
                hp = h_prod * h_tail
                fp = f_prod * f_tail
                gp = g_prod * g_tail * (last + a) if last else g_tail
                yield (
                    text + tail,
                    f"{q}{nbar_num // (hp * fp)}{q}",
                    _ratio_text(m_num, gp * fp, q),
                    f"{q}{nbar_num // hp}{q}",
                )


def cmd_constants(order: int, fmt: str) -> int:
    keys = ("composition", "n", "m", "nbar")
    return _emit({"schema": SCHEMA, "N": order}, "rows", keys, _constant_rows(order, fmt), fmt)


def cmd_expand(target: str, order: int, form: str, fmt: str) -> int:
    # by name at call time, so a juhl_core function a tracer or test replaced is used
    expansion = getattr(juhl_core, f"expand_{target}_{form}")(order)
    head = {"schema": SCHEMA, "target": target, "N": order, "form": form}
    # each coefficient from its stored numerator over the map's one denominator
    den = expansion._den
    sep, open_, close, empty, q = _PIECES[fmt]
    join = sep.join
    if target == "P":
        head["basis"] = "M"
        keys = ("word", "coeff")
        terms = (
            (f"{open_}{join(map(str, word))}{close}", _ratio_text(num, den, q))
            for word, num in expansion._sorted_numerators()
        )
    else:
        head["basis"] = "MW"
        head["sign_convention"] = "(-1)^N Q"
        keys = ("word", "a", "coeff")
        # a Q-term (I, a) is stored under the word (*I, a); only I = () is empty
        terms = (
            (f"{open_}{join(map(str, word[:-1]))}{close}" if len(word) > 1 else empty, word[-1], _ratio_text(num, den, q))
            for word, num in expansion._sorted_numerators()
        )
    return _emit(head, "terms", keys, terms, fmt)


def cmd_verify(names: list[str], max_order: int | None, seed: int, jobs: int) -> int:
    reports = suites.run_suites(names, max_order=max_order, seed=seed, jobs=jobs)
    total_failures = sum(len(rep.failures) for rep in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        _write_out(
            f"[{status}] {rep.suite} ({rep.order_note}): {rep.instances} instances, {len(rep.failures)} failures\n"
            + "".join(f"  FAIL {failure.instance}: {failure.detail}\n" for failure in rep.failures)
        )
        print(f"{rep.suite}: {rep.wall_time:.2f}s", file=sys.stderr)
    _write_out(f"verify: {total_failures} failure(s)\n" if total_failures else "verify: all suites passed\n")
    return 1 if total_failures else 0


def _write_out(text: str) -> None:
    """Write ``text`` to stdout and flush it.  Once the reader has closed
    stdout (``| head``), the text goes nowhere: every report exists before
    the first line prints, so the verdict stands."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, after the reader closed
    it, so that later writes and the flush at exit do not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def cmd_einstein(dim: Fraction, c: Fraction, max_order: int, fmt: str) -> int:
    # the backends suite's check decides, before the first row: a failure leaves stdout empty
    failure = suites._ck_einstein_paths(dim, c, max_order)
    if failure is not None:
        print(f"einstein: {failure}", file=sys.stderr)
        return 1
    model = backends.EinsteinModel(dim, c)
    w_scalars = backends.einstein_invariants(model, max_order)[0]
    critical = dim.numerator // 2 if dim.denominator == 1 and dim.numerator % 2 == 0 else None
    *_, q = _PIECES[fmt]

    def row(order: int) -> tuple:
        # the closed form equals the formula and oracle values: the check has passed
        q_value = backends.einstein_q_closed_form(model, order)
        regime = "extension" if critical is not None and order > critical else "standard"
        return order, f"{q}{w_scalars[order]}{q}", f"{q}{q_value}{q}", f"{q}{regime}{q}"

    head = {"schema": SCHEMA, "n": str(dim), "c": str(c), "max_order": max_order}
    return _emit(head, "rows", ("N", "W", "Q", "regime"), map(row, range(1, max_order + 1)), fmt)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        max_order = args.max_order if args.max_order is not None else _env_max_order(parser)
        return cmd_verify(args.suites, max_order, args.seed, args.jobs)
    # verify stays outside: its exit code is the suites' verdict, not 0
    try:
        if args.command == "constants":
            return cmd_constants(args.order, args.format)
        if args.command == "expand":
            return cmd_expand(args.target, args.order, args.form, args.format)
        if args.command == "einstein":
            max_order = args.max_order
            if max_order is None:
                max_order = _env_max_order(parser) or 6
            return cmd_einstein(args.dim, args.c, max_order, args.format)
    except BrokenPipeError:
        # the reader closed stdout before the table ended (``| head``); every
        # row written had passed its checks
        _stdout_to_devnull()
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
