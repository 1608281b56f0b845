"""The benchmark's workloads: the CLI commands each one issues, in order,
and the checks that every command's output must pass.

All workloads are closed loops with one client: each command is issued
only after the previous one has returned.  The seed is passed to every
``verify`` command as ``--seed`` and picks the Einstein family parameters
from ``EINSTEIN_PARAMS``.

Bare ``juhlkit verify`` (documented as running every suite) exits 2 with
``invalid choice: ['all']``, because argparse checks the default list
against the choices, so the verify workloads name the five suites
explicitly.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

SUITES = ("combinatorial", "inversion", "krattenthaler", "frobenius", "backends")

# (dim, c) pairs of similar cost, so the seed changes the inputs but hardly
# the work.
EINSTEIN_PARAMS = (
    ("7/2", "-1/3"),
    ("5", "1/3"),
    ("3", "1/3"),
    ("5/2", "1/3"),
    ("4", "1/3"),
    ("3", "-1/3"),
)

# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = ("verify-serial", "verify-pool", "expand-deep", "oracles-deep")

# Median wall, CPU and set-up seconds of the frozen reference copy
# (perfbench/reference) on the 2-core machine the benchmark was written on.
# Reported times are program/reference ratios in these units (run.py).
REFERENCE = {
    "verify-serial": {"wall_s": 1.47, "cpu_s": 1.46, "setup_s": 0.134},
    "verify-pool": {"wall_s": 1.18, "cpu_s": 1.63, "setup_s": 0.134},
    "expand-deep": {"wall_s": 1.10, "cpu_s": 1.10, "setup_s": 0.141},
    "oracles-deep": {"wall_s": 1.65, "cpu_s": 1.65, "setup_s": 0.134},
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The argv lists one repetition of ``workload`` runs, in order.

    The orders are below the CLI defaults so that a repetition takes about
    a second and a run holds many of them (see README.md).
    ``tiny`` shrinks every order so that a repetition takes well under a
    second; the benchmark's self-test uses it.
    """
    s = str(seed)
    if workload in ("verify-serial", "verify-pool"):
        jobs = "1" if workload == "verify-serial" else "2"
        top, rest = (3, 2) if tiny else (8, 4)
        return [
            ["verify", "combinatorial", "--max-order", str(top), "--jobs", jobs, "--seed", s],
            ["verify", *SUITES[1:], "--max-order", str(rest), "--jobs", jobs, "--seed", s],
        ]
    if workload == "expand-deep":
        dim, c = EINSTEIN_PARAMS[seed % len(EINSTEIN_PARAMS)]
        p, q, k, e = (5, 4, 6, 4) if tiny else (10, 9, 13, 12)
        return [
            ["expand", "--target", "P", "--N", str(p), "--form", "recursive"],
            ["expand", "--target", "Q", "--N", str(q), "--form", "recursive"],
            ["constants", "--N", str(k), "--format", "json"],
            ["einstein", "--dim", dim, f"--c={c}", "--max-order", str(e)],
        ]
    if workload == "oracles-deep":
        b, f, k = (3, 4, 4) if tiny else (5, 8, 7)
        return [
            ["verify", "backends", "--max-order", str(b), "--seed", s],
            ["verify", "frobenius", "--max-order", str(f), "--seed", s],
            ["verify", "krattenthaler", "--max-order", str(k), "--seed", s],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# sha256 of the stdout of each command (orders not tiny), keyed by the argv
# joined with spaces.  Verify digests are recorded for seed 0 only;
# einstein digests for every entry of EINSTEIN_PARAMS.
DIGESTS = {
    "verify combinatorial --max-order 8 --jobs 1 --seed 0":
        "ea0ac71a51dacf99a930cbef5448acc4d0f483b55dcaa7bf99b4a2b7594b0e53",
    "verify inversion krattenthaler frobenius backends --max-order 4 --jobs 1 --seed 0":
        "4053bb635387764090a09c6db8d87167585bd1ef3fcd73046dbb39525f2d145f",
    "verify combinatorial --max-order 8 --jobs 2 --seed 0":
        "ea0ac71a51dacf99a930cbef5448acc4d0f483b55dcaa7bf99b4a2b7594b0e53",
    "verify inversion krattenthaler frobenius backends --max-order 4 --jobs 2 --seed 0":
        "4053bb635387764090a09c6db8d87167585bd1ef3fcd73046dbb39525f2d145f",
    "expand --target P --N 10 --form recursive":
        "822ad38e5e908b4bdad904726f962ae248a2954d8b6951fd80ccda10e8c521be",
    "expand --target Q --N 9 --form recursive":
        "178e202f5933bf2d7ee2a2d7ec63bfb11671cabffae75675d505bc2322566b1b",
    "constants --N 13 --format json":
        "3467851dbcabb4d285f8a0e83429926232230ebe14d568992f6ecc440b6a2668",
    "einstein --dim 7/2 --c=-1/3 --max-order 12":
        "0071590a624372b6850532abb3aa2bd4c62c63ef468fe068691fc6917d5eb3b9",
    "verify backends --max-order 5 --seed 0":
        "59dd4e30f1261d0cd85b0946ea8605e73f25da84e31aa466e0b1002f0491ed96",
    "verify frobenius --max-order 8 --seed 0":
        "59f2945aa4031f7687407f24e827328338e404fcf68b03c33f29cfeb269fb099",
    "verify krattenthaler --max-order 7 --seed 0":
        "289eb1dad1d182b11d7e3da64713894d637aa7cd9aec719469a4cfb5ec5a04a5",
    "einstein --dim 5 --c=1/3 --max-order 12":
        "347415b50cdb8b523841753d9de1e6ebfaf53ae8231318b6efa3d7c0560b0078",
    "einstein --dim 3 --c=1/3 --max-order 12":
        "237b60a539273c2d64d499ace4d9bba1ed090a0e3c7ec347b78211db0eaaad9b",
    "einstein --dim 5/2 --c=1/3 --max-order 12":
        "091064aec013f3ea6be5c0103741e629cbf211faf97dd3fa7a3a92adeab8cdb9",
    "einstein --dim 4 --c=1/3 --max-order 12":
        "34ab6218797141f339062d2b184d1d66444666af1bf334a1fa7b403917e0933f",
    "einstein --dim 3 --c=-1/3 --max-order 12":
        "28eb9dd1d2616b720457d2ec35f5d302d513b3deee44a1805ab7cdeec44f3fed",
}


@dataclass
class Outcome:
    """Attempts and failures found by the checks of one repetition."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def expected_verify_stdout(argv: list[str]) -> str:
    """The stdout of a verify run in which every instance passes.

    Built from the suites' own instance lists, so it is what the serial run
    prints; a pooled run must print exactly the same bytes.
    """
    from juhlkit import cli, suites

    args = cli.build_parser().parse_args(argv)
    lines = []
    for name in args.suites:
        note, instances = suites.build_suite(name, args.max_order, args.seed)
        lines.append(f"[PASS] {name} ({note}): {len(instances)} instances, 0 failures\n")
    return "".join(lines) + "verify: all suites passed\n"


_SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] (\w+) \(.*\): (\d+) instances, (\d+) failures$", re.M)


def check_outputs(results: list[tuple[list[str], int, str]], out: Outcome, expected: dict[str, str]) -> None:
    """Check every (argv, exit code, stdout) of one repetition into ``out``.

    ``expected`` maps a verify argv (joined with spaces) to the stdout an
    all-pass run prints; it is built before the timed region.
    """
    from juhlkit import juhl_core

    for argv, code, stdout in results:
        key = " ".join(argv)
        out.check(code == 0, f"{key}: exit code {code}")
        digest = DIGESTS.get(key)
        if digest is not None:
            got = hashlib.sha256(stdout.encode()).hexdigest()
            out.check(got == digest, f"{key}: stdout sha256 {got} != recorded {digest}")
        if argv[0] == "verify":
            for status, suite, count, failures in _SUITE_LINE.findall(stdout):
                out.attempted += int(count)
                out.failed += int(failures)
                if status != "PASS" or int(failures):
                    out.failures.append(f"{key}: {suite} reported {failures} failure(s)")
            out.check(stdout == expected[key], f"{key}: stdout differs from the all-pass serial output")
        elif argv[0] == "expand" and "recursive" in argv:
            order = int(argv[argv.index("--N") + 1])
            try:
                terms = json.loads(stdout)["terms"]
            except (ValueError, KeyError) as exc:
                out.check(False, f"{key}: unreadable output ({exc!r})")
                continue
            # the explicit form is the independent path: closed-form coefficients
            if argv[argv.index("--target") + 1] == "P":
                got = {tuple(t["word"]): Fraction(t["coeff"]) for t in terms}
                want = dict(juhl_core.expand_P_explicit(order).items())
            else:
                got = {(tuple(t["word"]), t["a"]): Fraction(t["coeff"]) for t in terms}
                want = dict(juhl_core.expand_Q_explicit(order).items())
            out.check(got == want, f"{key}: recursive terms differ from the explicit expansion")
