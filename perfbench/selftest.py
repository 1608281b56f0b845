"""Self-test of the benchmark at tiny orders; takes well under a minute.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that all outputs pass
and that every metric BENCHMARK.json declares is emitted as a number.  It
then corrupts one output of each workload and checks that the failure is
counted, so that ``failed_frac`` is non-zero.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    spec = run.load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, 0, 0, trace, tiny=True)
            with contextlib.redirect_stdout(io.StringIO()):
                line = run.report(result, spec, run.machine_state(0))
            names = spec["per_layer"] if trace else spec["end_to_end"]
            if not line["correct"] or result["failed_frac"] != 0:
                problems.append(f"{workload} trace={trace}: failures {result['failures']}")
            if sorted(line["metrics"]) != sorted(names):
                problems.append(f"{workload} trace={trace}: emitted {sorted(line['metrics'])}")
            bad = [n for n, m in line["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric {bad}")
        corrupted = run.measure(workload, 0, 0, False, tiny=True, corrupt=True)
        if not corrupted["failed_frac"] > 0:
            problems.append(f"{workload}: a corrupted output left failed_frac at 0")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
