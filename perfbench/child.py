"""One fresh process of the benchmark: a set-up probe or one repetition.

    python3 perfbench/child.py '<json config>'

The config names the ``mode`` ("setup" or "run"), the ``workload``, the
``seed``, ``tiny`` and, for a run, ``trace``, ``corrupt`` and ``out_dir``.
juhlkit is imported from ``PYTHONPATH``, so the same file runs the program
and the reference copy.  It prints one JSON object on its last stdout line.
A run times its commands from the first call to the last result, with every
command started from cold caches, then checks the outputs with tracing off.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

from juhlkit import cli, exact_core, juhl_core  # noqa: E402  (timed as set-up)

IMPORTED = time.perf_counter()

import tracing  # noqa: E402
import workloads  # noqa: E402

COLD = (*(getattr(juhl_core, name) for name in tracing.EXPANSIONS), exact_core.factorial)


def build_inputs(workload: str, seed: int, tiny: bool):
    """The argv of every command and the all-pass stdout of every verify."""
    argvs = workloads.commands(workload, seed, tiny)
    expected = {" ".join(a): workloads.expected_verify_stdout(a) for a in argvs if a[0] == "verify"}
    return argvs, expected


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and its reaped children, and peak RSS in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024


def run_command(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashed command counts as a failed command
            print(traceback.format_exc(), file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def run(cfg: dict) -> dict:
    argvs, expected = build_inputs(cfg["workload"], cfg["seed"], cfg["tiny"])
    out_dir = Path(cfg["out_dir"])
    tracer = None
    if cfg["trace"]:
        ship_dir = out_dir / "workers"
        ship_dir.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(ship_dir)
        tracing.install(tracer)

    results = []
    cpu0, _ = _usage()
    t0 = time.perf_counter()
    for argv in argvs:
        if tracer is not None:
            tracer.note_caches(clearing=True)
        for cached in COLD:
            cached.cache_clear()
        code, stdout = run_command(argv)
        results.append((argv, code, stdout))
    wall = time.perf_counter() - t0
    cpu1, peak_rss = _usage()
    cpu = cpu1 - cpu0

    if tracer is not None:
        tracer.note_caches(clearing=False)
        tracer.enabled = False
    if cfg["corrupt"]:  # change the last digit of the first command's stdout
        argv, code, stdout = results[0]
        i = max(i for i, ch in enumerate(stdout) if ch.isdigit())
        results[0] = (argv, code, stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1 :])
    outcome = workloads.Outcome()
    workloads.check_outputs(results, outcome, expected)
    doc = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:20],
    }
    if tracer is not None:
        worker_spans = tracer.merge_workers()
        jobs = max(int(a[a.index("--jobs") + 1]) if "--jobs" in a else 1 for a in argvs)
        doc["layers"] = tracing.layer_metrics(tracer, wall, cpu, jobs)
        spans_path = out_dir / "spans.json"
        spans_path.write_text(json.dumps({**tracer.state(), "workers": worker_spans}))
        doc["spans_file"] = str(spans_path)
    return doc


def setup(cfg: dict) -> dict:
    build_inputs(cfg["workload"], cfg["seed"], cfg["tiny"])
    return {"import_s": IMPORTED - START, "inputs_s": time.perf_counter() - IMPORTED}


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    result = setup(config) if config["mode"] == "setup" else run(config)
    print(json.dumps(result))
