"""juhlkit benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload verify-serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced then traced

Run it from the root of a checkout; the program is imported from ``src/``.
A run repeats the workload, each repetition in a fresh child process, until
the next one would overrun ``--seconds`` (at least one), and reports the
median of each metric.  Before each repetition it starts a set-up probe
(interpreter start, import of juhlkit, building the argv and instance
lists); the median of at least seven probes is ``setup_s``.  The last
stdout line is the JSON result; the lines before it name each metric with
its unit and sample count, and the machine state at start.  The full record
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"
REFERENCE_SRC = HERE / "reference"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import REFERENCE, WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(src: Path, cfg: dict) -> tuple[dict, float]:
    """Run perfbench/child.py on the juhlkit under ``src`` in its own process
    group; returns its JSON result and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cfg['mode']} child of {cfg['workload']} timed out")
    except BaseException:  # interrupted: take the child and its pool workers down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        fail(f"{cfg['mode']} child of {cfg['workload']} under {src} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), elapsed


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_state(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": source_digest(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            corrupt: bool = False) -> dict:
    """Paired repetitions of the program and of the frozen reference copy.

    Each pair runs a set-up probe and a repetition on ``src/`` and on
    ``perfbench/reference/``, in alternating order.  A time metric is the
    median over the pairs of program time / reference time, multiplied by
    the reference's time in ``workloads.REFERENCE``: the two halves of a
    pair run seconds apart, so a machine slowed by other tenants slows both
    alike and the ratio stays put.
    """
    for tree in (ROOT / "src", HERE):  # both sides import from bytecode
        compileall.compile_dir(tree, quiet=1)
    base = {"workload": workload, "seed": seed, "tiny": tiny}
    run_dir = OUT / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    probes, reps = [], []  # (program, reference) results
    longest = 0.0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        first_program = len(reps) % 2 == 0
        cfg = {**base, "mode": "run", "trace": trace, "corrupt": corrupt,
               "out_dir": str(run_dir / f"rep{len(reps)}")}
        untraced = {**cfg, "trace": False, "corrupt": False}
        probes.append(paired(first_program, {**base, "mode": "setup"}, {**base, "mode": "setup"}))
        reps.append(paired(first_program, cfg, untraced))
        longest = max(longest, time.perf_counter() - began)
    while len(probes) < SETUP_PROBES:
        probes.append(paired(len(probes) % 2 == 0, {**base, "mode": "setup"}, {**base, "mode": "setup"}))

    median = statistics.median
    ref = REFERENCE[workload]
    program = [p for (p, _), _ in reps]

    def ratio(key: str) -> float:
        return median(p[key] / r[key] for (p, _), (r, _) in reps)

    e2e = {
        "wall_s": ratio("wall_s") * ref["wall_s"],
        "cpu_s": ratio("cpu_s") * ref["cpu_s"],
        "peak_rss_mb": median(p["peak_rss_mb"] for p in program),
        "setup_s": median(p / r for (_, p), (_, r) in probes) * ref["setup_s"],
    }
    layers = {}
    if trace:
        layers = {k: median(p["layers"][k] for p in program) for k in program[0]["layers"]}
        layers["trace.wall_s"] = e2e["wall_s"]
    layers["setup.import_s"] = median(p["import_s"] for (p, _), _ in probes)
    layers["setup.inputs_s"] = median(p["inputs_s"] for (p, _), _ in probes)
    attempted = sum(p["attempted"] for p in program)
    failed = sum(p["failed"] for p in program)
    return {
        "workload": workload, "trace": trace, "repetitions": len(reps), "setup_probes": len(probes),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": [f for p in program for f in p["failures"]][:20],
        "end_to_end": e2e, "per_layer": layers,
        "raw_medians": {
            side: {
                "wall_s": median(pair[i][0]["wall_s"] for pair in reps),
                "cpu_s": median(pair[i][0]["cpu_s"] for pair in reps),
                "setup_s": median(pair[i][1] for pair in probes),
            }
            for i, side in enumerate(("program", "reference"))
        },
        "samples": {
            "wall_s": [(p["wall_s"], r["wall_s"]) for (p, _), (r, _) in reps],
            "setup_s": [(p, r) for (_, p), (_, r) in probes],
        },
        "spans_files": [p["spans_file"] for p in program if "spans_file" in p],
    }


def paired(program_first: bool, program_cfg: dict, reference_cfg: dict):
    """Run one child on the program and one on the reference copy, in the
    given order; returns (program result, reference result)."""
    if program_first:
        program = child(ROOT / "src", program_cfg)
        return program, child(REFERENCE_SRC, reference_cfg)
    reference = child(REFERENCE_SRC, reference_cfg)
    return child(ROOT / "src", program_cfg), reference


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "run_seconds": spec["run_seconds"],
    }


def report(result: dict, spec: dict, state: dict) -> dict:
    """Print the metrics by name with units; return the contract's JSON line."""
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    values = {**result["end_to_end"], **result["per_layer"]}
    missing = [n for n in names if n not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(f"# {result['workload']}: " + json.dumps(state, sort_keys=True))
    for name in names:
        samples = result["setup_probes"] if name.startswith("setup") else result["repetitions"]
        print(f"{name} = {values[name]:.6g} {spec['units'][name]} (n={samples})")
    print(f"failed_frac = {result['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": spec["units"][n]} for n in names},
    }


def save(name: str, doc: dict) -> None:
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}.json").write_text(json.dumps(doc, indent=1))


def run_all(seed: int, seconds: float, spec: dict) -> int:
    """Every workload untraced, then traced; prints the tracing overhead."""
    rows = []
    for workload in WORKLOADS:
        state = machine_state(seed)
        plain = measure(workload, seed, seconds, trace=False)
        report(plain, spec, state)
        traced = measure(workload, seed, seconds, trace=True)
        report(traced, spec, state)
        overhead = traced["end_to_end"]["wall_s"] - plain["end_to_end"]["wall_s"]
        print(f"trace.overhead_s = {overhead:.6g} s ({workload})")
        save(f"all-{workload}-s{seed}", {"state": state, "untraced": plain, "traced": traced,
                                         "trace_overhead_s": overhead})
        rows.append((workload, plain, overhead))
    print(f"\n{'workload':14} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7} {'setup_s':>8} {'failed_frac':>11} {'trace_ovh_s':>11}")
    for workload, r, overhead in rows:
        e = r["end_to_end"]
        print(f"{workload:14} {e['wall_s']:8.3f} {e['cpu_s']:8.3f} {e['peak_rss_mb']:7.1f} "
              f"{e['setup_s']:8.4f} {r['failed_frac']:11.4g} {overhead:11.3f}")
    return 1 if any(r["failed"] for _, r, _ in rows) else 0


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "juhlkit" / "__init__.py").is_file():
        fail(f"no juhlkit sources under {ROOT / 'src'}; run from a full checkout")
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds, spec)
    if args.workload is None:
        parser.error("give --workload or --all")
    state = machine_state(args.seed)
    result = measure(args.workload, args.seed, seconds, bool(args.trace))
    save(f"{args.workload}-s{args.seed}-t{args.trace}", {"state": state, **result})
    line = report(result, spec, state)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
