"""Spans and counters around the public functions of each juhlkit module.

Tracing lives entirely in the benchmark: ``install`` replaces module and
class attributes with wrappers, wherever a juhlkit module binds the
original function, and adds nothing inside ``src/juhlkit``.  A span holds a
name, an optional order N, start, end and the enclosing recorded span.  Hot
leaf functions (coefficients, NCPoly products, mat_vec) only add to
per-name totals, so that the run keeps a bounded number of spans in memory;
every span adds its duration and self time (duration minus the time of its
child spans) to those totals.

Pool workers inherit the wrappers through ``fork``.  Each worker resets its
totals at its first instance and writes them to ``<ship_dir>/worker-*.json``
after every instance; ``merge_workers`` folds them back in.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from workloads import SUITES

PER_N = {  # the five highest orders each workload reaches
    "nc_series.iterate_L_full": range(4, 9),
    "juhl_core.expand_P_recursive": range(6, 11),
    "backends.oracle_P": range(1, 6),
}
EXPANSIONS = ("expand_P_explicit", "expand_P_recursive", "expand_Q_explicit", "expand_Q_recursive")
SUMMATION = ("krattenthaler_identity", "verify_kidenb", "kcoeff", "kcoeff_closed_form", "telescope_check")


class Tracer:
    def __init__(self, ship_dir: Path):
        self.ship_dir = ship_dir
        self.caches = ()  # the functools caches of the juhl_core expansions, set by install
        self.enabled = True
        self.reset(worker=False)

    def reset(self, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self.token = time.monotonic_ns()
        self.cache_base = self.cache_stats() if worker else (0, 0)
        self.stack: list[list] = []  # per open span: [child seconds, recorded span id]
        self.totals: dict[str, list[float]] = {}  # "name" or "name@N" -> [calls, total_s, self_s, max_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, N, start, end)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _add(self, key: str, duration: float, self_s: float) -> None:
        t = self.totals.get(key)
        if t is None:
            self.totals[key] = [1, duration, self_s, duration]
        else:
            t[0] += 1
            t[1] += duration
            t[2] += self_s
            if duration > t[3]:
                t[3] = duration

    def span(self, name: str, fn, tag=None, record: bool = True, after=None):
        """Wrap ``fn`` in a span; ``tag(*args)`` gives the order N or None,
        ``after(args, result)`` runs on return with tracing paused."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            n = tag(*args) if tag else None
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            sid = len(tracer.spans) if record else parent
            frame = [0.0, sid]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                tracer._add(name, duration, self_s)
                if n is not None:
                    tracer._add(f"{name}@{n}", duration, self_s)
                if record:
                    tracer.spans.append((sid, parent, name, n, start, end))
            if after is not None:
                tracer.enabled = False
                try:
                    after(args, result)
                finally:
                    tracer.enabled = True
                    if stack:  # keep the bookkeeping out of the caller's self time
                        stack[-1][0] += time.perf_counter() - end
            return result

        return wrapper

    def counter(self, fn, after):
        """Wrap ``fn`` without a span; ``after(args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                after(args, result)
            return result

        return wrapper

    def cache_stats(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self.caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def note_caches(self, clearing: bool) -> None:
        """Add the cache hits and misses since the last note; call it with
        ``clearing`` right before the caches are cleared."""
        hits, misses = self.cache_stats()
        self.count("juhl_core.cache_hits", hits - self.cache_base[0])
        self.count("juhl_core.cache_misses", misses - self.cache_base[1])
        self.cache_base = (0, 0) if clearing else (hits, misses)

    # -- reading -----------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0, 0, 0))[2] for n in names)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def state(self) -> dict:
        return {"totals": self.totals, "counts": self.counts, "spans": self.spans}

    # -- pool workers ------------------------------------------------------

    def instance_wrapper(self, fn):
        """Span for one suite instance that also ships worker totals back."""
        traced = self.span("suites.instance", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(item):
            if tracer.enabled and os.getpid() != tracer.pid:
                tracer.reset(worker=True)  # drop the totals inherited from the parent
            try:
                return traced(item)
            finally:
                if tracer.worker:
                    tracer.note_caches(clearing=False)
                    path = tracer.ship_dir / f"worker-{tracer.pid}-{tracer.token}.json"
                    path.write_text(json.dumps(tracer.state()))

        return wrapper

    def merge_workers(self) -> dict[str, list]:
        """Fold shipped worker totals into this tracer; returns the worker
        spans by worker file name."""
        worker_spans = {}
        for path in sorted(self.ship_dir.glob("worker-*.json")):
            shipped = json.loads(path.read_text())
            for key, (calls, total, self_s, longest) in shipped["totals"].items():
                t = self.totals.setdefault(key, [0, 0.0, 0.0, 0.0])
                t[0] += calls
                t[1] += total
                t[2] += self_s
                t[3] = max(t[3], longest)
            for key, amount in shipped["counts"].items():
                if key == "juhl_core.coeff_bits_max":
                    self.counts[key] = max(self.counts.get(key, 0), amount)
                else:
                    self.count(key, amount)
            worker_spans[path.stem] = shipped["spans"]
        return worker_spans


def _replace(modules, original, wrapped) -> None:
    """Rebind ``original`` to ``wrapped`` in every module that binds it."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every juhlkit layer."""
    import juhlkit
    from juhlkit import backends, cli, exact_core, free_algebra, frobenius, juhl_core, nc_series, suites

    modules = (juhlkit, exact_core, free_algebra, nc_series, frobenius, juhl_core, backends, suites, cli)

    def wrap(owner, attr, make) -> None:
        original = getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        _replace(modules, original, wrapped)

    def order_arg(n, *_):
        return n

    # exact_core
    for attr in ("n_coeff", "m_coeff", "nbar_coeff"):
        wrap(exact_core, attr, lambda f: tracer.span("exact_core.coeff", f, record=False))
    wrap(exact_core, "compositions_of", lambda f: tracer.counter(
        f, lambda args, res: tracer.count("exact_core.compositions_of.items", len(res))))

    # free_algebra: NCPoly x NCPoly products (scalar multiples are not products)
    NCPoly = free_algebra.NCPoly
    plain_mul = NCPoly.__mul__
    traced_mul = tracer.span("free_algebra.ncpoly_mul", plain_mul, record=False)

    def ncpoly_mul(self, other):
        if not isinstance(other, NCPoly):
            return plain_mul(self, other)
        if tracer.enabled:
            tracer.count("free_algebra.ncpoly_mul.term_pairs", len(self) * len(other))
        return traced_mul(self, other)

    NCPoly.__mul__ = ncpoly_mul
    wrap(free_algebra, "mat_vec", lambda f: tracer.span("free_algebra.mat_vec", f, record=False))

    # nc_series: lanes 0..remaining can still reach s^0, where remaining is
    # the number of L factors left; k runs from cap-1 (or cap-3) down to 1-cap
    def lane_counts(args, res):
        k, u = args
        remaining = (k + u.cap - 1) // 2
        held = [len(c) for c in res.coeffs]
        tracer.count("nc_series.apply_L.calls")
        tracer.count("nc_series.apply_L.lane_terms", sum(held))
        tracer.count("nc_series.apply_L.useful_terms", sum(held[: remaining + 1]))

    wrap(nc_series, "apply_L", lambda f: tracer.counter(f, lane_counts))
    for attr in ("iterate_L_full", "iterate_L_partial"):
        wrap(nc_series, attr, lambda f, a=attr: tracer.span(f"nc_series.{a}", f, tag=order_arg))

    # juhl_core: expansions count the terms and coefficient sizes they produce
    caches = {name: getattr(juhl_core, name) for name in EXPANSIONS}
    tracer.caches = tuple(caches.values())
    tracer.cache_base = tracer.cache_stats()

    def expansion(name):
        cached = caches[name]
        pending = []  # cache misses at entry, one per open call

        def before(n, *_):
            pending.append(cached.cache_info().misses)
            return n

        def after(args, res):
            if cached.cache_info().misses == pending.pop():
                return  # a cache hit produced nothing
            tracer.count("juhl_core.terms_out", len(res))
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in res.items()), default=0)
            tracer.counts["juhl_core.coeff_bits_max"] = max(tracer.counts.get("juhl_core.coeff_bits_max", 0), bits)

        return tracer.span(f"juhl_core.{name}", cached, tag=before, after=after)

    for name in EXPANSIONS:
        wrap(juhl_core, name, lambda f, n=name: expansion(n))
    wrap(juhl_core, "apply_operator_expansion",
         lambda f: tracer.span("juhl_core.apply_operator_expansion", f, record=False))
    for attr in SUMMATION:
        wrap(juhl_core, attr, lambda f: tracer.span("juhl_core.summation", f, record=False))

    # backends
    def oracle_order(backend, n, *_):
        return n if isinstance(backend, backends.MatrixAssignment) else None

    for attr in ("oracle_P", "oracle_P_partial", "oracle_Q"):
        wrap(backends, attr, lambda f, a=attr: tracer.span(f"backends.{a}", f, tag=oracle_order))
    for attr in ("evaluate_P", "evaluate_Q"):
        wrap(backends, attr, lambda f: tracer.span("backends.evaluate", f))
    wrap(backends, "apply_R", lambda f: tracer.counter(f, lambda a, r: tracer.count("backends.apply_R.calls")))
    for cls in (backends.EinsteinBackend, backends.MatrixAssignment):
        cls.m_apply = tracer.counter(cls.m_apply, lambda a, r: tracer.count("backends.m_apply.calls"))

    # frobenius
    for attr in ("compute_F", "c_table"):
        wrap(frobenius, attr, lambda f, a=attr: tracer.span(f"frobenius.{a}", f, record=False))
    for attr in ("jacobi_P", "jacobi_Q"):
        wrap(frobenius, attr, lambda f: tracer.span("frobenius.jacobi", f, record=False))
    wrap(frobenius, "apply_Dm", lambda f: tracer.counter(f, lambda a, r: tracer.count("frobenius.apply_Dm.calls")))

    # suites: per-suite wall and instances come from the returned reports
    def suite_reports(args, reports):
        for rep in reports:
            tracer.count(f"suites.{rep.suite}.wall_s", rep.wall_time)
            tracer.count(f"suites.{rep.suite}.instances", rep.instances)

    wrap(suites, "run_suites", lambda f: tracer.span("suites.run_suites", f, after=suite_reports))
    wrap(suites, "_run_instance", tracer.instance_wrapper)

    # cli: the time in cmd_* that no child span covers is formatting
    for attr in ("cmd_constants", "cmd_expand", "cmd_verify", "cmd_einstein"):
        wrap(cli, attr, lambda f: tracer.span("cli.cmd", f))


def layer_metrics(tracer: Tracer, wall_s: float, cpu_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by name."""
    t, c = tracer, tracer.counts
    out = {
        "nc_series.iterate_L_full.self_s": t.self_s("nc_series.iterate_L_full"),
        "nc_series.iterate_L_partial.self_s": t.self_s("nc_series.iterate_L_partial"),
        "nc_series.apply_L.calls": c.get("nc_series.apply_L.calls", 0),
        "nc_series.apply_L.lane_terms": c.get("nc_series.apply_L.lane_terms", 0),
        "nc_series.useful_lane_ratio": (
            c.get("nc_series.apply_L.useful_terms", 0) / c["nc_series.apply_L.lane_terms"]
            if c.get("nc_series.apply_L.lane_terms") else 0.0
        ),
    }
    for name in EXPANSIONS:
        out[f"juhl_core.{name}.self_s"] = t.self_s(f"juhl_core.{name}")
    out["juhl_core.apply_operator_expansion.self_s"] = t.self_s("juhl_core.apply_operator_expansion")
    for key in ("terms_out", "coeff_bits_max", "cache_hits", "cache_misses"):
        out[f"juhl_core.{key}"] = c.get(f"juhl_core.{key}", 0)
    out["juhl_core.summation.self_s"] = t.self_s("juhl_core.summation")
    out.update({
        "free_algebra.ncpoly_mul.calls": t.calls("free_algebra.ncpoly_mul"),
        "free_algebra.ncpoly_mul.term_pairs": c.get("free_algebra.ncpoly_mul.term_pairs", 0),
        "free_algebra.ncpoly_mul.self_s": t.self_s("free_algebra.ncpoly_mul"),
        "free_algebra.mat_vec.calls": t.calls("free_algebra.mat_vec"),
        "free_algebra.mat_vec.self_s": t.self_s("free_algebra.mat_vec"),
        "exact_core.coeff.calls": t.calls("exact_core.coeff"),
        "exact_core.coeff.self_s": t.self_s("exact_core.coeff"),
        "exact_core.compositions_of.items": c.get("exact_core.compositions_of.items", 0),
        "backends.oracle.self_s": t.self_s("backends.oracle_P", "backends.oracle_P_partial", "backends.oracle_Q"),
        "backends.apply_R.calls": c.get("backends.apply_R.calls", 0),
        "backends.evaluate.self_s": t.self_s("backends.evaluate"),
        "backends.m_apply.calls": c.get("backends.m_apply.calls", 0),
        "frobenius.compute_F.self_s": t.self_s("frobenius.compute_F"),
        "frobenius.c_table.self_s": t.self_s("frobenius.c_table"),
        "frobenius.jacobi.self_s": t.self_s("frobenius.jacobi"),
        "frobenius.apply_Dm.calls": c.get("frobenius.apply_Dm.calls", 0),
    })
    for suite in SUITES:
        out[f"suites.{suite}.wall_s"] = c.get(f"suites.{suite}.wall_s", 0.0)
        out[f"suites.{suite}.instances"] = c.get(f"suites.{suite}.instances", 0)
    instances = t.totals.get("suites.instance")
    if instances:
        out["suites.instance_max_s"] = instances[3]
        out["suites.pool_utilization"] = cpu_s / (jobs * wall_s)
        out["suites.pool_tail_s"] = wall_s - instances[1] / jobs
    else:
        out["suites.instance_max_s"] = out["suites.pool_utilization"] = out["suites.pool_tail_s"] = 0.0
    out["cli.format.self_s"] = t.self_s("cli.cmd")
    for name, orders in PER_N.items():
        for n in orders:
            out[f"{name}.N{n}.s"] = t.self_s(f"{name}@{n}")
    return out
