"""Per-layer spans, recorded from outside the library.

Nothing under ``src/`` changes for tracing. Inside an ``installed`` block
the tracer replaces the names that ``tradeoffs.cli``, ``tradeoffs.sim``
and ``tradeoffs.workload`` look up at call time, and ``lookup``/``insert``
on ``CacheState``, with wrappers that record a span per call: name,
start, end, the enclosing span, and a small note (request count and
capacity of a replay; resident entries and hit flag of a lookup; victims
of an insert). Spans stay in memory until the run ends.

A traced iteration drives the workload's CLI stages through
``tradeoffs.cli.main`` in process, then times ``sim.sweep`` over the
workload's capacities three times: serial with stage spans only, serial
with a span on every cache call, and at the CLI's default ``--jobs``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
from time import perf_counter_ns

import tradeoffs.cli as cli
import tradeoffs.sim as sim
import tradeoffs.workload as workload
from tradeoffs.cache import CacheState
from tradeoffs.sim import curve_to_csv

from workloads import Paths, Reference, Workload, check_stage

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent index, note]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, note=None):
        span = [name, 0, 0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as e:
            span[NOTE] = type(e).__name__
            raise
        finally:
            span[END] = perf_counter_ns()
            self._open.pop()
        if note is not None:
            span[NOTE] = note(args, result)
        return result

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced


def _replay_note(args, report):
    return (len(args[0]), args[1].capacity_bytes)


# (owner, attribute, span name, note); owners are looked up at call time.
STAGE_TARGETS = (
    (cli, "generate_trace", "workload.generate_trace", None),
    (cli, "save_trace", "workload.save_trace", None),
    (workload, "serialize_trace", "workload.serialize_trace", None),
    (cli, "load_trace", "workload.load_trace", None),
    (cli, "replay", "sim.replay", _replay_note),
    (sim, "replay", "sim.replay", _replay_note),
    (cli, "sweep", "sim.sweep", None),
    (cli, "write_curve_csv", "sim.write_curve_csv", None),
    (cli, "read_curve_csv", "sim.read_curve_csv", None),
    (cli, "fit_hit_rate", "models.fit_hit_rate", None),
)
CACHE_TARGETS = (
    (CacheState, "lookup", "cache.lookup", lambda args, r: (len(args[0]), r.hit)),
    (CacheState, "insert", "cache.insert", lambda args, r: len(r[1])),
)


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    saved = []
    try:
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_cli(tracer: Tracer, stage: str, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` under a ``cli.<stage>`` span; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call(f"cli.{stage}", cli.main, (argv,))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue()


def pool_workers(jobs: int, capacities: int) -> int:
    """Worker processes ``sim.sweep`` starts; 1 when it bypasses the pool."""
    if jobs > 1 and capacities > 1:
        return min(jobs, capacities, os.cpu_count() or 1)
    return 1


def capacity_label(capacity_bytes: int) -> str:
    return f"{capacity_bytes / 1e9!r}GB"


def traced_iteration(
    wl: Workload, seed: int, requests: int, paths: Paths, ref: Reference, jobs: int, ops
) -> dict[str, float] | None:
    """One traced pipeline; returns its per-layer metrics, or None if a stage exited non-zero."""
    tracer = Tracer()
    with installed(tracer, STAGE_TARGETS):
        for stage, argv in wl.stages(seed, requests, paths):
            rc, stdout = run_cli(tracer, stage, argv)
            if rc != 0:
                ops.record([f"{stage}: exit code {rc}"])
                return None
            ops.record(check_stage(stage, stdout, paths, ref, requests))

    config, caps = wl.sim_config(), wl.capacity_bytes()
    curves = []
    with installed(tracer, STAGE_TARGETS):
        curves.append(tracer.call("sweep.serial", sim.sweep, (ref.trace, config, caps), {"jobs": 1}))
    with installed(tracer, STAGE_TARGETS + CACHE_TARGETS):
        curves.append(tracer.call("sweep.traced", sim.sweep, (ref.trace, config, caps), {"jobs": 1}))
    curves.append(tracer.call("sweep.pool", sim.sweep, (ref.trace, config, caps), {"jobs": jobs}))
    texts = [curve_to_csv(c) for c in curves]
    want = ref.curve_csv or texts[0]
    ops.record([f"in-process sweep {i}: curve differs" for i, t in enumerate(texts) if t != want])

    metrics = layer_metrics(tracer.spans)
    metrics["workload.trace_bytes"] = float(os.path.getsize(paths.trace))
    metrics["workload.load_trace_mb_per_s"] = (
        metrics["workload.trace_bytes"] / 1e6 / metrics["workload.load_trace_s"]
    )
    workers = pool_workers(jobs, len(caps))
    metrics["sim.pool_efficiency"] = metrics["sim.sweep_serial_s"] / (
        metrics["sim.sweep_pool_s"] * workers
    )
    return metrics


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, keyed by metric name."""
    children: dict[int, list[int]] = {}
    roots: dict[str, int] = {}
    by_root: dict[tuple[int, str], list[int]] = {}
    root_of: list[int] = []
    for i, s in enumerate(spans):
        if s[PARENT] < 0:
            roots[s[NAME]] = i
            root_of.append(i)
        else:
            children.setdefault(s[PARENT], []).append(i)
            root_of.append(root_of[s[PARENT]])
            by_root.setdefault((root_of[i], s[NAME]), []).append(i)

    def dur(i: int) -> float:
        return (spans[i][END] - spans[i][START]) / 1e9

    def self_s(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def under(root: str, name: str) -> list[int]:
        return by_root.get((roots.get(root, -1), name), [])

    def total(root: str, name: str) -> float:
        return sum(dur(i) for i in under(root, name))

    m: dict[str, float] = {}
    for name in ("generate_trace", "serialize_trace", "save_trace"):
        m[f"workload.{name}_s"] = total("cli.gen", f"workload.{name}")
    m["workload.load_trace_s"] = total("cli.sim", "workload.load_trace")

    lookups = under("sweep.traced", "cache.lookup")
    lookup_us = [dur(i) * 1e6 for i in lookups]
    m["cache.lookup_calls"] = float(len(lookups))
    m["cache.lookup_us_p50"] = statistics.median(lookup_us)
    m["cache.lookup_us_p99"] = _quantile(lookup_us, 0.99)
    m["cache.resident_mean"] = statistics.fmean(spans[i][NOTE][0] for i in lookups)
    m["cache.hit_ratio"] = sum(spans[i][NOTE][1] for i in lookups) / len(lookups)
    inserts = under("sweep.traced", "cache.insert")
    insert_us = [dur(i) * 1e6 for i in inserts]
    stored = [spans[i][NOTE] for i in inserts if isinstance(spans[i][NOTE], int)]
    m["cache.insert_calls"] = float(len(inserts))
    m["cache.insert_us_p50"] = statistics.median(insert_us)
    m["cache.insert_us_p99"] = _quantile(insert_us, 0.99)
    m["cache.evictions"] = float(sum(stored))
    m["cache.evictions_per_insert"] = sum(stored) / len(stored)
    m["cache.too_large"] = float(sum(spans[i][NOTE] == "EntryTooLarge" for i in inserts))

    per_req = {}
    for i in under("sweep.serial", "sim.replay"):
        requests, capacity = spans[i][NOTE]
        per_req[capacity] = dur(i) / requests * 1e6
    for capacity, us in sorted(per_req.items()):
        m[f"sim.replay_us_per_req.{capacity_label(capacity)}"] = us
    m["sim.replay_us_per_req.slowest"] = max(per_req.values())
    m["sim.replay_self_s"] = sum(self_s(i) for i in under("sweep.traced", "sim.replay"))
    m["sim.sweep_serial_s"] = dur(roots["sweep.serial"])
    m["sim.sweep_pool_s"] = dur(roots["sweep.pool"])
    m["trace_overhead_pct"] = (dur(roots["sweep.traced"]) / dur(roots["sweep.serial"]) - 1) * 100

    m["cli.self_s.gen"] = self_s(roots["cli.gen"])
    m["cli.self_s.sim"] = self_s(roots["cli.sim"])
    fit_roots = [r for r in ("cli.fit.exp", "cli.fit.power") if r in roots]
    if fit_roots:
        m["sim.write_curve_csv_s"] = total("cli.sim", "sim.write_curve_csv")
        m["sim.read_curve_csv_s"] = sum(total(r, "sim.read_curve_csv") for r in fit_roots)
        for r in fit_roots:
            m[f"models.fit_hit_rate_s.{r.rsplit('.', 1)[1]}"] = total(r, "models.fit_hit_rate")
        m["cli.self_s.fit"] = sum(self_s(roots[r]) for r in fit_roots)
    return m
