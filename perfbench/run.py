"""Benchmark of the tradeoffs CLI pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload c09 --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

With ``--trace 0`` every stage runs as a user runs it, one
``python -m tradeoffs`` subprocess per stage, repeatedly for ``--seconds``;
the end-to-end metrics are medians over those pipelines. With
``--trace 1`` the stages run in this process through ``tradeoffs.cli.main``
with spans around the calls into each module (see ``tracing.py``), and
the per-layer metrics are medians over traced iterations. Either way the
outputs of every stage are checked against a reference computed in
process, and at a workload's default seed against the digests pinned in
``expected.json``. A mismatch or non-zero exit counts as a failed
operation.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
``BENCHMARK.json`` registers for the mode. Lines before it name every
metric measured, registered or not, with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES_PER_ITERATION = 2
STAGE_TIMEOUT_S = 150
# Sizes for --self-test: small enough to finish in seconds, large enough
# that every rung of the ladder sees hits and the fits are well posed.
TINY_REQUESTS = {"c09": 600, "io-wide": 150, "mixed-churn": 600}


def unit_of(name: str, registry: dict) -> str:
    """Units of registered metrics come from BENCHMARK.json; the rest are times."""
    for m in registry["end_to_end"] + registry["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name == "failed_ops":
        return "ratio"
    return "us" if name.startswith("sim.replay_us_per_req.") else "s"


class Ops:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TRINITY_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setup(env: dict[str, str], ops: Ops) -> float | None:
    """Seconds from spawning an interpreter until it has imported tradeoffs.cli."""
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading can be
    # compared with the parent's.
    code = "import time, tradeoffs.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        ops.record([f"setup: no import within {STAGE_TIMEOUT_S} s"])
        return None
    if not ops.record([] if proc.returncode == 0 else [f"setup: exit code {proc.returncode}"]):
        return None
    return (int(proc.stdout.strip()) - start) / 1e9


def run_stage(argv: list[str], env: dict[str, str], out_path: str) -> tuple[int, float, float, str]:
    """Run ``python -m tradeoffs argv``; returns (exit code, wall s, peak RSS MB, stdout).

    ``os.wait4`` reports the peak RSS of the stage and of every process it
    reaped, so sweep pool workers count.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tradeoffs", *argv], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as f:
        stdout = f.read()
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, stdout


def cli_iteration(wl, seed, requests, paths, ref, env, ops) -> dict[str, float] | None:
    """One subprocess pipeline; returns its end-to-end metrics, or None if a stage exited non-zero."""
    from workloads import check_stage

    times, rss = {}, []
    for stage, argv in wl.stages(seed, requests, paths):
        out_path = os.path.join(os.path.dirname(paths.trace), f"{stage}.out")
        rc, wall, peak_mb, stdout = run_stage(argv, env, out_path)
        if rc != 0:
            ops.record([f"{stage}: exit code {rc}"])
            return None
        ops.record(check_stage(stage, stdout, paths, ref, requests))
        times[stage] = wall
        rss.append(peak_mb)
    m = {
        "pipeline_s": sum(times.values()),
        "gen_s": times["gen"],
        "sim_s": times["sim"],
        "sim_req_per_s": requests * len(wl.capacities) / times["sim"],
        "peak_rss_mb": max(rss),
    }
    if wl.fit:
        m["fit_s"] = sum(t for s, t in times.items() if s.startswith("fit."))
    return m


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": src_lines,
    }


def load_registry() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: int, trace: bool, requests: int | None = None) -> int:
    import tracing
    from tradeoffs.workload import load_trace
    from workloads import WORKLOADS, Paths, reference

    wl = WORKLOADS[workload]
    requests = requests or wl.requests
    registry = load_registry()
    registered = registry["per_layer" if trace else "end_to_end"]
    jobs = os.cpu_count() or 1
    env = child_env()
    loadavg_before = os.getloadavg()
    ops = Ops()

    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        paths = Paths.under(str(workdir))
        ref = reference(wl, seed, requests)
        pinned = None
        if seed == wl.default_seed and requests == wl.requests:
            with open(HERE / "expected.json", encoding="utf-8") as f:
                pinned = json.load(f)[workload]
            ops.record([] if pinned == ref.pinned() else [f"pinned digests differ: {ref.pinned()}"])

        samples: dict[str, list[float]] = {}
        if not trace:
            time_setup(env, Ops())  # warm the bytecode cache; users do not pay it per run

        deadline = time.perf_counter() + seconds
        first = True
        while True:
            if trace:
                m = tracing.traced_iteration(wl, seed, requests, paths, ref, jobs, ops)
            else:
                # Setup launches are spread over the run, so that they see
                # the same mix of machine states as the pipelines.
                setup = [time_setup(env, ops) for _ in range(SETUP_LAUNCHES_PER_ITERATION)]
                samples.setdefault("setup_s", []).extend(s for s in setup if s is not None)
                m = cli_iteration(wl, seed, requests, paths, ref, env, ops)
            if m is not None:
                for name, value in m.items():
                    samples.setdefault(name, []).append(value)
                if first:
                    same = load_trace(paths.trace) == ref.trace
                    ops.record([] if same else ["load_trace(file) differs from the generated trace"])
                    first = False
            if m is None or time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    medians = {name: statistics.median(v) for name, v in samples.items() if v}
    missing = [m["name"] for m in registered if m["name"] not in medians]
    print(f"# perfbench workload={workload} seed={seed} requests={requests} "
          f"seconds={seconds} trace={int(trace)} jobs={jobs}")
    for name in sorted(medians):
        v = samples[name]
        quartiles = ""
        if len(v) > 1:
            q1, _, q3 = statistics.quantiles(v, n=4)
            quartiles = f" q1={q1!r} q3={q3!r}"
        print(f"metric {name} = {medians[name]!r} {unit_of(name, registry)} (n={len(v)}){quartiles}")
    print(f"metric failed_ops = {ops.failed / max(ops.attempted, 1)!r} "
          f"{unit_of('failed_ops', registry)} (n={ops.attempted})")
    notes = {
        "env": dict(environment(), loadavg_before=loadavg_before, loadavg_after=os.getloadavg()),
        "digests": ref.digests,
        "fits": ref.fits,
        "pinned_checked": pinned is not None,
        "errors": ops.errors[:20],
    }
    print("notes " + json.dumps(notes, sort_keys=True))
    if missing:
        print(f"error: no value for registered metrics {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]} for m in registered},
    }
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Run every workload tiny in both modes and check what is printed."""
    from workloads import WORKLOADS

    registry = load_registry()
    problems = []
    for name, wl in WORKLOADS.items():
        for trace in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run(name, seed=7, seconds=1, trace=trace, requests=TINY_REQUESTS[name])
            lines = out.getvalue().strip().split("\n")
            where = f"{name} trace={int(trace)}"
            if rc != 0:
                problems.append(f"{where}: exit code {rc}")
                continue
            result = json.loads(lines[-1])
            printed = {}
            for ln in lines:
                if ln.startswith("metric "):
                    parts = ln.split()
                    printed[parts[1]] = (parts[4], parts[5])
            wanted = [m["name"] for m in registry["per_layer" if trace else "end_to_end"]]
            if not trace and wl.fit:
                wanted.append("fit_s")
            if trace and wl.fit:
                wanted += ["sim.write_curve_csv_s", "sim.read_curve_csv_s", "cli.self_s.fit",
                           "models.fit_hit_rate_s.exp", "models.fit_hit_rate_s.power"]
            for metric in wanted + ["failed_ops"]:
                unit, count = printed.get(metric, (None, None))
                if unit != unit_of(metric, registry) or not (count or "").startswith("(n="):
                    problems.append(f"{where}: {metric} not printed with unit and sample count")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: failed_ops {result['failed']}/{result['attempted']}")
            registered = {m["name"] for m in registry["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != registered:
                problems.append(f"{where}: result metrics {sorted(result['metrics'])}")
            print(f"{where}: {len(printed)} metrics, {result['failed']}/{result['attempted']} failed")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="c09, io-wide or mixed-churn")
    parser.add_argument("--seed", type=int, help="workload seed handed to tradeoffs gen")
    parser.add_argument("--seconds", type=int, default=30, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--self-test", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tradeoffs" / "cli.py").is_file():
        print(f"error: no tradeoffs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("TRINITY_SEED", None)  # the seed comes from --seed only

    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} and --seed is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
