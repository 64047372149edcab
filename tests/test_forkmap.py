import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import tradeoffs._forkmap as forkmap
import tradeoffs.workload as workload
from tradeoffs import GeneratorConfig, SimConfig, generate_trace, serialize_trace, sweep

E720 = 80_000_000

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def _run_in_child(fn, timeout=120):
    """``fn()`` in a forked, non-daemonic process, waited for at most ``timeout`` s."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(fn()))
    child.start()
    try:
        assert recv.poll(timeout), "no result in time"
        result = recv.recv()
    finally:
        child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    return result


@pytest.mark.parametrize("cpus, usable", [(5, 5), (None, 1)])
def test_usable_cpus_without_affinity_are_the_cpu_count(monkeypatch, cpus, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert forkmap._usable_cpus() == usable


def _pid_after(i):
    time.sleep(0.002 * (i % 5))
    return i * i, os.getpid()


@needs_fork
def test_fork_map_keeps_input_order_with_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 8)
    me, out = _run_in_child(lambda: (os.getpid(), forkmap.fork_map(_pid_after, range(60), 8)))
    assert [square for square, _ in out] == [i * i for i in range(60)]
    pids = [pid for _, pid in out]
    assert pids == [pids[i % 8] for i in range(60)]  # process j takes items j, j + 8, ...
    assert pids[0] == me and len(set(pids)) == 8


@needs_fork
def test_fork_map_raises_a_worker_error(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 2)

    def fail_on_1(i):
        time.sleep(0.01)
        if i == 1:  # the first item a child takes
            raise ValueError("item 1")
        return i

    with pytest.raises(ValueError, match="item 1"):
        forkmap.fork_map(fail_on_1, range(6), 2)


def _die_on_1(i):
    if i == 1:  # the first item a child takes
        os._exit(3)
    return i


def _unpicklable_on_1(i):
    return threading.Lock() if i == 1 else i


@needs_fork
@pytest.mark.parametrize("fn", [_die_on_1, _unpicklable_on_1])
def test_a_worker_that_writes_no_results_is_a_child_process_error(monkeypatch, fn):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="worker exited with code [1-9].* without its results"):
        forkmap.fork_map(fn, range(4), 2)


@needs_fork
def test_a_worker_that_exits_cleanly_without_results_is_a_child_process_error(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forkmap, "_write_outcome", lambda fn, items, out: None)
    with pytest.raises(ChildProcessError, match="worker exited with code 0 without its results"):
        forkmap.fork_map(_pid_after, range(4), 2)


@needs_fork
def test_fork_map_returns_a_result_of_many_megabytes_equal(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((500, 768)) for _ in range(2)]  # 3 MB each
    out = forkmap.fork_map(lambda i: (blocks[i], os.getpid()), range(2), 2)
    assert out[0][1] == os.getpid() != out[1][1]
    for (block, _), expect in zip(out, blocks):
        assert block.dtype == expect.dtype and block.tobytes() == expect.tobytes()


@needs_fork
def test_fork_map_returns_results_through_an_unnamed_file_without_memfd(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    out = forkmap.fork_map(_pid_after, range(6), 2)
    assert [square for square, _ in out] == [i * i for i in range(6)]
    assert out[0][1] == os.getpid() != out[1][1]


def test_fork_map_stays_in_process_beside_other_threads():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert forkmap.fork_workers() == 1
        assert {pid for _, pid in forkmap.fork_map(_pid_after, range(4), 4)} == {os.getpid()}
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


def _sweep_and_serialize(trace, caps):
    return (
        multiprocessing.current_process().daemon,
        forkmap.fork_workers(),
        sweep(trace, SimConfig(capacity_bytes=0), caps, jobs=2),
        serialize_trace(trace),
    )


@needs_fork
def test_daemonic_callers_stay_in_process():
    # A multiprocessing.Pool worker is daemonic and may not have children.
    trace = generate_trace(GeneratorConfig(num_requests=300, num_clusters=10, dimension=256,
                                           noise_sigma=0.02, seed=2))
    assert len(trace) * trace.dimension > workload._SPLIT_MIN_VALUES
    caps = [E720, 4 * E720]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        daemon, workers, curve, text = pool.apply_async(
            _sweep_and_serialize, (trace, caps)).get(timeout=120)
    assert daemon and workers == 1
    assert curve == sweep(trace, SimConfig(capacity_bytes=0), caps, jobs=1)
    assert text == serialize_trace(trace)
