import multiprocessing
import os
import threading
import time

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


def _pid_after(i):
    time.sleep(0.002 * (i % 5))
    return i * i, os.getpid()


@needs_fork
def test_fork_map_keeps_input_order_with_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 8)
    me, out = _run_in_child(lambda: (os.getpid(), forkmap.fork_map(_pid_after, range(60), 8)))
    assert [square for square, _ in out] == [i * i for i in range(60)]
    pids = {pid for _, pid in out}
    assert out[0][1] == me and len(pids) > 1


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
