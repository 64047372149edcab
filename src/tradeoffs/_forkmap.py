"""One pool mechanism for the package: a map over forked worker processes.

``fork_map`` serves ``sim.sweep`` (one capacity per item) and the trace
I/O of ``workload`` (one share of rows or bytes per item). The workers
are forked, so the function and everything it refers to -- a trace, a
config -- reach them by inheritance; only the results are pickled. Fork
(a few ms per worker) rather than spawn, which would import numpy afresh
and pickle the trace into every worker.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_workers() -> int:
    """How many processes a ``fork_map`` can use here: the usable CPUs,
    or 1 where this process should not fork -- the platform has no fork
    start method; this process is daemonic (a ``multiprocessing.Pool``
    worker, or a ``fork_map`` worker), which may not have children; or it
    runs other threads, whose locks a forked child could find held
    forever."""
    # Imported here, so that commands that never consider forking (replay,
    # fit) do not pay for it at startup.
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return 1
    return _usable_cpus()


def _send_outcome(work: Callable, send) -> None:
    """A worker's part: run ``work`` and send back its result or its error."""
    try:
        outcome = (True, work())
    except Exception as e:  # raised again in the parent
        outcome = (False, e)
    send.send(outcome)


def fork_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, computed by up to ``workers``
    processes: this one and forked children.

    This process computes the first item while the children start on
    the next ones; from then on every process takes the next item not
    yet taken until none is left, so items of uneven cost balance out.
    This process reads the children's results once its own are done.
    Results come back in input order. An exception that ``fn`` raises in
    any process is raised here, so errors that must be reported in input
    order belong in ``fn``'s return value. Falls back to a plain loop
    when fewer than two processes would run (see :func:`fork_workers`).
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1:
        workers = min(workers, fork_workers())
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("q", 1)  # the next item to take; item 0 is this process's

    def work() -> list[tuple[int, object]]:
        done = []
        while True:
            with taken.get_lock():
                i = taken.value
                taken.value = i + 1
            if i >= len(items):
                return done
            done.append((i, fn(items[i])))

    children = []
    finished = False
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_outcome, args=(work, send), daemon=True)
            children.append((child, recv))
            child.start()
            send.close()
        results = [fn(items[0])] + [None] * (len(items) - 1)
        for i, result in work():
            results[i] = result
        for child, recv in children:
            try:
                ok, outcome = recv.recv()
            except EOFError:
                raise ChildProcessError("a fork_map worker died before it sent its results") from None
            if not ok:
                raise outcome
            for i, result in outcome:
                results[i] = result
        finished = True
        return results
    finally:
        for child, recv in children:
            if not finished and child.pid is not None:
                child.terminate()  # it may be blocked sending to a pipe nobody reads
            if child.pid is not None:
                child.join()
            recv.close()
