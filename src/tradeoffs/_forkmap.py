"""One pool mechanism for the package: a map over forked worker processes.

``fork_map`` serves ``sim.sweep`` (one capacity per item) and the trace
I/O of ``workload`` (one share of rows or bytes per item). Each process
takes a fixed stride of the items, so the processes share no state. The
workers are forked, so the function and everything it refers to -- a
trace, a config -- reach them by inheritance; only the results are
pickled, each worker's into an unnamed file of its own (in memory where
the platform allows), which this process maps and unpickles once the
worker has exited: no pipe makes either side wait on the other. Fork (a
few ms per worker) rather than spawn, which would import numpy afresh
and pickle the trace into every worker.
"""

from __future__ import annotations

import os
import pickle
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


def _write_outcome(fn: Callable, items: list, out) -> None:
    """A worker's part: pickle ``fn`` of each item, or the error it raised,
    into the file ``out``. A result that cannot be pickled ends the
    worker with an error, before it has written a whole outcome."""
    try:
        outcome = (True, [fn(item) for item in items])
    except Exception as e:  # raised again in the parent
        outcome = (False, e)
    pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
    out.flush()


def fork_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, computed by up to ``workers``
    processes: this one and forked children.

    Of ``w`` processes, process ``j`` computes items ``j``, ``j + w``,
    ``j + 2w``, ...; this process is process 0, and it reads the
    children's results once its own are done. The items are not
    balanced by cost. Results come back in input order. An exception
    that ``fn`` raises in any process is raised here, so errors that
    must be reported in input order belong in ``fn``'s return value; a
    worker that exits without writing its results (it died, or they do
    not pickle) is a :class:`ChildProcessError`. Falls back to a plain
    loop when fewer than two processes would run (see
    :func:`fork_workers`).
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1:
        workers = min(workers, fork_workers())
    if workers < 2:
        return [fn(item) for item in items]
    import mmap
    import multiprocessing
    import tempfile

    ctx = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for j in range(1, workers):
            # An unnamed file for the worker's results, in memory where possible.
            if hasattr(os, "memfd_create"):
                out = open(os.memfd_create("fork_map"), "w+b")
            else:
                out = tempfile.TemporaryFile()
            child = ctx.Process(target=_write_outcome, args=(fn, items[j::workers], out), daemon=True)
            children.append((child, out))
            child.start()
        results = [None] * len(items)
        results[::workers] = [fn(item) for item in items[::workers]]
        for j, (child, out) in enumerate(children, 1):
            child.join()
            size = os.fstat(out.fileno()).st_size
            if child.exitcode != 0 or not size:
                raise ChildProcessError(
                    f"a fork_map worker exited with code {child.exitcode} without its results")
            with mmap.mmap(out.fileno(), size, access=mmap.ACCESS_READ) as view:
                ok, outcome = pickle.loads(view)
            if not ok:
                raise outcome
            results[j::workers] = outcome
        finished = True
        return results
    finally:
        for child, out in children:
            if not finished and child.pid is not None:
                child.terminate()  # its results would not be read
            if child.pid is not None:
                child.join()
            out.close()
