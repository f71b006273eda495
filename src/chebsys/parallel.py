"""An order-preserving map of independent work over forked worker processes.

``fork_map(fn, items, cost)`` returns ``[fn(item) for item in items]``.  On
Linux it splits the items into one share per CPU of the process's affinity
mask (so ``taskset`` limits it), capped at the item count, forks a worker
for every share but the lightest and computes that one itself.  It runs
inline off Linux, with one CPU or one item, inside a map, and when the
items' total cost is below ``MIN_COST``.  Items are dealt out heaviest
first, each to the share of least cost so far, so equal costs deal
round-robin.

A worker computes its items from the memory it inherited, so neither ``fn``
nor the items are pickled (closures over exact polynomials work as they
are); it sends its results, pickled, over a pipe and ends with ``os._exit``,
which runs no atexit handler and flushes no inherited stdio buffer.  Nor
does it share imports with the parent after the fork: a module that ``fn``
imports on first use (numpy, for companion-matrix seeds) must be imported
by the caller before the map, or every worker pays for the import.  Forking
is safe here because the package starts no threads, and numpy's OpenBLAS
stops its thread pool before a fork and starts it again when next needed.
If items fail, the exception of the lowest failing index is raised, as the
serial loop would raise it; a worker that ends without sending its results
raises ``WorkerLost``.  Results do not depend on the worker count: every
item is computed by the same code on the same inputs.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from .errors import WorkerLost

# Costs are in Horner steps, one complex multiply-add at a few hundred bits
# on the integer kernel (about 2.9 us on a 2-core x86 VM, Python 3.11).
# Forking a worker and unpickling its results takes about 4.4 ms there, and
# a map split in two saves half its work, so a map of less work than twice
# the fork runs inline.
MIN_COST = 3000

# true inside a map, in the parent and in every worker: a nested map runs inline
_busy = False


def cpu_count() -> int:
    """The CPUs this process may run on; 1 off Linux."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, cost=None) -> list:
    """``[fn(item) for item in items]``, spread over forked workers.

    ``cost(item)`` estimates an item's work in Horner steps; it decides
    whether to fork and which process computes an item, never a result.
    Without ``cost`` every map of two or more items forks.
    """
    global _busy
    items = list(items)
    workers = 1 if _busy else min(cpu_count(), len(items))
    costs = [1 if cost is None else cost(item) for item in items]
    if workers <= 1 or (cost is not None and sum(costs) < MIN_COST):
        return [fn(item) for item in items]
    shares = [[] for _ in range(workers)]
    loads = [0] * workers

    def lightest() -> int:
        return min(range(workers), key=lambda k: (loads[k], len(shares[k])))

    for index in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        k = lightest()
        shares[k].append(index)
        loads[k] += costs[index]
    own = shares.pop(lightest())
    pipes = {}  # pid -> read end, until closed
    alive = []  # forked and not yet reaped
    _busy = True
    try:
        for share in shares:
            try:
                read_fd, write_fd = os.pipe()
            except OSError:  # no descriptor to spare: compute the share here
                own += share
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read_fd)
                os.close(write_fd)
                own += share
                continue
            if pid == 0:
                os.close(read_fd)
                _work(fn, items, share, write_fd)
            alive.append(pid)
            os.close(write_fd)
            pipes[pid] = read_fd
        outcomes = _run_share(fn, items, own)
        for pid in list(pipes):
            # read to the end before reaping, so a large result cannot block
            data = _read_all(pipes[pid])
            os.close(pipes.pop(pid))
            _, status = os.waitpid(pid, 0)
            alive.remove(pid)
            if status != 0 or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerLost(f"worker process {pid} ended ({how}) before sending its results")
            outcomes += pickle.loads(data)
    finally:
        _busy = False
        for read_fd in pipes.values():
            os.close(read_fd)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    results = [None] * len(items)
    failures = {}
    for index, failed, value in outcomes:
        (failures if failed else results)[index] = value
    if failures:
        raise failures[min(failures)]
    return results


def _run_share(fn, items, share) -> list:
    """``(index, failed, result or exception)`` for the items of one share.

    An item after a failure in index order is skipped: the map raises anyway.
    """
    out = []
    first_failure = len(items)
    for index in share:
        if index > first_failure:
            continue
        try:
            out.append((index, False, fn(items[index])))
        except Exception as exc:
            first_failure = min(first_failure, index)
            out.append((index, True, exc))
    return out


def _work(fn, items, share, write_fd) -> None:
    """A worker's whole life: compute the share, send it, and end."""
    global _busy
    code = 1
    try:
        _busy = True
        data = pickle.dumps(_run_share(fn, items, share), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)
