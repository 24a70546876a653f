"""One ordered map over tasks, serial or on a pool, for every sweep.

Every verification sweep (certificate rows, face subsets, dominance subsets,
containment vertices, certificate dumps) applies a check function to a
sequence of tasks.  ``ordered_map`` runs it in this process when jobs == 1
and on a pool of worker processes otherwise, and yields the results in task
order either way.  A sweep that stops at its first failure passes a
``failed`` predicate: the map ends right after the first result, in task
order, that the predicate marks.  Results are therefore the same for every
worker count, on the failure path too.

Each worker rebuilds the construction once, from the Hadamard signs and
alpha, and then applies the check to its chunks of tasks.
"""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from functools import partial
from itertools import chain

from .construction import build
from .hadamard import HadamardMatrix

_NO_TASK = object()


def ordered_map(check, con, tasks, jobs: int = 1, failed=None):
    """Yield check(con, task) for each task, in task order.

    With jobs > 1 the tasks are listed and handed out in chunks of
    len(tasks) // (8 * jobs) (at least one) to `jobs` worker processes; con
    must then be a Construction.  With jobs == 1, con is passed to check as
    it is.  The map stops after the first result for which failed(result)
    is true.  Raises ValueError when jobs < 1 or there are no tasks.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = iter(tasks)
    first = next(tasks, _NO_TASK)
    if first is _NO_TASK:
        raise ValueError("the sweep has no tasks")
    tasks = chain((first,), tasks)
    if jobs == 1:
        return _until_failed(map(partial(check, con), tasks), failed)
    return _pooled(check, con, list(tasks), jobs, failed)


def _until_failed(results, failed):
    for result in results:
        yield result
        if failed is not None and failed(result):
            return


def _pooled(check, con, tasks, jobs, failed):
    chunk = max(1, len(tasks) // (jobs * 8))
    ctx = multiprocessing.get_context()
    initargs = (check, con.hadamard.signs, str(con.params.alpha))
    # leaving the block terminates the pool, so chunks still running past
    # the first failure are dropped
    with ctx.Pool(jobs, initializer=_worker_init, initargs=initargs) as pool:
        yield from _until_failed(pool.imap(_worker_run, tasks, chunk), failed)


_WORKER = None                     # (check, construction) in a worker process


def _worker_init(check, signs, alpha):
    global _WORKER
    con = build(HadamardMatrix(signs), alpha=Fraction(alpha), verify=False)
    _WORKER = (check, con)


def _worker_run(task):
    check, con = _WORKER
    return check(con, task)
