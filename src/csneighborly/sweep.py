"""One ordered map over tasks, serial or on a pool, for every sweep.

Every verification sweep (certificate halves, face subsets, dominance subsets,
containment vertices, certificate dumps) applies a check function to a
sequence of tasks.  ``ordered_map`` runs it in this process when jobs == 1
and on a pool of worker processes otherwise, and yields the results in task
order either way, so they are the same for every worker count.  The serial
map is lazy: a sweep that stops reading at its first failure checks nothing
after it.

Only a pooled run imports the process pool (and with it multiprocessing).
Each worker receives the check's context (con, or tables derived from it) as
it is, not rebuilt, so a matrix built without validation is checked on the
pool exactly as in this process.  A worker that dies ends the sweep with
concurrent.futures.process.BrokenProcessPool instead of a wait for its
lost results.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

_NO_TASK = object()


def ordered_map(check, context, tasks, jobs: int = 1):
    """Yield check(context, task) for each task, in task order.

    With jobs > 1 the tasks are listed and handed out in chunks of
    len(tasks) // (8 * jobs) (at least one) to `jobs` worker processes;
    closing the returned iterator early cancels the chunks not yet handed
    out and waits for the rest.
    Raises ValueError when jobs < 1 or there are no tasks.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = iter(tasks)
    first = next(tasks, _NO_TASK)
    if first is _NO_TASK:
        raise ValueError("the sweep has no tasks")
    tasks = chain((first,), tasks)
    if jobs == 1:
        return map(partial(check, context), tasks)
    return _pooled(check, context, list(tasks), jobs)


def _pooled(check, context, tasks, jobs):
    # imported here, so a serial run never loads the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (jobs * 8))
    pool = ProcessPoolExecutor(jobs, initializer=_worker_init,
                               initargs=(check, context))
    try:
        yield from pool.map(_worker_run, tasks, chunksize=chunk)
    finally:
        pool.shutdown(cancel_futures=True)


_WORKER = None                     # (check, context) in a worker process


def _worker_init(check, context):
    global _WORKER
    _WORKER = (check, context)


def _worker_run(task):
    check, context = _WORKER
    return check(context, task)
