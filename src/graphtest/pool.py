"""The worker pool behind every parallel phase.

:func:`map_tasks` maps a function over argument tuples on worker processes
and returns the results in task order, so a caller that reduces them in
that order gets the same output for any worker count.  With one worker or
one task it runs in this process.  A ``shared`` value reaches each worker
once, through the pool initializer (inherited, not pickled, where the pool
forks), instead of being pickled with every task.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

_worker_shared = None  # set once in each worker process by its initializer


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_shared(value) -> None:
    global _worker_shared
    _worker_shared = value


def _call_shared(fn, *task):
    return fn(_worker_shared, *task)


def map_tasks(fn, tasks, workers: int = 1, shared=None) -> list:
    """``[fn(*task) for task in tasks]``, or ``fn(shared, *task)`` when
    ``shared`` is not None, on at most ``workers`` processes (never more
    than there are tasks).  Every worker is joined before this returns,
    also when a task raises; the first task in order that raised re-raises
    here."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1:
        first = () if shared is None else (shared,)
        return [fn(*first, *task) for task in tasks]
    if shared is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_shared,
                             initargs=(shared,)) as pool:
        return list(pool.map(_call_shared, repeat(fn), *zip(*tasks)))
