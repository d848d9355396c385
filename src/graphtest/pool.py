"""The worker pool behind every parallel phase, and the one rule that cuts
repeated work into its tasks.

:func:`plan` cuts units of repeated work (the cells of ``simulate``, the
passes of ``realdata`` and ``test``) into repetition chunks, costliest
first.  :func:`map_tasks` maps a function over argument tuples on worker
processes and returns the results in task order, so a caller that reduces
them in that order gets the same output for any worker count.  With one
worker or one task it runs in this process.  The ``shared`` value, the
function's first argument in every task, reaches each worker once, through
the pool initializer (inherited, not pickled, where the pool forks),
instead of being pickled with every task.
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


def plan(costs, reps: int, workers: int) -> list[tuple[int, int, int]]:
    """Chunks ``(unit, start, stop)`` covering repetitions ``0..reps-1`` of
    every unit exactly once, costliest first.

    A repetition of unit ``u`` costs ``costs[u]``.  Each unit is cut into
    the fewest near-equal chunks (sizes differ by at most one) whose cost
    stays within ``1 / (4 * workers)`` of the total work, or into single
    repetitions when one alone exceeds that.  Handed out in this order
    (Graham's longest-processing-time rule), no large chunk starts last and
    leaves a worker idle.  Ties in cost keep ``(unit, start)`` order."""
    total = reps * sum(costs)
    chunks = []
    for unit, cost in enumerate(costs):
        per_chunk = min(reps, max(1, total // (4 * workers * cost)))
        count = -(-reps // per_chunk)
        bounds = [reps * i // count for i in range(count + 1)]
        chunks += [(unit, a, b) for a, b in zip(bounds, bounds[1:])]
    return sorted(chunks, key=lambda c: (-(c[2] - c[1]) * costs[c[0]], c[0], c[1]))


def map_tasks(fn, shared, tasks, workers: int = 1) -> list:
    """``[fn(shared, *task) for task in tasks]`` on at most ``workers``
    processes (never more than there are tasks).  Every worker is joined
    before this returns, also when a task raises; the first task in order
    that raised re-raises here."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(shared, *task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_shared,
                             initargs=(shared,)) as pool:
        return list(pool.map(_call_shared, repeat(fn), *zip(*tasks)))
