"""The worker pool behind every parallel phase, and the one rule that cuts
repeated work into its tasks.

:func:`stream` cuts units of repeated work (the cells of ``simulate``, the
passes of ``realdata`` and ``test``, the files of ``load_groups``) into
repetition chunks, runs them costliest first on worker processes, and
yields each chunk's value in that plan order as it is ready, so a caller
can store it and let it go at once.  A unit's larger chunks are planned
first, so each unit's chunks come in ``start`` order, and :func:`run`
joins the values per unit in stream order: a caller that reduces them in
that order gets the same output for any worker count.  With one
worker or one chunk the chunks run in this process.  The ``shared`` value
reaches each worker once, through the pool initializer (inherited, not
pickled, where the pool forks), instead of being pickled with every chunk.
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


def _plan(costs, reps: int, workers: int) -> list[tuple[int, int, int]]:
    """Chunks ``(unit, start, stop)`` covering repetitions ``0..reps-1`` of
    every unit exactly once (none when ``reps`` is 0), costliest first.

    A repetition of unit ``u`` costs ``costs[u]``.  Each unit is cut into
    the fewest near-equal chunks (sizes differ by at most one, the larger
    ones first) whose cost stays within ``1 / (4 * workers)`` of the total
    work, or into single repetitions when one alone exceeds that.  Handed
    out in this order (Graham's longest-processing-time rule), no large
    chunk starts last and leaves a worker idle.  Ties in cost keep
    ``(unit, start)`` order, so each unit's chunks are in ``start``
    order."""
    if not reps:
        return []
    total = reps * sum(costs)
    chunks = []
    for unit, cost in enumerate(costs):
        per_chunk = min(reps, max(1, total // (4 * workers * cost)))
        count = -(-reps // per_chunk)
        size, larger = divmod(reps, count)
        bounds = [i * size + min(i, larger) for i in range(count + 1)]
        chunks += [(unit, a, b) for a, b in zip(bounds, bounds[1:])]
    return sorted(chunks, key=lambda c: (-(c[2] - c[1]) * costs[c[0]], c[0], c[1]))


def stream(fn, shared, units, costs, reps: int, workers: int):
    """Yield ``(unit, start, stop, fn(shared, units[unit], start, stop))``
    for each chunk of :func:`_plan`, in plan order, as soon as it and every
    chunk before it have run.  A unit's chunks cover its repetitions
    ``0..reps-1`` and come in ``start`` order; one repetition of
    ``units[i]`` costs ``costs[i]``.

    The chunks run on at most ``workers`` processes (never more than there
    are chunks).  The first chunk in plan order that raised re-raises here.
    When the stream ends, raises, or is closed early, chunks that have not
    started are cancelled and every worker is joined."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    chunks = _plan(costs, reps, workers)
    workers = min(workers, len(chunks))
    if workers <= 1:
        for unit, start, stop in chunks:
            yield unit, start, stop, fn(shared, units[unit], start, stop)
        return
    tasks = [(units[unit], start, stop) for unit, start, stop in chunks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_shared,
                             initargs=(shared,)) as executor:
        values = executor.map(_call_shared, repeat(fn), *zip(*tasks))
        try:
            for chunk, value in zip(chunks, values):
                yield *chunk, value
        finally:
            # The map's iterator cancels the chunks not yet started when it
            # is dropped, so leaving the block waits only for those running.
            del values


def run(fn, shared, units, costs, reps: int, workers: int) -> list[list]:
    """For each of ``units`` in order, the values of its chunks from
    :func:`stream`, joined in stream order, which is ``start`` order."""
    joined = [[] for _ in units]
    for unit, _, _, value in stream(fn, shared, units, costs, reps, workers):
        joined[unit].append(value)
    return joined
