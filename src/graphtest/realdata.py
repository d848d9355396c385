"""Pipeline for observed weighted-network groups of unequal size.

The paired statistics need equally sized groups, so unequal groups are
equalized per repetition, either by oversampling the smaller group up to
the larger size or by subsampling the larger group down.  A repetition
selects rows without copying them: it draws one row-index vector per
group, and the statistics read the split's graphs through them from the
loaded samples.  Each repetition then draws a fresh random split and
computes the requested statistics, and the batch of statistics is reduced
to a five-number summary (NA repetitions are excluded and counted).
:func:`run_passes` is the one split loop: it runs the repetitions on the
weighted groups and again on absolute-value binarized copies of the graphs
for each threshold.  ``graphtest test`` runs it too, with the
``split_only`` strategy on equal groups and no threshold.

Loading and the passes run on worker processes through
:func:`graphtest.pool.run`, which cuts both into chunks by one rule.  The
files of all groups are read in name-order chunks and checked file by file
in that order.  Passes are cut into repetition chunks, and repetition
``r`` of every pass draws from ``substream(seed, r)`` whichever chunk runs
it.  So samples, results and errors are the same for any worker count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import pool
from .errors import (
    DataLoadError,
    GraphTestError,
    MixedDimensionsError,
    UnequalWithSplitOnlyError,
)
from .graphs import (
    FiveNumberSummary,
    GraphSample,
    five_number_summary,
    load_adjacency_csv,
    pair_layout,
    threshold_binarize,
)
from .models import TwoBlockModel, sample_population
from .rng import substream
from .twosample import TestResult, random_partition, run_methods

STRATEGIES = ("oversample_smaller", "subsample_larger", "split_only")


@dataclass(frozen=True)
class ResamplingPlan:
    strategy: str
    repetitions: int
    seed: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")


@dataclass(frozen=True, eq=False)
class RepeatedRun:
    """All repetitions of one method: raw results, summary of the non-NA
    statistics (None if every repetition was NA), and the NA count."""

    method: str
    results: tuple[TestResult, ...]
    summary: FiveNumberSummary | None
    na_count: int


def _csv_paths(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise DataLoadError(f"{directory} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
    if not paths:
        raise DataLoadError(f"no .csv files in {directory}")
    return paths


def _read_files(paths, _, start: int, stop: int):
    """``(n, pair vector)`` for each file in ``paths[start:stop]``, or that
    file's :class:`DataLoadError` in its place; reading goes on past an
    error."""
    entries = []
    for path in paths[start:stop]:
        try:
            graph = load_adjacency_csv(path)
        except (GraphTestError, OSError, ValueError) as err:
            entries.append(DataLoadError(f"{path.name}: {err}"))
        else:
            entries.append((graph.n, graph.weights[pair_layout(graph.n)]))
    return entries


def load_groups(directories, workers: int = 1) -> tuple[GraphSample, ...]:
    """One sample per directory, of every ``*.csv`` adjacency file in it in
    name order, reading the files on up to ``workers`` processes.

    The files of all groups, in name order, are cut into chunks of equal
    cost by :func:`graphtest.pool.run`.  Whatever the worker count, the error
    raised is the first one a file-by-file load of the directories in
    order meets: an unreadable file, a file whose node count differs from
    its group's first file, or a directory without ``.csv`` files."""
    listed, late = [], None
    for directory in map(Path, directories):
        try:
            listed.append(_csv_paths(directory))
        except (DataLoadError, OSError) as err:
            late = err
            break
    paths = list(chain.from_iterable(listed))
    # Popped as used, so each group's vectors are freed once it is stacked.
    entries = deque(chain.from_iterable(*pool.run(
        _read_files, paths, [None], [1], len(paths), workers)))

    samples = []
    for group in listed:
        rows = []
        for path in group:
            entry = entries.popleft()
            if isinstance(entry, DataLoadError):
                raise entry
            n, row = entry
            if rows and n != n0:
                raise MixedDimensionsError(f"{path.name} has {n} nodes, expected "
                                           f"{n0} (from {group[0].name})")
            n0 = n
            rows.append(row)
        samples.append(GraphSample.from_edges(np.stack(rows)))
    if late is not None:
        raise late
    return tuple(samples)


def _equalize_rows(
    m_a: int, m_b: int, strategy: str, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index vectors of equal length into groups of ``m_a`` and ``m_b``
    graphs: the rows each group has after resampling to a common size.

    ``oversample_smaller`` keeps the smaller group's rows in order and
    appends draws from them (without replacement while the deficit fits,
    with replacement otherwise); ``subsample_larger`` keeps a
    without-replacement draw from the larger group; ``split_only`` requires
    already-equal groups.  A group that is not resampled gets all its rows
    in order, and equal groups draw nothing from ``rng``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    rows_a, rows_b = np.arange(m_a), np.arange(m_b)
    if m_a == m_b:
        return rows_a, rows_b
    if strategy == "split_only":
        raise UnequalWithSplitOnlyError(
            f"groups have {m_a} and {m_b} graphs; split_only needs equal sizes"
        )

    small, large = (rows_a, rows_b) if m_a < m_b else (rows_b, rows_a)
    if strategy == "oversample_smaller":
        deficit = large.size - small.size
        extra = rng.choice(small.size, size=deficit, replace=deficit > small.size)
        small = np.concatenate((small, extra))
    else:  # subsample_larger
        large = rng.choice(large.size, size=small.size, replace=False)
    return (small, large) if m_a < m_b else (large, small)


def equalize(
    sample_a: GraphSample,
    sample_b: GraphSample,
    strategy: str,
    rng: np.random.Generator,
) -> tuple[GraphSample, GraphSample]:
    """The groups :func:`_equalize_rows` selects, as samples: a group that is
    not resampled is returned as is, a resampled one is a copy of its
    selected rows.  Output graphs are always members of the input groups,
    never synthesized.  The split loop reads the rows in place instead."""
    rows = _equalize_rows(sample_a.m, sample_b.m, strategy, rng)
    return tuple(sample if r.size == sample.m else GraphSample.from_edges(sample.edges[r])
                 for sample, r in zip((sample_a, sample_b), rows))


def _run_chunk(groups, tau: float | None, start: int, stop: int) -> list:
    """The ``run_methods`` results of repetitions ``start..stop-1`` on
    ``groups`` (both samples and the test settings), binarized at ``tau``
    unless it is None.  Repetition ``r`` equalizes and then draws one split
    that every method shares, both from ``substream(plan.seed, r)``; equal
    groups draw nothing in :func:`_equalize_rows`.  The split is tested on
    the selected rows of the samples, which are not copied.  ``drop_last``
    drops the last selected row of odd groups, unless that would empty
    them."""
    sample_a, sample_b, plan, methods, alpha, drop_last = groups
    if tau is not None:
        sample_a = threshold_binarize(sample_a, tau)
        sample_b = threshold_binarize(sample_b, tau)
    replicates = []
    for rep in range(start, stop):
        rng = substream(plan.seed, rep)
        rows_a, rows_b = _equalize_rows(sample_a.m, sample_b.m, plan.strategy, rng)
        if drop_last and rows_a.size % 2 != 0 and rows_a.size > 1:
            rows_a, rows_b = rows_a[:-1], rows_b[:-1]
        partition = random_partition(rows_a.size, rng)
        replicates.append(run_methods(methods, sample_a, sample_b, partition, alpha,
                                      (rows_a, rows_b)))
    return replicates


def _repeated_run(method: str, results: tuple[TestResult, ...]) -> RepeatedRun:
    valid = [r.statistic for r in results if not r.is_na]
    return RepeatedRun(method=method, results=results,
                       summary=five_number_summary(valid) if valid else None,
                       na_count=len(results) - len(valid))


def run_passes(
    sample_a: GraphSample,
    sample_b: GraphSample,
    plan: ResamplingPlan,
    methods: tuple[str, ...] = ("tn", "tfro"),
    alpha: float = 0.05,
    drop_last: bool = False,
    taus=(),
    workers: int = 1,
) -> tuple[dict[str, RepeatedRun], list[tuple[float, dict[str, RepeatedRun]]]]:
    """Equalize + split + test, repeated ``plan.repetitions`` times on the
    weighted groups, then on both groups binarized at each of ``taus``.

    :func:`graphtest.pool.run` cuts the passes, of equal cost, into
    repetition chunks for up to ``workers`` processes, which receive the
    groups once; a chunk binarizes them at its own tau.  Each pass's
    results are joined in repetition order, so nothing depends on
    ``workers``.  Returns the weighted runs and ``(tau, runs)`` per
    threshold; a method that is NA in every repetition of a pass gets a
    None summary."""
    passes = (None, *taus)
    groups = (sample_a, sample_b, plan, methods, alpha, drop_last)
    runs = pool.run(_run_chunk, groups, passes, [1] * len(passes),
                    plan.repetitions, workers)
    weighted, *swept = ({method: _repeated_run(method, results) for method, results
                         in zip(methods, zip(*chain.from_iterable(chunks)))}
                        for chunks in runs)
    return weighted, list(zip(passes[1:], swept))


def make_synthetic_groups(
    n: int = 100,
    size_a: int = 54,
    size_b: int = 70,
    epsilon: float = 0.7,
    seed: int = 20240817,
    within: tuple[float, float] = (2.0, 3.0),
    between: tuple[float, float] = (1.0, 3.0),
) -> tuple[GraphSample, GraphSample]:
    """Synthetic stand-in for observed groups of unequal size.

    Group A comes from the unshifted two-block Beta design, group B from
    the epsilon-shifted one; the defaults are deliberately unequal so the
    equalization strategies have work to do.  Fixed seed, so fixtures are
    reproducible.
    """
    model = TwoBlockModel(n=n, family="beta", within=within, between=between,
                          epsilon=epsilon)
    group_a = sample_population(model, False, size_a, substream(seed, 0))
    group_b = sample_population(model, True, size_b, substream(seed, 1))
    return group_a, group_b
