"""Pipeline for observed weighted-network groups of unequal size.

The paired statistics need two equally sized, even groups.  A strategy
only picks the common size (the larger group size to oversample to, the
smaller to subsample to, or the shared size of ``split_only``), and one
rule checks it, before any repetition: in :func:`run_passes`, and on the
file counts in :func:`load_groups` before any file is read.  A repetition
selects rows of that size without copying them: it draws one row-index
vector per group, each group on its own, and the statistics read the
split's graphs through them from the loaded samples.  It then draws a fresh
random split and computes the requested statistics, and the batch of
statistics is reduced to a five-number summary (NA repetitions are
excluded and counted).  :func:`run_passes` is the one split loop: it runs
the repetitions on the weighted groups and again on absolute-value
binarized copies of the graphs for each threshold.  ``graphtest test``
runs it too, with the ``split_only`` strategy and no threshold.

Loading and the passes run on worker processes through
:mod:`graphtest.pool`, which cuts both into chunks by one rule.  The files
of all groups are listed first and then read in name-order chunks, which
come back in name order; each file is checked as its chunk arrives and its
pair vector goes into its group's edge array, so a load holds every graph
once and stops at the first bad file.  Passes are cut into repetition
chunks, and repetition ``r`` of every pass draws from ``substream(seed, r)``
whichever chunk runs it.  So samples, results and errors are the same for
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import pool
from .errors import (
    DataLoadError,
    DimensionMismatchError,
    GraphTestError,
    MixedDimensionsError,
    OddSampleSizeError,
    SampleSizeMismatchError,
    TooFewSamplesError,
)
from .graphs import (
    FiveNumberSummary,
    GraphSample,
    five_number_summary,
    load_adjacency_csv,
    threshold_binarize,
)
from .models import TwoBlockModel, sample_population
from .rng import substream
from .twosample import TestResult, random_partition, run_methods

STRATEGIES = ("oversample_smaller", "subsample_larger", "split_only")


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


@dataclass(frozen=True)
class ResamplingPlan:
    strategy: str
    repetitions: int
    seed: int

    def __post_init__(self):
        _check_strategy(self.strategy)
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")


@dataclass(frozen=True, eq=False)
class RepeatedRun:
    """All repetitions of one method: raw results (decided only when
    :func:`run_passes` was given an ``alpha``), summary of the non-NA
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
    """``(n, float64 bytes of the pair vector)`` for each file in
    ``paths[start:stop]`` in order, up to and including the first that
    fails, whose :class:`DataLoadError` ends the list.  Bytes, not arrays:
    with the vectors sent back as pickled arrays, a two-worker ``realdata``
    run on 54 v 70 graphs of 100 nodes peaked about 1.5 MB higher."""
    entries = []
    for path in paths[start:stop]:
        try:
            graph = load_adjacency_csv(path)
        except (GraphTestError, OSError, ValueError) as err:
            entries.append(DataLoadError(f"{path.name}: {err}"))
            break
        entries.append((graph.n, graph.edges[0].tobytes()))
    return entries


def load_groups(directories, workers: int = 1, strategy: str | None = None,
                drop_last: bool = False) -> tuple[GraphSample, ...]:
    """One sample per directory, of every ``*.csv`` adjacency file in it in
    name order, reading the files on up to ``workers`` processes.

    Every directory is listed first, so a missing one, or one without
    ``.csv`` files, fails before any file is read.  Given a ``strategy``,
    the file counts of the two directories must then pass
    :func:`_split_sizes` with ``drop_last``, so a size error too comes
    before any file is read.  The files of all groups, in name order, are
    then cut into chunks of equal cost by :func:`graphtest.pool.stream`,
    which yields them in that order.  Each file is checked as its chunk
    arrives and its pair vector written into its group's edge array,
    allocated from the group's first file, so the groups are held once.
    The first unreadable file, or file whose node count differs from its
    group's first file, raises at once, and so, given a ``strategy``, does
    group B's first file if its node count differs from group A's; the
    chunks not yet started are cancelled, so the error is the same for any
    worker count."""
    listed = [_csv_paths(Path(directory)) for directory in directories]
    if strategy is not None:
        _split_sizes(*map(len, listed), strategy, drop_last)
    paths = list(chain.from_iterable(listed))
    slots = [(g, k) for g, group in enumerate(listed) for k in range(len(group))]
    edges = [None] * len(listed)
    for _, start, stop, entries in pool.stream(_read_files, paths, [None], [1],
                                               len(paths), workers):
        for (g, k), entry in zip(slots[start:stop], entries):
            if isinstance(entry, DataLoadError):
                raise entry
            n, row = entry
            row = np.frombuffer(row)
            if k == 0:
                # With a strategy there are two groups, and n0 is still group A's.
                if g and strategy is not None and n != n0:
                    raise DimensionMismatchError(f"groups have {n0} and {n} nodes")
                n0, edges[g] = n, np.empty((len(listed[g]), row.size))
            elif n != n0:
                raise MixedDimensionsError(f"{listed[g][k].name} has {n} nodes, "
                                           f"expected {n0} (from {listed[g][0].name})")
            edges[g][k] = row
        del entries  # free this chunk before the next one is read
    return tuple(map(GraphSample.from_edges, edges))


def _common_size(m_a: int, m_b: int, strategy: str) -> int:
    """The group size after resampling by ``strategy``, one of
    :data:`STRATEGIES`; ``split_only`` needs equal groups."""
    if strategy == "oversample_smaller":
        return max(m_a, m_b)
    if strategy == "subsample_larger":
        return min(m_a, m_b)
    if m_a != m_b:
        raise SampleSizeMismatchError(
            f"groups have {m_a} and {m_b} graphs; equalize them first (see the "
            "realdata subcommand)")
    return m_a


def _split_sizes(m_a: int, m_b: int, strategy: str,
                 drop_last: bool) -> tuple[int, int]:
    """The common size of groups of ``m_a`` and ``m_b`` graphs under
    ``strategy`` (:func:`_common_size`), and how many of its graphs each
    split keeps.  A size below 2 is a :class:`TooFewSamplesError`;
    ``drop_last`` drops the last graph of an odd size, which is otherwise
    an :class:`OddSampleSizeError`."""
    size = _common_size(m_a, m_b, strategy)
    if size < 2:
        raise TooFewSamplesError(f"need at least 2 graphs per group, got {size}")
    keep = size - 1 if drop_last and size % 2 else size
    if keep % 2:
        raise OddSampleSizeError(
            f"group size {size} is odd; pass --drop-last to discard one pair")
    return size, keep


def _equalize_rows(m_a: int, m_b: int, size: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Row-index vectors of ``size`` entries into groups of ``m_a`` and
    ``m_b`` graphs, each group resampled on its own.  A smaller group keeps
    its rows in order and appends draws from them (without replacement
    while the deficit fits, with replacement otherwise), a larger group
    keeps a without-replacement draw, and a group of ``size`` graphs gets
    all its rows in order and draws nothing from ``rng``."""
    def rows(m: int) -> np.ndarray:
        if m == size:
            return np.arange(m)
        if m > size:
            return rng.choice(m, size=size, replace=False)
        extra = rng.choice(m, size=size - m, replace=size - m > m)
        return np.concatenate((np.arange(m), extra))
    return rows(m_a), rows(m_b)


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
    _check_strategy(strategy)
    size = _common_size(sample_a.m, sample_b.m, strategy)
    rows = _equalize_rows(sample_a.m, sample_b.m, size, rng)
    return tuple(sample if r.size == sample.m else GraphSample.from_edges(sample.edges[r])
                 for sample, r in zip((sample_a, sample_b), rows))


def _run_chunk(groups, tau: float | None, start: int, stop: int) -> list:
    """The ``run_methods`` results of repetitions ``start..stop-1`` on
    ``groups`` (both samples and the test settings, ``alpha`` None or the
    level to decide at), binarized at ``tau``
    unless it is None.  Repetition ``r`` selects ``size`` rows of each group
    and then draws one split of the first ``keep`` that every method
    shares, both from ``substream(seed, r)``; a group of ``size`` graphs
    draws nothing in :func:`_equalize_rows`.  The split is tested on the
    selected rows of the samples, which are not copied."""
    sample_a, sample_b, (seed, size, keep), methods, alpha = groups
    if tau is not None:
        sample_a = threshold_binarize(sample_a, tau)
        sample_b = threshold_binarize(sample_b, tau)
    replicates = []
    for rep in range(start, stop):
        rng = substream(seed, rep)
        rows_a, rows_b = _equalize_rows(sample_a.m, sample_b.m, size, rng)
        partition = random_partition(keep, rng)
        replicates.append(run_methods(methods, sample_a, sample_b, partition, alpha,
                                      (rows_a[:keep], rows_b[:keep])))
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
    alpha: float | None = None,
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
    None summary.  Each result is decided at ``alpha``, or left undecided
    when it is None, as the summaries need no decision.  Before any repetition, the sizes are checked by
    :func:`_split_sizes`, with ``drop_last``."""
    size, keep = _split_sizes(sample_a.m, sample_b.m, plan.strategy, drop_last)
    passes = (None, *taus)
    groups = (sample_a, sample_b, (plan.seed, size, keep), methods, alpha)
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
