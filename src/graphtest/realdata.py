"""Pipeline for observed weighted-network groups of unequal size.

The paired statistics need equally sized groups, so unequal groups are
equalized per repetition, either by oversampling the smaller group up to
the larger size or by subsampling the larger group down.  Each repetition
then draws a fresh random split, computes the requested statistics, and the
batch of statistics is reduced to a five-number summary (NA repetitions are
excluded and counted).  A threshold sweep repeats the whole procedure on
absolute-value binarized copies of the graphs for each threshold.

Loading and the passes (weighted, then one per threshold) can run on worker
processes through :func:`graphtest.pool.map_tasks`.  The files of all
groups are read in name-order runs, one per worker, and checked file by
file in that order; passes are reduced in order.  So samples, results and
errors are the same for any worker count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    AllNAError,
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
from .pool import map_tasks
from .rng import substream
from .twosample import TestResult, random_partition, run_methods

STRATEGIES = ("oversample_smaller", "subsample_larger", "split_only")


@dataclass(frozen=True, eq=False)
class GroupDataset:
    """One group of observed networks plus where they came from."""

    label: str
    sample: GraphSample
    source_paths: tuple[Path, ...]


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

    @property
    def repetitions(self) -> int:
        return len(self.results)

    def statistics(self) -> list[float]:
        return [r.statistic for r in self.results if not r.is_na]


@dataclass(frozen=True, eq=False)
class SweepRow:
    tau: float
    method: str
    summary: FiveNumberSummary | None
    na_count: int
    repetitions: int


def _csv_paths(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise DataLoadError(f"{directory} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
    if not paths:
        raise DataLoadError(f"no .csv files in {directory}")
    return paths


def _read_files(tolerance: float, paths):
    """``(n, pair vector)`` for each file in ``paths``, or that file's
    :class:`DataLoadError` in its place; reading goes on past an error."""
    entries = []
    for path in paths:
        try:
            graph = load_adjacency_csv(path, tolerance)
        except (GraphTestError, OSError, ValueError) as err:
            entries.append(DataLoadError(f"{path.name}: {err}"))
        else:
            entries.append((graph.n, graph.weights[pair_layout(graph.n)]))
    return entries


def load_groups(directories, tolerance: float = 1e-9,
                workers: int = 1) -> tuple[GroupDataset, ...]:
    """:func:`load_group` for each directory, reading the files on up to
    ``workers`` processes.

    The files of all groups, in name order, are cut into ``workers``
    near-equal runs, one task each.  Whatever the worker count, the error
    raised is the first one a file-by-file load of the directories in
    order meets: an unreadable file, a file whose node count differs from
    its group's first file, or a directory without ``.csv`` files."""
    listed, late = [], None
    for directory in map(Path, directories):
        try:
            listed.append((directory, _csv_paths(directory)))
        except (DataLoadError, OSError) as err:
            late = err
            break
    paths = [path for _, group in listed for path in group]
    count = max(1, min(workers, len(paths)))
    bounds = [len(paths) * i // count for i in range(count + 1)]
    runs = [(paths[a:b],) for a, b in zip(bounds, bounds[1:])]
    # Popped as used, so each group's vectors are freed once it is stacked.
    entries = deque(chain.from_iterable(
        map_tasks(_read_files, tolerance, runs, workers)))

    datasets = []
    for directory, group in listed:
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
        datasets.append(GroupDataset(directory.name,
                                     GraphSample.from_edges(np.stack(rows)),
                                     tuple(group)))
    if late is not None:
        raise late
    return tuple(datasets)


def load_group(directory, tolerance: float = 1e-9,
               workers: int = 1) -> GroupDataset:
    """Load every ``*.csv`` adjacency file in a directory, in name order."""
    (dataset,) = load_groups([directory], tolerance, workers)
    return dataset


def equalize(
    sample_a: GraphSample,
    sample_b: GraphSample,
    strategy: str,
    rng: np.random.Generator,
) -> tuple[GraphSample, GraphSample]:
    """Resample one group so both have the same size.

    ``oversample_smaller`` appends draws from the smaller group (without
    replacement while the deficit fits, with replacement otherwise);
    ``subsample_larger`` keeps a without-replacement draw from the larger
    group; ``split_only`` requires already-equal groups.  Output graphs are
    always members of the input groups, never synthesized.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if sample_a.m == sample_b.m:
        return sample_a, sample_b
    if strategy == "split_only":
        raise UnequalWithSplitOnlyError(
            f"groups have {sample_a.m} and {sample_b.m} graphs; "
            "split_only needs equal sizes"
        )

    small, large = (sample_a, sample_b) if sample_a.m < sample_b.m else (sample_b, sample_a)
    if strategy == "oversample_smaller":
        deficit = large.m - small.m
        replace = deficit > small.m
        extra = rng.choice(small.m, size=deficit, replace=replace)
        grown = np.concatenate((small.edges, small.edges[extra]))
        out_small, out_large = GraphSample.from_edges(grown), large
    else:  # subsample_larger
        keep = rng.choice(large.m, size=small.m, replace=False)
        out_small, out_large = small, GraphSample.from_edges(large.edges[keep])

    if sample_a.m < sample_b.m:
        return out_small, out_large
    return out_large, out_small


def _drop_last_pair(a: GraphSample, b: GraphSample) -> tuple[GraphSample, GraphSample]:
    return GraphSample.from_edges(a.edges[:-1]), GraphSample.from_edges(b.edges[:-1])


def repeated_tests(
    sample_a: GraphSample,
    sample_b: GraphSample,
    plan: ResamplingPlan,
    methods: tuple[str, ...] = ("tn",),
    alpha: float = 0.05,
    drop_last: bool = False,
) -> dict[str, RepeatedRun]:
    """Equalize + split + test, repeated ``plan.repetitions`` times.

    Each repetition derives its stream from ``(plan.seed, repetition)`` and
    uses one shared split for every method, so methods are compared on
    identical resamples.  Raises :class:`AllNAError` only when *every*
    result of every method is NA; a single all-NA method simply gets a None
    summary.
    """
    replicates = []
    for rep in range(plan.repetitions):
        rng = substream(plan.seed, rep)
        eq_a, eq_b = equalize(sample_a, sample_b, plan.strategy, rng)
        if drop_last and eq_a.m % 2 != 0:
            eq_a, eq_b = _drop_last_pair(eq_a, eq_b)
        partition = random_partition(eq_a.m, rng)
        replicates.append(run_methods(methods, eq_a, eq_b, partition, alpha))

    if all(r.is_na for results in replicates for r in results):
        raise AllNAError(
            f"all {plan.repetitions} repetitions produced undefined statistics"
        )

    runs = {}
    for method, results in zip(methods, zip(*replicates)):
        valid = [r.statistic for r in results if not r.is_na]
        runs[method] = RepeatedRun(
            method=method,
            results=results,
            summary=five_number_summary(valid) if valid else None,
            na_count=len(results) - len(valid),
        )
    return runs


def _run_pass(groups, tau: float | None):
    """:func:`repeated_tests` on ``groups`` (both samples and the test
    settings), binarized at ``tau`` unless it is None.  An all-NA pass
    returns its :class:`AllNAError`."""
    sample_a, sample_b, plan, methods, alpha, drop_last = groups
    if tau is not None:
        sample_a = threshold_binarize(sample_a, tau)
        sample_b = threshold_binarize(sample_b, tau)
    try:
        return repeated_tests(sample_a, sample_b, plan, methods, alpha, drop_last)
    except AllNAError as err:
        return err


def _sweep_rows(passes, plan: ResamplingPlan, methods) -> list[SweepRow]:
    """Rows for ``(tau, pass result)`` pairs, NA rows for all-NA passes."""
    rows = []
    for tau, runs in passes:
        for method in methods:
            if isinstance(runs, AllNAError):
                rows.append(SweepRow(tau, method, None, plan.repetitions,
                                     plan.repetitions))
            else:
                run = runs[method]
                rows.append(SweepRow(tau, method, run.summary, run.na_count,
                                     run.repetitions))
    return rows


def threshold_sweep(
    sample_a: GraphSample,
    sample_b: GraphSample,
    taus,
    plan: ResamplingPlan,
    methods: tuple[str, ...] = ("tn", "tfro"),
    alpha: float = 0.05,
    drop_last: bool = False,
) -> list[SweepRow]:
    """Binarize both groups at each threshold and rerun the repeated tests.

    Thresholds where every repetition of every method is NA (for example a
    tau above all absolute weights) yield rows with a None summary rather
    than aborting the sweep.
    """
    groups = (sample_a, sample_b, plan, methods, alpha, drop_last)
    return _sweep_rows([(tau, _run_pass(groups, tau)) for tau in taus], plan,
                       methods)


def run_passes(
    sample_a: GraphSample,
    sample_b: GraphSample,
    plan: ResamplingPlan,
    methods: tuple[str, ...] = ("tn", "tfro"),
    alpha: float = 0.05,
    drop_last: bool = False,
    taus=(),
    workers: int = 1,
) -> tuple[dict[str, RepeatedRun], list[SweepRow]]:
    """:func:`repeated_tests` on the weighted groups and
    :func:`threshold_sweep` over ``taus``, as one list of passes on up to
    ``workers`` processes, which receive the groups once.  The results do
    not depend on ``workers``; an all-NA weighted pass raises
    :class:`AllNAError`."""
    taus = tuple(taus)
    groups = (sample_a, sample_b, plan, methods, alpha, drop_last)
    weighted, *swept = map_tasks(_run_pass, groups,
                                 [(tau,) for tau in (None, *taus)], workers)
    if isinstance(weighted, AllNAError):
        raise weighted
    return weighted, _sweep_rows(zip(taus, swept), plan, methods)


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
