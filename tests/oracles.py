"""Reference computations that the tests check the package against.

None is part of the package's interface: ``dense_validate`` is the
whole-matrix validation that :func:`graphtest.graphs.validate_adjacency`
does on pair vectors, ``loadtxt_adjacency`` is
:func:`graphtest.graphs.load_adjacency_csv` without its canonical-file
reader, ``edge_statistics`` exposes the per-pair products
that :func:`graphtest.twosample.run_methods` reduces without keeping,
``exact_fourth_moment`` is the closed form that the Monte
Carlo moment checks compare with, ``run_cell`` runs one ``simulate`` cell
as a single replicate chunk, ``repeated_splits`` is the split loop of
:func:`graphtest.realdata.run_passes` written out serially, one pass at a
time, on rows from ``strategy_rows``, the selection by strategy that the
package once made, and ``float_bernoulli_population`` and
``float_bernoulli_from_means`` are the Bernoulli samplers as they were
when they drew float64 edges, and ``sorted_join`` is
:func:`graphtest.pool.run` as it was when a unit's chunks could stream out
of ``start`` order.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from graphtest.errors import (
    AsymmetryError,
    EmptyInputError,
    NonSquareError,
    OddSampleSizeError,
    SampleSizeMismatchError,
)
from graphtest.graphs import (
    TOLERANCE,
    GraphSample,
    pair_layout,
    require_finite,
    validate_adjacency,
)
from graphtest.models import MeanMatrix, TwoBlockModel, _blocks
from graphtest.pool import stream
from graphtest.realdata import ResamplingPlan
from graphtest.rng import substream
from graphtest.simulate import ExperimentConfig, _cell_results, _run_chunk
from graphtest.twosample import (
    Partition,
    _check_samples,
    _scaled_half_sums,
    random_partition,
    run_methods,
)


def dense_validate(raw) -> np.ndarray:
    """The validated ``n x n`` matrix, checked and repaired as a whole: the
    first worst gap of ``|w - w.T|`` in row-major order is the
    :class:`AsymmetryError`, and mirrored entries within tolerance become
    their midpoint."""
    w = np.array(raw, dtype=np.float64, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {w.shape}")
    if w.shape[0] < 2:
        raise NonSquareError("a graph needs at least 2 nodes")
    require_finite(w)
    with np.errstate(over="ignore"):
        gap = np.abs(w - w.T)
    worst = float(gap.max())
    if worst > TOLERANCE:
        i, j = np.argwhere(gap == worst)[0]
        raise AsymmetryError(int(i), int(j), worst)
    w = np.where(gap > 0, np.minimum(w, w.T) + gap / 2.0, w)
    np.fill_diagonal(w, 0.0)
    return w


def loadtxt_adjacency(path) -> GraphSample:
    """One adjacency CSV read by ``np.loadtxt`` and checked by
    ``validate_adjacency``, whatever its bytes: the package's reader before
    it parsed canonical files itself."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        raw = np.loadtxt(os.fspath(path), delimiter=",", ndmin=2)
    if raw.size == 0:
        raise EmptyInputError("the file contains no data")
    return validate_adjacency(raw)


def edge_statistics(
    sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> np.ndarray:
    """Per-pair products T_ij, a ``(P,)`` vector in ``pair_layout`` order,
    from the kernel's own scaled float half sums; bool edges are read as
    float64.

    A pair whose product overflows float64 (half sums of opposite-sign
    weights near the float64 limit) comes back as ±inf or nan, without a
    floating-point warning."""
    halves = _check_samples(sample_g, sample_h, partition)
    g, h = (sample.edges.astype(np.float64) for sample in (sample_g, sample_h))
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, e = _scaled_half_sums(g, h, np.subtract, halves,
                                      np.empty((3, g.shape[1])))
        return np.ldexp(d1 * d2, 2 * e)


def exact_fourth_moment(sigma2_ij, eta_ij, m: int):
    """Exact ``E[T_ij^4]`` under the null for one pair.

    Each half-sum of ``m/2`` i.i.d. centered differences has fourth moment
    ``(m/2)*eta + 3*(m/2)*((m/2)-1)*(2*sigma^2)^2`` (the pairing count of a
    quartic expansion, with ``E[d^2] = 2*sigma^2``); the two halves are
    independent, so the product's fourth moment is that quantity squared.

    Accepts scalars or arrays (broadcast elementwise).
    """
    if m % 2 != 0:
        raise OddSampleSizeError(f"group size must be even, got {m}")
    half = m // 2
    sigma2 = np.asarray(sigma2_ij, dtype=np.float64)
    eta = np.asarray(eta_ij, dtype=np.float64)
    p = half * eta + 3.0 * half * (half - 1) * (2.0 * sigma2) ** 2
    out = p * p
    if out.ndim == 0:
        return float(out)
    return out


def run_cell(config: ExperimentConfig, n: int, m: int, epsilon: float,
             cell_index: int):
    """One grid cell's results, every replicate in one chunk."""
    lam, tallies = _run_chunk(config, (cell_index, n, m, epsilon), 0,
                              config.replications)
    return _cell_results(config, n, m, epsilon, lam, tallies)


def strategy_rows(m_a: int, m_b: int, strategy: str,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Row-index vectors of equal length into groups of ``m_a`` and ``m_b``
    graphs, selected by ``strategy`` with the smaller and larger group
    swapped into place, as the package once selected them.

    ``oversample_smaller`` keeps the smaller group's rows in order and
    appends draws from them (without replacement while the deficit fits,
    with replacement otherwise); ``subsample_larger`` keeps a
    without-replacement draw from the larger group.  Equal groups get all
    their rows in order and draw nothing from ``rng``; unequal groups under
    ``split_only`` are refused before this is called."""
    rows_a, rows_b = np.arange(m_a), np.arange(m_b)
    if m_a == m_b:
        return rows_a, rows_b

    small, large = (rows_a, rows_b) if m_a < m_b else (rows_b, rows_a)
    if strategy == "oversample_smaller":
        deficit = large.size - small.size
        extra = rng.choice(small.size, size=deficit, replace=deficit > small.size)
        small = np.concatenate((small, extra))
    else:  # subsample_larger
        large = rng.choice(large.size, size=small.size, replace=False)
    return (small, large) if m_a < m_b else (large, small)


def repeated_splits(sample_a: GraphSample, sample_b: GraphSample,
                    plan: ResamplingPlan, methods: tuple[str, ...],
                    alpha: float = 0.05, drop_last: bool = False):
    """``{method: results}`` of every repetition in order: repetition ``r``
    equalizes and splits with ``substream(plan.seed, r)`` and evaluates
    every method on that one split.  Each repetition copies the rows that
    :func:`strategy_rows` selects into new samples, and ``drop_last``
    copies them again without the last graph.  Before the first
    repetition, unequal groups under ``split_only`` and an odd equalized
    size above 1 without ``drop_last`` raise the package's size errors."""
    m_a, m_b = sample_a.m, sample_b.m
    if plan.strategy == "split_only" and m_a != m_b:
        raise SampleSizeMismatchError(
            f"groups have {m_a} and {m_b} graphs; equalize them first (see the "
            "realdata subcommand)")
    size = (min if plan.strategy == "subsample_larger" else max)(m_a, m_b)
    if size % 2 != 0 and size > 1 and not drop_last:
        raise OddSampleSizeError(
            f"group size {size} is odd; pass --drop-last to discard one pair")
    replicates = []
    for rep in range(plan.repetitions):
        rng = substream(plan.seed, rep)
        rows = strategy_rows(m_a, m_b, plan.strategy, rng)
        eq_a, eq_b = (GraphSample.from_edges(sample.edges[r])
                      for sample, r in zip((sample_a, sample_b), rows))
        if drop_last and eq_a.m % 2 != 0 and eq_a.m > 1:
            eq_a = GraphSample.from_edges(eq_a.edges[:-1])
            eq_b = GraphSample.from_edges(eq_b.edges[:-1])
        partition = random_partition(eq_a.m, rng)
        replicates.append(run_methods(methods, eq_a, eq_b, partition, alpha))
    return dict(zip(methods, zip(*replicates)))


def float_bernoulli_population(model: TwoBlockModel, shifted: bool, m: int,
                               rng: np.random.Generator) -> np.ndarray:
    """The float64 ``(m, P)`` edges of ``m`` Bernoulli graphs, each drawn
    within-block pairs first as thresholded uniforms cast to 0.0/1.0."""
    blocks = tuple(zip(_blocks(model.n), model.params(shifted)))
    edges = np.empty((m, model.n * (model.n - 1) // 2))
    for row in edges:
        for (mask, size), p in blocks:
            row[mask] = (rng.random(size) < p).astype(np.float64)
    return edges


def float_bernoulli_from_means(mean: MeanMatrix, rng: np.random.Generator) -> np.ndarray:
    """The float64 ``(1, P)`` edges of one Bernoulli graph with per-pair
    means ``mean.mu``, drawn in ``pair_layout`` order."""
    rows, cols = pair_layout(mean.n)
    return (rng.random(rows.size) < mean.mu[rows, cols]).astype(np.float64)[np.newaxis]


def sorted_join(fn, shared, units, costs, reps: int, workers: int) -> list[list]:
    """For each of ``units`` in order, the values of its chunks from
    :func:`graphtest.pool.stream`, sorted by ``(unit, start)``."""
    joined = [[] for _ in units]
    for unit, _, _, value in sorted(stream(fn, shared, units, costs, reps, workers),
                                    key=lambda chunk: chunk[:2]):
        joined[unit].append(value)
    return joined
