"""Reference computations that the tests check the package against.

None is part of the package's interface: ``edge_statistics`` exposes the
per-pair products that :func:`graphtest.twosample.run_methods` reduces
without keeping, ``exact_fourth_moment`` is the closed form that the Monte
Carlo moment checks compare with, ``run_cell`` runs one ``simulate`` cell
as a single replicate chunk, and ``repeated_splits`` is the split loop of
:func:`graphtest.realdata.run_passes` written out serially, one pass at a
time.
"""

from __future__ import annotations

import numpy as np

from graphtest.errors import OddSampleSizeError
from graphtest.graphs import GraphSample
from graphtest.realdata import ResamplingPlan, _equalize_rows
from graphtest.rng import substream
from graphtest.simulate import ExperimentConfig, _cell_results, _run_chunk
from graphtest.twosample import (
    Partition,
    _check_samples,
    _scaled_half_sums,
    random_partition,
    run_methods,
)


def edge_statistics(
    sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> np.ndarray:
    """Per-pair products T_ij, a ``(P,)`` vector in ``pair_layout`` order,
    from the kernel's own scaled half sums.

    A pair whose product overflows float64 (half sums of opposite-sign
    weights near the float64 limit) comes back as ±inf or nan, without a
    floating-point warning."""
    halves = _check_samples(sample_g, sample_h, partition)
    g, h = sample_g.edges, sample_h.edges
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


def repeated_splits(sample_a: GraphSample, sample_b: GraphSample,
                    plan: ResamplingPlan, methods: tuple[str, ...],
                    alpha: float = 0.05, drop_last: bool = False):
    """``{method: results}`` of every repetition in order: repetition ``r``
    equalizes and splits with ``substream(plan.seed, r)`` and evaluates
    every method on that one split.  Each repetition copies the rows that
    :func:`graphtest.realdata._equalize_rows` selects into new samples, and
    ``drop_last`` copies them again without the last graph."""
    replicates = []
    for rep in range(plan.repetitions):
        rng = substream(plan.seed, rep)
        rows = _equalize_rows(sample_a.m, sample_b.m, plan.strategy, rng)
        eq_a, eq_b = (GraphSample.from_edges(sample.edges[r])
                      for sample, r in zip((sample_a, sample_b), rows))
        if drop_last and eq_a.m % 2 != 0 and eq_a.m > 1:
            eq_a = GraphSample.from_edges(eq_a.edges[:-1])
            eq_b = GraphSample.from_edges(eq_b.edges[:-1])
        partition = random_partition(eq_a.m, rng)
        replicates.append(run_methods(methods, eq_a, eq_b, partition, alpha))
    return dict(zip(methods, zip(*replicates)))
