"""Core graph data types and shared utilities.

An observed network is a symmetric ``n x n`` weight matrix with zero
diagonal (:class:`AdjacencyMatrix`); a group of networks over a common node
set is a :class:`GraphSample`, one array of pair weights.  This module also
provides validation of raw matrices, absolute-value thresholding to binary
graphs, five-number summaries, and the adjacency CSV format (dense).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import (
    AsymmetryError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteEntryError,
    NonSquareError,
)


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """One observed graph: symmetric weights, zero diagonal, finite entries.

    Instances are immutable; the weight array is marked read-only.  Use
    :func:`validate_adjacency` to build one from untrusted input.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {w.shape}")
        if w.shape[0] < 2:
            raise NonSquareError("a graph needs at least 2 nodes")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@lru_cache(maxsize=None)
def pair_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the node pairs ``i < j``, row-major: the
    pair order of every edge array in the package."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class GraphSample:
    """An ordered i.i.d. sample of ``m`` graphs on ``n`` common nodes, held as
    one read-only float64 ``(m, n(n-1)/2)`` array ``edges``: row ``k`` is
    graph ``k``'s pair weights in :func:`pair_layout` order."""

    __slots__ = ("edges", "n")

    def __init__(self, graphs):
        graphs = tuple(graphs)
        if not graphs:
            raise EmptyInputError("a graph sample needs at least one graph")
        n0 = graphs[0].n
        for k, g in enumerate(graphs):
            if g.n != n0:
                raise DimensionMismatchError(
                    f"graph {k} has {g.n} nodes, expected {n0}"
                )
        rows, cols = pair_layout(n0)
        self._own(np.stack([g.weights[rows, cols] for g in graphs]))

    @classmethod
    def from_edges(cls, edges) -> GraphSample:
        """Wrap an ``(m, P)`` array, which becomes read-only; it is copied
        only if it is not already float64 and C-contiguous."""
        sample = cls.__new__(cls)
        sample._own(np.ascontiguousarray(edges, dtype=np.float64))
        return sample

    def _own(self, edges: np.ndarray) -> None:
        n = (1 + isqrt(1 + 8 * edges.shape[-1])) // 2
        if edges.ndim != 2 or not edges.size or edges.shape[1] != n * (n - 1) // 2:
            raise DimensionMismatchError(
                f"expected a non-empty (m, n(n-1)/2) edge array, got shape {edges.shape}"
            )
        edges.setflags(write=False)
        self.edges, self.n = edges, n

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def graphs(self) -> tuple[AdjacencyMatrix, ...]:
        """Dense copies of the graphs, built on each access (for output)."""
        rows, cols = pair_layout(self.n)
        graphs = []
        for row in self.edges:
            mat = np.zeros((self.n, self.n))
            mat[rows, cols] = row
            mat[cols, rows] = row
            graphs.append(AdjacencyMatrix(mat))
        return tuple(graphs)


@dataclass(frozen=True)
class FiveNumberSummary:
    """Minimum, quartiles, and maximum of a batch of statistics."""

    min: float
    q1: float
    median: float
    q3: float
    max: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.min, self.q1, self.median, self.q3, self.max)


def require_finite(matrix: np.ndarray) -> None:
    """Raise :class:`NonFiniteEntryError` naming the first NaN or infinite
    entry of a 2-D array."""
    bad = ~np.isfinite(matrix)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteEntryError(int(i), int(j), float(matrix[i, j]))


def validate_adjacency(raw, tolerance: float = 1e-9) -> AdjacencyMatrix:
    """Validate a raw square array and repair benign asymmetry.

    Entries must be finite.  Off-diagonal pairs that differ by at most
    ``tolerance`` are averaged (round-off repair); larger differences raise
    :class:`AsymmetryError` naming the first offending pair.  The diagonal
    is forced to exactly zero.
    """
    w = AdjacencyMatrix(raw).weights  # square float64, at least 2 nodes
    require_finite(w)

    gap = np.abs(w - w.T)
    worst = float(gap.max())
    if worst > tolerance:
        # gap is exactly symmetric, so the first hit in row-major order has i < j.
        i, j = np.argwhere(gap == worst)[0]
        raise AsymmetryError(int(i), int(j), worst)

    # Pair midpoints where the triangles differ: (w + w.T) / 2 would overflow
    # above half the float64 max, and adding a zero gap turns -0.0 into +0.0.
    w = np.where(gap > 0, np.minimum(w, w.T) + gap / 2.0, w)
    np.fill_diagonal(w, 0.0)
    return AdjacencyMatrix(w)


def threshold_binarize(graph: AdjacencyMatrix | GraphSample, tau: float):
    """Binarize a graph, or every graph of a :class:`GraphSample`, by
    absolute weight: 1 where ``|w| > tau``, else 0.

    The comparison is strict, so weights exactly at ``tau`` map to 0; ties
    at the threshold do occur with rank-transformed correlation weights.
    """
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"threshold must be a finite non-negative real, got {tau!r}")
    if isinstance(graph, GraphSample):
        return GraphSample.from_edges(np.abs(graph.edges) > tau)
    return AdjacencyMatrix(np.abs(graph.weights) > tau)


def five_number_summary(values) -> FiveNumberSummary:
    """Five-number summary with quartiles linearly interpolated between
    order statistics (median of an even-length batch is the central midpoint).
    """
    v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("five_number_summary needs at least one value")
    if not np.isfinite(v).all():
        raise ValueError("five_number_summary requires finite values")
    lo, q1, med, q3, hi = np.percentile(v, [0, 25, 50, 75, 100])
    return FiveNumberSummary(float(lo), float(q1), float(med), float(q3), float(hi))


def load_adjacency_csv(path, tolerance: float = 1e-9) -> AdjacencyMatrix:
    """Read one adjacency CSV: n lines of n comma-separated floats, no header."""
    with warnings.catch_warnings():
        # An empty file is reported below as EmptyInputError.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        raw = np.loadtxt(os.fspath(path), delimiter=",", ndmin=2)
    if raw.size == 0:
        raise EmptyInputError("the file contains no data")
    return validate_adjacency(raw, tolerance)


def save_adjacency_csv(graph: AdjacencyMatrix, path) -> None:
    """Write the CSV form read back by :func:`load_adjacency_csv`."""
    np.savetxt(os.fspath(path), graph.weights, delimiter=",", fmt="%.17g", newline="\n")
