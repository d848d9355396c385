"""The graph type and shared utilities.

Graphs on a common node set are a :class:`GraphSample`, one row of pair
weights per graph; a single graph is a one-row sample.  Weights are
float64, or bool for binary graphs.  Dense ``n x n`` matrices, always
float64, exist only at the CSV boundary.  This module also provides
validation of raw matrices, absolute-value thresholding to binary graphs,
five-number summaries, and the adjacency and report CSV formats.
"""

from __future__ import annotations

import csv
import os
import sys
import warnings
from contextlib import nullcontext
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

TOLERANCE = 1e-9  # largest gap of mirrored entries repaired as round-off


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
    one read-only ``(m, n(n-1)/2)`` array ``edges``: row ``k`` is graph
    ``k``'s pair weights in :func:`pair_layout` order.  ``edges`` is float64
    weights, or bool for binary graphs.  A single graph is a sample with
    ``m = 1``; ``GraphSample(samples)`` stacks samples in order, as bool if
    all of them are bool and as float64 otherwise."""

    __slots__ = ("edges", "n")

    def __init__(self, samples):
        samples = tuple(samples)
        if not samples:
            raise EmptyInputError("a graph sample needs at least one graph")
        n0 = samples[0].n
        for k, sample in enumerate(samples):
            if sample.n != n0:
                raise DimensionMismatchError(f"sample {k} has {sample.n} nodes, "
                                             f"expected {n0}")
        self._own(np.concatenate([sample.edges for sample in samples]))

    @classmethod
    def from_edges(cls, edges) -> GraphSample:
        """Wrap an ``(m, P)`` array, which becomes read-only.  A bool array
        stays bool and any other becomes float64; it is copied only if it
        is not already of that type and C-contiguous."""
        edges = np.asarray(edges)
        sample = cls.__new__(cls)
        sample._own(np.ascontiguousarray(
            edges, dtype=bool if edges.dtype == bool else np.float64))
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
    def graphs(self) -> tuple[GraphSample, ...]:
        """The graphs as one-row samples whose edges are read-only views of
        this sample's rows."""
        return tuple(GraphSample.from_edges(self.edges[k:k + 1]) for k in range(self.m))

    def dense(self) -> np.ndarray:
        """A new symmetric float64 ``n x n`` matrix of a one-graph sample's
        weights, with zero diagonal; a bool graph's edges become 1.0."""
        if self.m != 1:
            raise ValueError(f"dense() needs a one-graph sample, got {self.m} graphs")
        rows, cols = pair_layout(self.n)
        mat = np.zeros((self.n, self.n))
        mat[rows, cols] = mat[cols, rows] = self.edges[0]
        return mat


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


def validate_adjacency(raw) -> GraphSample:
    """Validate a raw square array and repair benign asymmetry; the result
    is a one-graph sample of its pairs.

    Entries, the diagonal included, must be finite.  Mirrored entries that
    differ by at most :data:`TOLERANCE` are replaced by their midpoint
    (round-off repair); a larger gap raises :class:`AsymmetryError` naming
    the first worst pair.  The diagonal is otherwise ignored.
    """
    w = np.asarray(raw, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {w.shape}")
    if w.shape[0] < 2:
        raise NonSquareError("a graph needs at least 2 nodes")
    require_finite(w)

    rows, cols = pair_layout(w.shape[0])
    upper, lower = w[rows, cols], w[cols, rows]
    with np.errstate(over="ignore"):
        # A gap beyond the float64 max is inf, reported below.
        gap = np.abs(upper - lower)
    worst = float(gap.max())
    if worst > TOLERANCE:
        # Pairs run row-major, so this is the first worst entry of the matrix.
        k = int(np.argmax(gap == worst))
        raise AsymmetryError(int(rows[k]), int(cols[k]), worst)

    # Midpoints where the entries differ: (upper + lower) / 2 would overflow
    # above half the float64 max, and adding a zero gap turns -0.0 into +0.0.
    pairs = np.where(gap > 0, np.minimum(upper, lower) + gap / 2.0, upper)
    return GraphSample.from_edges(pairs[np.newaxis])


def threshold_binarize(sample: GraphSample, tau: float) -> GraphSample:
    """Binarize every graph of a sample by absolute weight: a bool sample,
    True where ``|w| > tau``.

    The comparison is strict, so weights exactly at ``tau`` map to 0; ties
    at the threshold do occur with rank-transformed correlation weights.
    """
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"threshold must be a finite non-negative real, got {tau!r}")
    return GraphSample.from_edges(np.abs(sample.edges) > tau)


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


def load_adjacency_csv(path) -> GraphSample:
    """Read one adjacency CSV, n lines of n comma-separated floats with no
    header, as a one-graph sample."""
    with warnings.catch_warnings():
        # An empty file is reported below as EmptyInputError.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        raw = np.loadtxt(os.fspath(path), delimiter=",", ndmin=2)
    if raw.size == 0:
        raise EmptyInputError("the file contains no data")
    return validate_adjacency(raw)


def save_adjacency_csv(graph: GraphSample, path) -> None:
    """Write a one-graph sample as the CSV that :func:`load_adjacency_csv` reads."""
    np.savetxt(os.fspath(path), graph.dense(), delimiter=",", fmt="%.17g", newline="\n")


def write_csv(header, rows, path=None) -> None:
    """Write ``header``, then each row's values, as CSV with LF line ends:
    to the UTF-8 file at ``path``, or to stdout when ``path`` is None."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
