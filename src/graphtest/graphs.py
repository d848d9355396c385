"""The graph type and shared utilities.

Graphs on a common node set are a :class:`GraphSample`, one row of pair
weights per graph; a single graph is a one-row sample.  Weights are
float64, or bool for binary graphs.  Dense ``n x n`` matrices, always
float64, exist only at the CSV boundary.  This module also provides
validation of raw matrices, absolute-value thresholding to binary graphs,
five-number summaries, and the adjacency and report CSV formats.  An
adjacency CSV in the canonical form the writer uses is parsed without
``np.loadtxt``, above the diagonal only, to the same values; any other
goes through ``np.loadtxt`` and :func:`validate_adjacency`.
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
from operator import itemgetter

import numpy as np

from .errors import (
    AsymmetryError,
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteEntryError,
    NonSquareError,
)

TOLERANCE = 1e-9  # largest gap of mirrored entries repaired as round-off

# The bytes a canonical adjacency CSV may hold: those of the numbers that
# save_adjacency_csv writes, commas and LF.
_CANONICAL_BYTES = b"0123456789.eE+-,\n"


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
        n = _nodes(edges.shape[-1])
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


def _nodes(pairs: int) -> int:
    """The node count ``n`` of ``n(n-1)/2`` pairs, if ``pairs`` is such a count."""
    return (1 + isqrt(1 + 8 * pairs)) // 2


def _require_finite(values: np.ndarray) -> None:
    """Raise :class:`NonFiniteEntryError` naming the first NaN or infinite
    entry of a 2-D array, or of a ``(P,)`` pair vector by its pair
    ``(i, j)`` in :func:`pair_layout` order."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))  # the first False, row-major
        i, j = (divmod(k, values.shape[1]) if values.ndim == 2
                else (index[k] for index in pair_layout(_nodes(values.size))))
        raise NonFiniteEntryError(int(i), int(j), float(values.flat[k]))


def pair_vector(value, name: str, pairs: int | None = None,
                nonnegative: bool = False) -> np.ndarray:
    """``value`` as a float64 ``(P,)`` pair vector in :func:`pair_layout`
    order: ``P`` is ``pairs``, or if None any ``n(n-1)/2`` with ``n >= 2``.

    Any other shape, a dense ``n x n`` matrix or a ragged sequence included,
    is a :class:`DimensionMismatchError`, a NaN or infinite entry a
    :class:`NonFiniteEntryError` naming its pair, and with ``nonnegative`` a
    negative entry a :class:`ConfigError`.  The checks make only ``P``-byte
    temporaries."""
    try:
        vector = np.asarray(value, dtype=np.float64)
    except ValueError as err:  # numpy refuses a ragged sequence
        raise DimensionMismatchError(f"{name} must be a pair vector: {err}") from None
    n = _nodes(vector.size)
    if vector.shape != (n * (n - 1) // 2 if pairs is None and n > 1 else pairs,):
        raise DimensionMismatchError(
            f"{name} must have shape ({pairs or 'n(n-1)/2'},), got {vector.shape}")
    _require_finite(vector)
    if nonnegative and (vector < 0).any():
        raise ConfigError(f"{name} must be non-negative, got {vector[vector < 0][0]}")
    return vector


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
    _require_finite(w)

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
    ``w > tau or w < -tau`` is ``|w| > tau`` for every weight, signed zeros
    included, and makes only bool temporaries, not an ``(m, P)`` float64
    copy of ``|w|``.
    """
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"threshold must be a finite non-negative real, got {tau!r}")
    edges = sample.edges
    above = edges > tau
    return GraphSample.from_edges(np.logical_or(above, edges < -tau, out=above))


def five_number_summary(values) -> FiveNumberSummary:
    """Five-number summary with quartiles linearly interpolated between
    order statistics (median of an even-length batch is the central midpoint).

    These are the steps, and so the bits, of ``np.percentile(v, [0, 25, 50,
    75, 100])`` without its ``np.unique`` call, which imports ``numpy.ma``
    (about 15 ms).
    """
    v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("five_number_summary needs at least one value")
    if not np.isfinite(v).all():
        raise ValueError("five_number_summary requires finite values")
    index = (v.size - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    top = index >= v.size - 1  # numpy reads these at index -1
    below = np.where(top, -1, np.floor(index)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    ordered = np.partition(v, sorted({0, -1, *below.tolist(), *above.tolist()}))
    low, high = ordered[below], ordered[above]
    # numpy's lerp: from the lower order statistic below the midpoint, from
    # the upper one at and above it.
    weight = index - below
    diff = high - low
    quartiles = np.add(low, diff * weight)
    np.subtract(high, diff * (1 - weight), out=quartiles, where=weight >= 0.5)
    return FiveNumberSummary(*map(float, quartiles))


@lru_cache(maxsize=None)
def _mirror_gathers(n: int) -> tuple:
    """For each row ``i`` of an ``n x n`` matrix, a function that takes the
    pair vector of the rows above it and returns, as a tuple, the entries
    ``(j, i)`` for ``j < i``: the mirrors of row ``i``'s entries left of
    the diagonal, in column order."""
    _, cols = pair_layout(n)
    # Pair positions column by column; the rows ascend within a column.
    order = np.argsort(cols, kind="stable").tolist()
    gathers = []
    for i in range(n):
        positions = order[i * (i - 1) // 2:i * (i + 1) // 2]
        # itemgetter returns a bare item, not a tuple, for one position.
        gathers.append(itemgetter(*positions) if len(positions) > 1
                       else lambda seq, positions=positions: tuple(seq[p] for p in positions))
    return tuple(gathers)


def _read_canonical(path) -> np.ndarray | None:
    """The pair vector of a canonical adjacency CSV, or None for any other
    file.

    A canonical file holds only the bytes of :data:`_CANONICAL_BYTES` in
    ``n >= 2`` lines (the last one may lack its LF) of ``n`` comma-separated
    tokens; each token left of the diagonal is byte-equal to its mirror,
    and every token parses to a finite float.  It needs no repair, so line
    ``i`` is checked by one byte comparison: it must start with its ``i``
    mirrors joined by commas, and a comma.  Only the rest of the line, the
    diagonal token and those above it, is split, and the tokens are
    converted by ``np.array(..., dtype=np.float64)``, which calls ``float``
    on each.  On these bytes ``float`` and ``np.loadtxt`` both parse with
    CPython's ``PyOS_string_to_double``, so the values have
    ``np.loadtxt``'s bits.
    """
    upper, diagonal, n = [], [], 0
    try:
        with open(path, "rb") as fh:
            for i, line in enumerate(fh):
                if i == 0:
                    n = line.count(b",") + 1
                    # n lines of n tokens need n * n bytes at least; checked
                    # before the layout of n is built.
                    if n * n > os.fstat(fh.fileno()).st_size:
                        return None
                    gathers = _mirror_gathers(n)
                if i >= n or line.translate(None, _CANONICAL_BYTES):
                    return None
                lower = b",".join(gathers[i](upper)) + b"," if i else b""
                if not line.startswith(lower):
                    return None
                tokens = line[len(lower):].rstrip(b"\n").split(b",")
                if len(tokens) != n - i:
                    return None
                diagonal.append(tokens[0])
                upper += tokens[1:]
    except OSError:
        return None  # np.loadtxt raises it again, with its own message
    if n < 2 or len(diagonal) != n:
        return None
    try:
        pairs = np.array(upper, dtype=np.float64)
        finite = np.isfinite(pairs).all() and np.isfinite(
            np.array(diagonal, dtype=np.float64)).all()
    except ValueError:
        return None
    return pairs if finite else None


def load_adjacency_csv(path) -> GraphSample:
    """Read one adjacency CSV, n lines of n comma-separated floats with no
    header, as a one-graph sample.

    A canonical file (:func:`_read_canonical`), as :func:`save_adjacency_csv`
    writes, is parsed without ``np.loadtxt``: one byte comparison of each
    line with its joined mirrors, and one ``np.array`` conversion of the
    tokens on and above the diagonal.  Any other file is read by
    ``np.loadtxt`` and :func:`validate_adjacency`, which raise every error.
    """
    pairs = _read_canonical(path)
    if pairs is not None:
        return GraphSample.from_edges(pairs[np.newaxis])
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
