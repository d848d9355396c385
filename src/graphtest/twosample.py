"""The two-sample statistics for paired groups of weighted graphs.

Given equally sized samples ``G_1..G_m`` and ``H_1..H_m`` on a common node
set, the groups are randomly split into two halves of paired graphs.  For
every node pair the per-edge statistic is the product of the two halves'
summed weight differences::

    T_ij = (sum over first half of (G_k,ij - H_k,ij))
         * (sum over second half of (G_k,ij - H_k,ij))

The main statistic normalizes the total by the empirical root of the sum
of squares, ``Tn = sum(T_ij) / sqrt(sum(T_ij^2))``, and is compared against
standard normal quantiles.  The baseline ``Tfro`` uses the same numerator
but normalizes by cross-products of weight *sums*::

    t_n^2 = sum over pairs of
        (sum over first half of (G_k,ij + H_k,ij))
      * (sum over second half of (G_k,ij + H_k,ij))

It is calibrated only when edge variances track squared means (see
:mod:`graphtest.diagnostics`); negative weights can make ``t_n^2 < 0``.

Both statistics are computed from four ``(P,)`` half-sum vectors, one per
pair of nodes: each is accumulated one graph at a time from the rows of
the groups' edge arrays, so no ``(m, P)`` temporary is formed.  When both
groups are bool (binary graphs), each half's G rows and H rows are instead
counted in int32 and the half sums of D and S are formed from the counts.
Every partial sum of 0/1 values is a small integer, exact in float64 in
any order, so ``sum(G) - sum(H)`` is bit for bit the float sum of
``G - H`` and the results equal those of the same graphs as float64.
The three reductions of bool statistics then add integers too, exactly
while :func:`order_free` holds, so the order of the pairs changes no bit:
``simulate`` counts Bernoulli rows in the order they are drawn, through
:func:`run_on_edges`, the unchecked twin of :func:`run_methods` on raw
edge arrays; both run the one kernel.

Either denominator can vanish on very sparse or identical samples, and
half sums of weights of opposite sign near the float64 limit overflow;
such results are reported as NA with a reason code instead of a value.

The normal tails are scipy's ``ndtr`` and ``ndtri``, but scipy is loaded
only when a digit depends on them: when ``TestResult.p_value`` is read (it
is computed then), when :func:`critical_value` is called, or when
:func:`decide` meets a statistic within a relative ``1e-9`` of the
critical value.  Any other decision is settled by the standard library's
quantile, which lies within ``1e-15`` of ``ndtri``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import inf, isfinite, sqrt
from statistics import NormalDist

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    OddSampleSizeError,
    SampleSizeMismatchError,
    TooFewSamplesError,
)
from .graphs import GraphSample

METHODS = ("tn", "tfro")

ZERO_DENOMINATOR = "zero_denominator"
NEGATIVE_DENOMINATOR = "negative_denominator"
NON_FINITE = "non_finite"


@dataclass(frozen=True)
class Partition:
    """An equal split of the paired sample indices ``0..m-1`` into halves."""

    first_half: tuple[int, ...]
    second_half: tuple[int, ...]

    def __post_init__(self):
        first, second = tuple(map(int, self.first_half)), tuple(map(int, self.second_half))
        if len(first) != len(second):
            raise OddSampleSizeError("partition halves must have equal size")
        if sorted(first + second) != list(range(2 * len(first))):
            raise ValueError("partition halves must be disjoint and cover 0..m-1")
        object.__setattr__(self, "first_half", first)
        object.__setattr__(self, "second_half", second)

    @property
    def m(self) -> int:
        return len(self.first_half) * 2


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistic evaluation.

    ``statistic`` is None when the denominator is not positive or a sum is
    not finite; ``na_reason`` then says why.  ``reject`` and ``alpha`` are
    filled by :func:`decide`.
    """

    method: str
    numerator: float
    denominator_sq: float
    statistic: float | None
    na_reason: str | None = None
    reject: bool | None = None
    alpha: float | None = None

    @property
    def is_na(self) -> bool:
        return self.statistic is None

    @property
    def p_value(self) -> float | None:
        """Two-sided normal p-value ``2 * ndtr(-|statistic|)``, computed
        when read; None for an NA statistic."""
        if self.statistic is None:
            return None
        from scipy.special import ndtr
        return float(2.0 * ndtr(-abs(self.statistic)))


def random_partition(m: int, rng: np.random.Generator) -> Partition:
    """Uniformly random equal split of ``0..m-1`` (m even, m >= 2): the
    sorted halves of one permutation drawn from ``rng``."""
    if m < 2:
        raise TooFewSamplesError(f"need at least 2 graphs per group, got {m}")
    if m % 2 != 0:
        raise OddSampleSizeError(f"group size must be even to split into halves, got {m}")
    perm = rng.permutation(m).tolist()
    return Partition(sorted(perm[: m // 2]), sorted(perm[m // 2:]))


def _check_samples(sample_g: GraphSample, sample_h: GraphSample, partition: Partition,
                   rows=None) -> tuple:
    """The rows of ``sample_g`` and of ``sample_h`` that each half of the
    split pairs, ``((g_rows, h_rows), (g_rows, h_rows))`` as lists: position
    ``k`` reads row ``rows_g[k]`` and row ``rows_h[k]`` of ``rows``, which
    is every row of each sample in order when None.  Both cases are checked
    and composed by the same lines."""
    if sample_g.n != sample_h.n:
        raise DimensionMismatchError(f"groups have {sample_g.n} and {sample_h.n} nodes")
    rows_g, rows_h = rows = ([range(sample_g.m), range(sample_h.m)] if rows is None
                             else [np.asarray(r).tolist() for r in rows])
    if len(rows_g) != len(rows_h):
        raise SampleSizeMismatchError(
            f"row vectors select {len(rows_g)} and {len(rows_h)} graphs")
    for r, sample in zip(rows, (sample_g, sample_h)):
        if r and not 0 <= min(r) <= max(r) < sample.m:
            raise SampleSizeMismatchError(f"row vector selects rows {min(r)}..{max(r)} "
                                          f"of a group of {sample.m} graphs")
    if partition.m != len(rows_g):
        raise SampleSizeMismatchError(
            f"partition covers {partition.m} pairs but groups have {len(rows_g)}")
    return tuple(([rows_g[k] for k in half], [rows_h[k] for k in half])
                 for half in (partition.first_half, partition.second_half))


def _half_counts(g_edges: np.ndarray, h_edges: np.ndarray, halves) -> np.ndarray:
    """The int32 ``(4, P)`` block of per-pair counts of bool ``g_edges``
    and ``h_edges`` over the row pairs of each half of the split (``halves``
    from :func:`_check_samples`): the G rows and the H rows of the first
    half, then of the second.  Rows are added one at a time, as bytes, into
    one uint8 ``(P,)`` buffer; a run of at most 255 rows cannot overflow it,
    and each run is then added into the counts, so only ``(P,)`` vectors are
    held.  int32 is exact below 2**30 graphs a half."""
    counts = np.zeros((4, g_edges.shape[1]), dtype=np.int32)
    run = np.empty(g_edges.shape[1], dtype=np.uint8)
    views = (g_edges.view(np.uint8), h_edges.view(np.uint8)) * 2
    for edges, rows, acc in zip(views, (rows for half in halves for rows in half),
                                counts):
        for lo in range(0, len(rows), 255):
            run.fill(0)
            for i in rows[lo:lo + 255]:
                np.add(run, edges[i], out=run)
            np.add(acc, run, out=acc)
    return counts


def _scaled_half_sums(g_edges: np.ndarray, h_edges: np.ndarray, op, halves,
                      work: np.ndarray, counts: np.ndarray | None = None):
    """Per-pair sums of ``op(g_edges[i], h_edges[j])`` (``op`` is
    ``np.subtract`` or ``np.add``) over the row pairs of each half of the
    split (``halves`` from :func:`_check_samples`), times ``2**-e``, and
    ``e``, chosen so the larger magnitude lies in [0.5, 1): exact, and safe
    to multiply at any scale.

    Each sum has the arithmetic of numpy's axis-0 sum while holding only
    ``(P,)`` vectors: it starts at +0.0 and adds one row at a time in the
    half's order.  A single column (P = 1) numpy sums pairwise, so that
    case sums the column itself.  Given the :func:`_half_counts` of bool
    edges, each sum is instead ``op`` of the half's G and H counts, which
    is the same integer, and ``e`` is 0: counts are small integers, whose
    products and sums stay far from overflow and underflow, where scaling
    by a power of two changes no rounding, so ``2**-e`` could not change a
    bit of the statistics.  The sums are the first two rows of
    ``work``, a ``(3, P)`` block that is overwritten."""
    s1, s2, tmp = work
    if counts is not None:
        op(counts[0::2], counts[1::2], out=work[:2])
        return s1, s2, 0
    work.fill(0.0)
    for acc, (g_rows, h_rows) in zip((s1, s2), halves):
        if acc.size == 1:
            op(g_edges[g_rows], h_edges[h_rows]).sum(axis=0, out=acc)
        else:
            for i, j in zip(g_rows, h_rows):
                acc += op(g_edges[i], h_edges[j], out=tmp)
    e = int(np.frexp(max(np.abs(s1, out=tmp).max(), np.abs(s2, out=tmp).max()))[1])
    return np.ldexp(s1, -e, out=s1), np.ldexp(s2, -e, out=s2), e


def _result(method: str, numerator: float, den_sq: float, num_exp: int,
            den_exp: int) -> TestResult:
    """The result for a numerator and squared denominator given in units of
    ``2**num_exp`` and ``2**den_exp`` (``den_exp`` even)."""
    stat = reason = None
    if not (isfinite(numerator) and isfinite(den_sq)):
        reason = NON_FINITE
    elif den_sq == 0.0:
        reason = ZERO_DENOMINATOR
    elif den_sq < 0.0:
        reason = NEGATIVE_DENOMINATOR
    else:
        stat = float(np.ldexp(numerator / sqrt(den_sq), num_exp - den_exp // 2))
        if not isfinite(stat):
            stat, reason = None, NON_FINITE
    return TestResult(method, float(np.ldexp(numerator, num_exp)),
                      float(np.ldexp(den_sq, den_exp)), stat, reason)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")


@lru_cache(maxsize=None)
def critical_value(alpha: float) -> float:
    """Two-sided standard normal critical value (1.959964 at alpha = 0.05)."""
    _check_alpha(alpha)
    from scipy.special import ndtri
    return float(ndtri(1.0 - alpha / 2.0))


# Relative half-width of the bracket around the critical value; the stdlib
# quantile (AS 241) was within 1.0e-15 of ndtri for alpha in [2.5e-16, 1).
_BRACKET_WIDTH = 1e-9


@lru_cache(maxsize=None)
def _critical_bracket(alpha: float) -> tuple[float, float]:
    """``(low, high)`` with ``low <= critical_value(alpha) <= high``, from
    the stdlib's normal quantile widened by ``_BRACKET_WIDTH`` each way."""
    _check_alpha(alpha)
    q = 1.0 - alpha / 2.0
    if q == 1.0:  # ndtri(1.0) is inf: nothing is rejected
        return inf, inf
    c = NormalDist().inv_cdf(q)
    return c * (1.0 - _BRACKET_WIDTH), c * (1.0 + _BRACKET_WIDTH)


def decide(result: TestResult, alpha: float) -> TestResult:
    """Fill the rejection decision: reject when ``|statistic|`` exceeds the
    two-sided critical value.  NA statistics yield an NA decision.

    Only a statistic inside :func:`_critical_bracket` is compared with the
    exact :func:`critical_value`; outside it the bracket decides the same."""
    low, high = _critical_bracket(alpha)
    if result.is_na:
        return replace(result, reject=None, alpha=alpha)
    stat = abs(result.statistic)
    reject = stat > high or (stat >= low and stat > critical_value(alpha))
    return replace(result, reject=bool(reject), alpha=alpha)


def order_free(m: int, pairs: int) -> bool:
    """Whether the statistics of bool groups of ``m`` graphs over ``pairs``
    node pairs have the same bits for every order of the pairs.

    Bool statistics are formed from per-pair integer counts: with
    ``k = m // 2`` graphs a half, every ``T_ij`` lies within ``k**2``, every
    ``T_ij**2`` within ``k**4`` and every product of S's half sums within
    ``4 * k**2``.  While ``pairs * max(k**4, 4 * k**2)`` is at most
    ``2**53``, every partial sum of the three reductions is an integer that
    float64 holds exactly, so no order of the additions can round."""
    k = m // 2
    return pairs * max(k**4, 4 * k * k) <= 2**53


def _statistics(methods: tuple[str, ...], g: np.ndarray, h: np.ndarray, halves,
                alpha: float | None) -> tuple[TestResult, ...]:
    """The kernel: the named statistics of the split that ``halves`` (as
    :func:`_check_samples` returns them) makes of the rows of the edge
    arrays ``g`` and ``h``, each decided at ``alpha`` unless it is None."""
    counts = _half_counts(g, h, halves) if g.dtype == h.dtype == bool else None
    results = {}
    # One work block per split: D's half sums, then S's once T is reduced.
    work = np.empty((3, g.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, e_d = _scaled_half_sums(g, h, np.subtract, halves, work, counts)
        # Products go into spent buffers: the float peak stays at three (P,) vectors.
        t = np.multiply(d1, d2, out=d1)
        numerator = float(t.sum())
        if "tn" in methods:
            results["tn"] = _result("tn", numerator,
                                    float(np.square(t, out=d2).sum()),
                                    2 * e_d, 4 * e_d)
        if "tfro" in methods:
            s1, s2, e_s = _scaled_half_sums(g, h, np.add, halves, work, counts)
            results["tfro"] = _result("tfro", numerator,
                                      float(np.multiply(s1, s2, out=s1).sum()),
                                      2 * e_d, 2 * e_s)
    if alpha is None:
        return tuple(results[method] for method in methods)
    return tuple(decide(results[method], alpha) for method in methods)


def run_methods(
    methods: tuple[str, ...], sample_g: GraphSample, sample_h: GraphSample,
    partition: Partition, alpha: float | None, rows=None,
) -> tuple[TestResult, ...]:
    """Compute the named statistics ("tn", "tfro") on one split and decide
    each at ``alpha``, or leave them undecided when it is None; one result
    per requested method, in the order requested.

    ``rows``, a pair ``(rows_g, rows_h)`` of index vectors, maps the split's
    positions to sample rows: position ``k`` pairs graph ``rows_g[k]`` of
    ``sample_g`` with graph ``rows_h[k]`` of ``sample_h``, so a resample of
    the groups is tested without copying it.  None is the identity, every
    row of each sample in order, and is checked and read by the same path.

    D = G - H, its half sums and T are formed once; S = G + H only for
    ``tfro``.  Half sums are streamed from the groups' edge arrays one
    graph at a time, so the kernel holds a few ``(P,)`` vectors whatever
    ``m`` is.  When both samples are bool, the rows are counted once in
    integers and both D's and S's half sums come from the counts, with
    the same bits as the float sums.  Float half sums are scaled by a power
    of two before any product, so ``tn`` is the same for weights of any
    magnitude and ``tfro`` scales exactly with them.  No floating-point
    warning escapes.  This is the checked entry to the kernel; its
    unchecked twin on raw arrays is :func:`run_on_edges`.
    """
    if not set(methods) <= set(METHODS):
        raise ValueError(f"unknown method in {methods!r}, expected a subset of {METHODS}")
    halves = _check_samples(sample_g, sample_h, partition, rows)
    return _statistics(methods, sample_g.edges, sample_h.edges, halves, alpha)


def run_on_edges(methods: tuple[str, ...], g_edges: np.ndarray, h_edges: np.ndarray,
                 partition: Partition, alpha: float | None) -> tuple[TestResult, ...]:
    """:func:`run_methods` on raw ``(m, P)`` edge arrays, every row of each
    in order, with nothing checked: the caller passes known methods and
    arrays of ``partition.m`` rows over the same pairs, in any column order
    the two share.  Bool arrays within :func:`order_free`'s bound give the
    bits of the same graphs in ``pair_layout`` order."""
    halves = tuple((list(half), list(half))
                   for half in (partition.first_half, partition.second_half))
    return _statistics(methods, g_edges, h_edges, halves, alpha)


def run_method(
    method: str, sample_g: GraphSample, sample_h: GraphSample, partition: Partition,
    alpha: float,
) -> TestResult:
    """Compute one named statistic ("tn" or "tfro") and its decision."""
    return run_methods((method,), sample_g, sample_h, partition, alpha)[0]
