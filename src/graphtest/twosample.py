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
but normalizes by cross-products of weight *sums* instead of squared
differences; it is calibrated only when edge variances track squared means
(see :mod:`graphtest.diagnostics`).

Either denominator can vanish on very sparse or identical samples, and
weights near the float64 limit overflow the products; such results are
reported as NA with a reason code instead of a value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np
from scipy.stats import norm

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
        first = tuple(int(i) for i in self.first_half)
        second = tuple(int(i) for i in self.second_half)
        m = len(first) + len(second)
        if len(first) != len(second):
            raise OddSampleSizeError("partition halves must have equal size")
        if set(first) & set(second) or set(first) | set(second) != set(range(m)):
            raise ValueError("partition halves must be disjoint and cover 0..m-1")
        object.__setattr__(self, "first_half", first)
        object.__setattr__(self, "second_half", second)

    @property
    def m(self) -> int:
        return len(self.first_half) * 2


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistic evaluation.

    ``statistic`` and ``p_value`` are None when the denominator is not
    positive or a sum is not finite; ``na_reason`` then says why.
    ``reject`` and ``alpha`` are filled by :func:`decide`.
    """

    method: str
    numerator: float
    denominator_sq: float
    statistic: float | None
    p_value: float | None
    na_reason: str | None = None
    reject: bool | None = None
    alpha: float | None = None

    @property
    def is_na(self) -> bool:
        return self.statistic is None


def random_partition(m: int, rng: np.random.Generator) -> Partition:
    """Uniformly random equal split of ``0..m-1`` (m even, m >= 2)."""
    if m < 2:
        raise TooFewSamplesError(f"need at least 2 graphs per group, got {m}")
    if m % 2 != 0:
        raise OddSampleSizeError(
            f"group size must be even to split into halves, got {m}"
        )
    perm = rng.permutation(m)
    first = tuple(sorted(int(i) for i in perm[: m // 2]))
    second = tuple(sorted(int(i) for i in perm[m // 2:]))
    return Partition(first, second)


def _check_samples(sample_g: GraphSample, sample_h: GraphSample, partition: Partition):
    if sample_g.n != sample_h.n:
        raise DimensionMismatchError(
            f"groups have {sample_g.n} and {sample_h.n} nodes"
        )
    if sample_g.m != sample_h.m:
        raise SampleSizeMismatchError(
            f"groups have {sample_g.m} and {sample_h.m} graphs"
        )
    if partition.m != sample_g.m:
        raise SampleSizeMismatchError(
            f"partition covers {partition.m} pairs but groups have {sample_g.m}"
        )


def _split_products(x: np.ndarray, partition: Partition) -> np.ndarray:
    """Per-pair product of the two halves' sums of the rows of ``x``."""
    s1 = x[list(partition.first_half)].sum(axis=0)
    s2 = x[list(partition.second_half)].sum(axis=0)
    return s1 * s2


def edge_statistics(
    sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> np.ndarray:
    """Per-pair products T_ij, a ``(P,)`` vector in :func:`pair_layout` order."""
    _check_samples(sample_g, sample_h, partition)
    return _split_products(sample_g.edges - sample_h.edges, partition)


def _statistic(
    method: str, sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> TestResult:
    """The kernel of both statistics: split products of D = G - H, and for
    ``tfro`` of S = G + H.  Sums that overflow float64 give NA."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = edge_statistics(sample_g, sample_h, partition)
        den_terms = (t * t if method == "tn"
                     else _split_products(sample_g.edges + sample_h.edges, partition))
        numerator, den_sq = float(t.sum()), float(den_terms.sum())
    if not (isfinite(numerator) and isfinite(den_sq)):
        reason = NON_FINITE
    elif den_sq == 0.0:
        reason = ZERO_DENOMINATOR
    elif den_sq < 0.0:
        reason = NEGATIVE_DENOMINATOR
    else:
        stat = numerator / sqrt(den_sq)
        return TestResult(method, numerator, den_sq, stat, _two_sided_p(stat))
    return TestResult(method, numerator, den_sq, None, None, reason)


def statistic_tn(
    sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> TestResult:
    """Difference-normalized statistic ``sum(T_ij) / sqrt(sum(T_ij^2))``.

    NA when every T_ij is exactly zero (identical or empty samples).
    """
    return _statistic("tn", sample_g, sample_h, partition)


def statistic_tfro(
    sample_g: GraphSample, sample_h: GraphSample, partition: Partition
) -> TestResult:
    """Baseline with the same numerator but a weight-sum denominator::

        t_n^2 = sum over pairs of
            (sum over first half of (G_k,ij + H_k,ij))
          * (sum over second half of (G_k,ij + H_k,ij))

    With non-negative weights ``t_n^2 >= 0``; negative weights can push it
    negative, which is reported as NA with its own reason code.
    """
    return _statistic("tfro", sample_g, sample_h, partition)


def _two_sided_p(stat: float) -> float:
    return float(2.0 * norm.sf(abs(stat)))


@lru_cache(maxsize=None)
def critical_value(alpha: float) -> float:
    """Two-sided standard normal critical value (1.959964 at alpha = 0.05)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")
    return float(norm.ppf(1.0 - alpha / 2.0))


def decide(result: TestResult, alpha: float) -> TestResult:
    """Fill the rejection decision: reject when ``|statistic|`` exceeds the
    two-sided critical value.  NA statistics yield an NA decision."""
    crit = critical_value(alpha)
    if result.is_na:
        return replace(result, reject=None, alpha=alpha)
    return replace(result, reject=bool(abs(result.statistic) > crit), alpha=alpha)


def run_method(
    method: str,
    sample_g: GraphSample,
    sample_h: GraphSample,
    partition: Partition,
    alpha: float,
) -> TestResult:
    """Compute one named statistic ("tn" or "tfro") and its decision."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return decide(_statistic(method, sample_g, sample_h, partition), alpha)
