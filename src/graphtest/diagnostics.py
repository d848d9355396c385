"""Closed-form calibration and power diagnostics.

Everything here is exact arithmetic on model moments, no sampling:

* ``null_variance`` - the true variance of the statistic's numerator under
  the null, ``sum over pairs of m^2 sigma_ij^4``.
* ``condition_ratios`` - the four vanishing ratios behind the normal
  approximation; small values mean the null calibration is trustworthy.
* ``bernoulli_condition`` - the simplified check for binary graphs, which
  only needs ``n`` versus the squared Frobenius norm of the mean matrix.
* ``lambda_n`` - the noncentrality that governs power under the
  alternative; the test's power climbs to one as it grows.
* ``lambda_sparse_bernoulli`` - leading-order noncentrality for two sparse
  binary regimes (proportional means; common level with a small split).
* ``tfro_consistency_ratio`` - expected ratio of the baseline's squared
  denominator to the true numerator variance; values far from 1 predict a
  miscalibrated (typically severely conservative) baseline.

The model diagnostics read the ``(P,)`` pair vectors of a
:class:`ModelMoments`; the family formulas live in :mod:`graphtest.models`.
Dense ``n x n`` matrices enter only through :func:`mean_matrix_moments`
(a :class:`~graphtest.models.MeanMatrix`) and :func:`lambda_n`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    DegenerateModelError,
    DimensionMismatchError,
    InvalidScenarioParamsError,
)
from .graphs import pair_layout
from .models import MeanMatrix, TwoBlockModel, pair_moments


@dataclass(frozen=True, eq=False)
class ModelMoments:
    """Per-pair moments of a model pair (population 1 vs population 2), each
    a ``(P,)`` vector in :func:`~graphtest.graphs.pair_layout` order.

    Under the null the two mean/variance sets coincide and ``eta`` holds the
    per-pair fourth moment of a weight difference between two independent
    null graphs.
    """

    n: int
    m: int
    mu1: np.ndarray
    mu2: np.ndarray
    sigma1_sq: np.ndarray
    sigma2_sq: np.ndarray
    eta: np.ndarray | None = None

    def __post_init__(self):
        # A dense n x n field would be summed over both triangles.
        pairs = self.n * (self.n - 1) // 2
        for name in ("mu1", "mu2", "sigma1_sq", "sigma2_sq", "eta"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (pairs,):
                raise DimensionMismatchError(
                    f"{name} must have shape ({pairs},), got {np.shape(value)}")

    @property
    def is_null(self) -> bool:
        return bool(
            np.array_equal(self.mu1, self.mu2)
            and np.array_equal(self.sigma1_sq, self.sigma2_sq)
        )


def two_block_moments(model: TwoBlockModel, m: int) -> ModelMoments:
    """Moments for the pair (unshifted model, shifted model).

    With ``epsilon = 0`` this is a null configuration.  ``eta`` is always
    computed from the unshifted distributions, matching its null-only role.
    """
    mu1, sigma1_sq, eta = pair_moments(model, shifted=False)
    mu2, sigma2_sq, _ = pair_moments(model, shifted=True)
    return ModelMoments(n=model.n, m=m, mu1=mu1, mu2=mu2,
                        sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, eta=eta)


def mean_matrix_moments(mean: MeanMatrix, m: int) -> ModelMoments:
    """Null moments from a user-supplied mean/variance matrix (no eta)."""
    pairs = pair_layout(mean.n)
    mu, sigma2 = mean.mu[pairs], mean.sigma2[pairs]
    return ModelMoments(n=mean.n, m=m, mu1=mu, mu2=mu,
                        sigma1_sq=sigma2, sigma2_sq=sigma2)


def _null_sigma4(moments: ModelMoments, what: str) -> tuple[np.ndarray, float]:
    """``sigma^4`` per pair of the null ``moments`` and its sum, for the
    diagnostic ``what``; raises unless they are null and the sum positive."""
    if not moments.is_null:
        raise ValueError(f"{what} is a null-model diagnostic; use epsilon = 0 moments")
    s4 = moments.sigma1_sq ** 2
    total_s4 = float(s4.sum())
    if total_s4 == 0.0:
        raise DegenerateModelError("all edge variances are zero")
    return s4, total_s4


def null_variance(moments: ModelMoments) -> float:
    """True variance of the numerator under the null: sum of m^2 sigma^4,
    0 when every variance is."""
    try:
        return float(moments.m**2 * _null_sigma4(moments, "null_variance")[1])
    except DegenerateModelError:
        return 0.0


@dataclass(frozen=True)
class ConditionRatios:
    """The four quantities that must vanish for the normal approximation.

    In order: ``n / sum(sigma^4)``, ``sum(sigma^8) / sum(sigma^4)^2``,
    ``sum(sigma^4 * eta) / (m * sum(sigma^4)^2)``, and
    ``sum(eta^2) / (m^2 * sum(sigma^4)^2)``.
    """

    size_vs_sigma4: float
    sigma8_concentration: float
    sigma4_eta: float
    eta_sq: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.size_vs_sigma4, self.sigma8_concentration,
                self.sigma4_eta, self.eta_sq)

    def all_below(self, cutoff: float) -> bool:
        return all(r < cutoff for r in self.as_tuple())


def condition_ratios(moments: ModelMoments) -> ConditionRatios:
    """Finite-sample values of the four vanishing ratios (caller judges
    smallness; there is no universal cutoff)."""
    if moments.eta is None:
        raise ValueError("condition_ratios needs fourth moments (eta)")
    s4, total_s4 = _null_sigma4(moments, "condition_ratios")
    eta = moments.eta
    total_sq = total_s4 * total_s4
    return ConditionRatios(
        size_vs_sigma4=moments.n / total_s4,
        sigma8_concentration=float((s4 * s4).sum()) / total_sq,
        sigma4_eta=float((s4 * eta).sum()) / (moments.m * total_sq),
        eta_sq=float((eta * eta).sum()) / (moments.m**2 * total_sq),
    )


@dataclass(frozen=True)
class BernoulliCondition:
    """Binary-graph simplification: compare n against ``|mu|_F^2``."""

    n: int
    mu_fro_sq: float
    ratio: float
    degenerate: bool
    bounded: bool
    violations: tuple[tuple[int, int], ...]


def bernoulli_condition(moments: ModelMoments, delta: float) -> BernoulliCondition:
    """Report ``n`` versus the squared Frobenius norm of the mean matrix,
    twice the sum of ``mu1^2`` over the pairs.

    Pairs with mean above ``1 - delta`` are flagged; they break the
    variance-vs-mean bound the simplification relies on.  ``delta`` must lie
    in (0, 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    mu = moments.mu1
    fro_sq = float(2.0 * (mu * mu).sum())
    degenerate = fro_sq == 0.0
    ratio = float("inf") if degenerate else moments.n / fro_sq

    rows, cols = pair_layout(moments.n)
    offenders = mu > 1.0 - delta
    violations = tuple(
        (int(i), int(j)) for i, j in zip(rows[offenders], cols[offenders])
    )
    return BernoulliCondition(
        n=moments.n,
        mu_fro_sq=fro_sq,
        ratio=ratio,
        degenerate=degenerate,
        bounded=not violations,
        violations=violations,
    )


def lambda_n(
    mu1: np.ndarray,
    mu2: np.ndarray,
    sigma1_sq: np.ndarray,
    sigma2_sq: np.ndarray,
    m: int,
) -> float:
    """Noncentrality ``m * sum((mu1-mu2)^2) / (2 * sqrt(sum(V^2)))`` with
    ``V = sigma1^2 + sigma2^2 + (mu1-mu2)^2`` per pair, from ``n x n``
    mean and variance matrices."""
    n = np.shape(mu1)[0]
    pairs = pair_layout(n)
    vectors = (np.asarray(a)[pairs] for a in (mu1, mu2, sigma1_sq, sigma2_sq))
    return lambda_from_moments(ModelMoments(n, m, *vectors))


def lambda_from_moments(moments: ModelMoments) -> float:
    """:func:`lambda_n` on pair-vector moments."""
    d, total_v_sq = _gap_and_v_sq(moments)
    return float(moments.m * (d * d).sum() / (2.0 * sqrt(total_v_sq)))


def _gap_and_v_sq(moments: ModelMoments) -> tuple[np.ndarray, float]:
    """Mean gaps ``d = mu1 - mu2`` and ``sum(V^2)``; raises if every V is 0."""
    d = moments.mu1 - moments.mu2
    v = moments.sigma1_sq + moments.sigma2_sq
    v += d * d  # in place: one pair vector fewer alive at the peak
    total_v_sq = float((v * v).sum())
    if total_v_sq == 0.0:
        raise DegenerateModelError("all V_ij are zero; noncentrality undefined")
    return d, total_v_sq


def lambda_sparse_bernoulli(
    a_n: float, tau_or_b_n: float, n: int, m: int, scenario: str
) -> float:
    """Leading-order noncentrality for two sparse binary regimes.

    Scenario "a": means ``tau * a_n`` vs ``a_n`` on every pair, giving
    ``m * n * a_n * (tau - 1)^2 / (4 * (tau + 1))``.
    Scenario "b": means ``a_n + b_n`` vs ``a_n - b_n``, giving
    ``(m * n / 2) * b_n^2 / a_n``.

    Both drop the vanishing correction factor, so they track the exact
    :func:`lambda_n` only to leading order.
    """
    if not 0.0 < a_n < 1.0:
        raise InvalidScenarioParamsError(f"a_n must lie in (0, 1), got {a_n}")
    if scenario == "a":
        tau = tau_or_b_n
        if tau <= 0:
            raise InvalidScenarioParamsError(f"tau must be positive, got {tau}")
        return m * n * a_n * (tau - 1.0) ** 2 / (4.0 * (tau + 1.0))
    if scenario == "b":
        b_n = tau_or_b_n
        # Only basic sanity here: the expression is a leading-order form for
        # a_n, b_n -> 0 and may be evaluated outside exact probability range.
        if b_n < 0:
            raise InvalidScenarioParamsError(f"b_n must be non-negative, got {b_n}")
        return (m * n / 2.0) * (b_n * b_n) / a_n
    raise InvalidScenarioParamsError(f"scenario must be 'a' or 'b', got {scenario!r}")


def tfro_consistency_ratio(moments: ModelMoments) -> float:
    """Expected squared-denominator ratio of the baseline to the true null
    variance: ``sum(mu^2) / sum(sigma^4)``.  Far from 1 means the baseline's
    normalizer estimates the wrong scale and the test fails."""
    _, total_s4 = _null_sigma4(moments, "tfro_consistency_ratio")
    return float((moments.mu1 ** 2).sum()) / total_s4


def power_condition_ratios(moments: ModelMoments) -> dict[str, float]:
    """Side-condition diagnostics for the power statement.

    Two normalizations are in circulation, ``n / (m * sum(V^2))`` and
    ``n * m / (m^4 * sum(V^2))``; both are reported rather than adjudicated.
    """
    _, total_v_sq = _gap_and_v_sq(moments)
    return {
        "statement": moments.n / (moments.m * total_v_sq),
        "proof": (moments.n * moments.m) / (moments.m**4 * total_v_sq),
    }
