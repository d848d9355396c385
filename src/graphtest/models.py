"""Generative models for the simulation designs.

A :class:`TwoBlockModel` splits the (even) node set into two equal blocks
and draws each edge weight independently from a Beta or Bernoulli
distribution: one parameter set for within-block pairs, another for
between-block pairs.  A non-negative shift ``epsilon`` defines the second
population (``Beta(a+eps, b+eps)`` / ``Bern(p+eps)``), so ``epsilon = 0``
is the null configuration.

Arbitrary inhomogeneous means enter through :class:`MeanMatrix`, from
which :func:`~graphtest.diagnostics.mean_matrix_moments` takes the pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    NonPositiveParameterError,
    OddNodeCountError,
    ProbabilityRangeError,
)
from .graphs import AdjacencyMatrix, GraphSample, pair_layout, require_finite

FAMILIES = ("beta", "bernoulli")


@dataclass(frozen=True)
class TwoBlockModel:
    """Two-block edge-weight model.

    ``within``/``between`` are ``(a, b)`` shape pairs for the Beta family or
    success probabilities for the Bernoulli family.
    """

    n: int
    family: str
    within: tuple[float, float] | float
    between: tuple[float, float] | float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n < 2:
            raise ConfigError(f"node count must be at least 2, got {self.n}")
        if self.n % 2 != 0:
            raise OddNodeCountError(f"two-block designs need even n, got {self.n}")
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigError(f"epsilon must be a non-negative real, got {self.epsilon!r}")
        for params in (self.within, self.between):
            self._check_params(params)

    def _check_params(self, params) -> None:
        if self.family == "beta":
            if not (isinstance(params, tuple) and len(params) == 2):
                raise ConfigError(f"beta parameters must be an (a, b) pair, got {params!r}")
            a, b = params
            for shift in (0.0, self.epsilon):
                # Chained comparisons are false for NaN as well as out of range.
                if not (0.0 < a + shift < np.inf and 0.0 < b + shift < np.inf):
                    raise NonPositiveParameterError(
                        f"beta shapes must be finite and positive, got ({a}, {b}) "
                        f"with shift {shift}"
                    )
        else:
            if not isinstance(params, (int, float)):
                raise ConfigError(f"bernoulli parameter must be a probability, got {params!r}")
            for shift in (0.0, self.epsilon):
                p = params + shift
                if not 0.0 <= p <= 1.0:
                    raise ProbabilityRangeError(
                        f"bernoulli probability {params} + shift {shift} leaves [0, 1]"
                    )

    def params(self, shifted: bool) -> tuple:
        """(within, between) parameters, with the shift applied if requested."""
        if not shifted or self.epsilon == 0.0:
            return self.within, self.between
        if self.family == "beta":
            e = self.epsilon
            (a, b), (c, d) = self.within, self.between
            return (a + e, b + e), (c + e, d + e)
        return self.within + self.epsilon, self.between + self.epsilon


@dataclass(frozen=True, eq=False)
class MeanMatrix:
    """Per-pair edge-weight means and variances: n x n, finite, symmetric,
    zero diagonal."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64, copy=True)
        s2 = np.array(self.sigma2, dtype=np.float64, copy=True)
        for name, arr in (("mu", mu), ("sigma2", s2)):
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ConfigError(f"{name} must be square, got shape {arr.shape}")
            require_finite(arr)
            if not np.array_equal(arr, arr.T):
                raise ConfigError(f"{name} must be symmetric")
            if np.diagonal(arr).any():
                raise ConfigError(f"{name} must have a zero diagonal")
        if mu.shape != s2.shape:
            raise ConfigError("mu and sigma2 must have matching shapes")
        if (s2 < 0).any():
            raise ConfigError("variances must be non-negative")
        mu.setflags(write=False)
        s2.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", s2)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@lru_cache(maxsize=None)
def _blocks(n: int) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """``(mask, count)`` over :func:`pair_layout` for the within-block
    pairs, then for the between-block pairs."""
    rows, cols = pair_layout(n)
    within = (rows < n // 2) == (cols < n // 2)
    return tuple((mask, int(mask.sum())) for mask in (within, ~within))


def beta_moments(alpha: float, beta: float) -> tuple[float, float]:
    """Mean and variance of Beta(alpha, beta)."""
    if alpha <= 0 or beta <= 0:
        raise NonPositiveParameterError(
            f"beta shapes must be positive, got ({alpha}, {beta})"
        )
    s = alpha + beta
    mean = alpha / s
    var = alpha * beta / (s * s * (s + 1.0))
    return mean, var


def bernoulli_moments(p: float) -> tuple[float, float]:
    """Mean and variance of Bern(p)."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityRangeError(f"probability must lie in [0, 1], got {p}")
    return p, p * (1.0 - p)


def _family_moments(family: str, params) -> tuple[float, float]:
    if family == "beta":
        return beta_moments(*params)
    return bernoulli_moments(params)


def _pair_moments(model: TwoBlockModel, shifted: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``(mean, variance)`` vectors in :func:`pair_layout` order."""
    (within, _), _ = _blocks(model.n)
    p_within, p_between = model.params(shifted)
    mw, vw = _family_moments(model.family, p_within)
    mb, vb = _family_moments(model.family, p_between)
    return np.where(within, mw, mb), np.where(within, vw, vb)


def model_mean_matrix(model: TwoBlockModel, shifted: bool = False) -> MeanMatrix:
    """Per-pair mean/variance matrices implied by the model (shift optional)."""
    mu, sigma2 = GraphSample.from_edges(np.stack(_pair_moments(model, shifted))).graphs
    return MeanMatrix(mu.weights, sigma2.weights)


def _draw_pairs(family: str, params, size: int, rng: np.random.Generator) -> np.ndarray:
    if family == "beta":
        a, b = params
        return rng.beta(a, b, size=size)
    # Bern(p) as a thresholded uniform; exact at p = 0 and p = 1.
    return (rng.random(size) < params).astype(np.float64)


def sample_population(
    model: TwoBlockModel, shifted: bool, m: int, rng: np.random.Generator
) -> GraphSample:
    """Draw ``m`` i.i.d. graphs from the model, graph by graph: within-block
    pairs first, then between-block pairs, so a given stream state always
    produces the same sample."""
    if m < 1:
        raise ConfigError(f"population size must be at least 1, got {m}")
    blocks = tuple(zip(_blocks(model.n), model.params(shifted)))
    edges = np.empty((m, model.n * (model.n - 1) // 2))
    for row in edges:
        for (mask, size), params in blocks:
            row[mask] = _draw_pairs(model.family, params, size, rng)
    return GraphSample.from_edges(edges)


def beta_params_from_moments(mean, variance):
    """Invert (mean, variance) to Beta shape parameters.

    Requires 0 < mean < 1 and 0 < variance < mean*(1-mean).  Arrays are
    inverted elementwise; an error names the first offending element.
    """
    mean, variance = np.broadcast_arrays(mean, variance)
    bad = ~((mean > 0.0) & (mean < 1.0))
    if bad.any():
        raise NonPositiveParameterError(
            f"beta mean must lie in (0, 1), got {mean[bad][0]}"
        )
    limit = mean * (1.0 - mean)
    bad = ~((variance > 0.0) & (variance < limit))
    if bad.any():
        raise NonPositiveParameterError(
            f"beta variance must lie in (0, {limit[bad][0]:g}), got {variance[bad][0]}"
        )
    concentration = limit / variance - 1.0
    return mean * concentration, (1.0 - mean) * concentration


def sample_graph_from_means(
    mean: MeanMatrix, family: str, rng: np.random.Generator
) -> AdjacencyMatrix:
    """Draw one graph with an arbitrary inhomogeneous mean structure.

    Each pair (i, j) is drawn independently from the family member with
    mean ``mean.mu[i, j]``; the Beta family additionally matches
    ``mean.sigma2[i, j]`` (method of moments), while the Bernoulli family's
    variance is implied by its mean.  Pairs are drawn in
    :func:`pair_layout` order.
    """
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
    rows, cols = pair_layout(mean.n)
    mu = mean.mu[rows, cols]
    if family == "bernoulli":
        if ((mu < 0) | (mu > 1)).any():
            raise ProbabilityRangeError("bernoulli means must lie in [0, 1]")
        vals = (rng.random(mu.size) < mu).astype(np.float64)
    else:
        vals = rng.beta(*beta_params_from_moments(mu, mean.sigma2[rows, cols]))
    return GraphSample.from_edges(vals[np.newaxis]).graphs[0]


MODEL_KEYS = {"schema", "family", "n", "within", "between", "epsilon"}


def model_from_json(doc: dict) -> TwoBlockModel:
    """Build a model from its JSON document form.

    Expected shape: ``{"schema": 1, "family": "beta"|"bernoulli", "n": int,
    "within": [a, b] | p, "between": [c, d] | p, "epsilon": float}``.
    Unknown keys are rejected to catch typos.
    """
    if not isinstance(doc, dict):
        raise ConfigError("model document must be a JSON object")
    unknown = set(doc) - MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    if doc.get("schema") != 1:
        raise ConfigError("model document must declare \"schema\": 1")
    missing = {"family", "n", "within", "between"} - set(doc)
    if missing:
        raise ConfigError(f"model document missing keys: {sorted(missing)}")

    family = doc["family"]
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")

    def _params(value, key):
        if family == "beta":
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"{key} must be an [a, b] pair for the beta family")
            return (float(value[0]), float(value[1]))
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key} must be a probability for the bernoulli family")
        return float(value)

    return TwoBlockModel(
        n=int(doc["n"]),
        family=family,
        within=_params(doc["within"], "within"),
        between=_params(doc["between"], "between"),
        epsilon=float(doc.get("epsilon", 0.0)),
    )


def load_model_json(path) -> TwoBlockModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return model_from_json(doc)
