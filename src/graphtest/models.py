"""Generative models for the simulation designs.

A :class:`TwoBlockModel` splits the (even) node set into two equal blocks
and draws each edge weight independently from a Beta or Bernoulli
distribution: one parameter set for within-block pairs, another for
between-block pairs.  A non-negative shift ``epsilon`` defines the second
population (``Beta(a+eps, b+eps)`` / ``Bern(p+eps)``), so ``epsilon = 0``
is the null configuration.  Beta graphs are drawn as float64 weights and
Bernoulli graphs as bool, which the statistics sum exactly in integers.
:func:`bernoulli_draw_order` draws the same Bernoulli graphs with each
row's pairs in draw order, for ``simulate`` to count: their statistics are
exact integer sums that no order of the pairs changes (see
:func:`~graphtest.twosample.order_free`).

Each family's moments and draw rule are written here alone, and
:func:`pair_moments` gives a two-block model's per-pair vectors.  Each
parameter rule is written once: ``_check_family`` checks the family name,
:meth:`TwoBlockModel.params` applies the shift, and each family's moment
function checks its range, before and after the shift.
Arbitrary inhomogeneous means and variances enter
:func:`sample_graph_from_means` and
:class:`~graphtest.diagnostics.ModelMoments` as ``(P,)`` pair vectors.

It is also the one JSON boundary of model and experiment documents:
:func:`read_json` reads a file, :func:`json_object` checks an object's type,
keys and schema, and :func:`json_design` parses the family, ``within`` and
``between`` of a model document or an experiment's ``design``.
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
from .graphs import GraphSample, pair_layout, pair_vector
from .rng import check_integer

FAMILIES = ("beta", "bernoulli")


def _is_number(value) -> bool:
    """Whether ``value`` is a model parameter or shift: an ``int`` or
    ``float`` but not a bool.  NaN and inf are range errors."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_family(family) -> None:
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")


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
        _check_family(self.family)
        if check_integer(self.n, "node count") < 2:
            raise ConfigError(f"node count must be at least 2, got {self.n}")
        if self.n % 2 != 0:
            raise OddNodeCountError(f"two-block designs need even n, got {self.n}")
        if not (_is_number(self.epsilon) and 0 <= self.epsilon < np.inf):
            raise ConfigError(f"epsilon must be a non-negative real, got {self.epsilon!r}")
        # Adding 0 turns -0.0, printed "-0.0", into 0.0 and keeps any other value.
        object.__setattr__(self, "epsilon", self.epsilon + 0)
        for params in (self.within, self.between):
            if self.family == "bernoulli":
                if not _is_number(params):
                    raise ConfigError(f"bernoulli parameter must be a probability, got {params!r}")
            elif not (isinstance(params, tuple) and len(params) == 2
                      and all(map(_is_number, params))):
                raise ConfigError(f"beta parameters must be an (a, b) pair, got {params!r}")
        # The family's moment rule checks each range, before and after the shift.
        for shifted in (False, True):
            for params in self.params(shifted):
                _family_moments(self.family, params)

    def params(self, shifted: bool) -> tuple:
        """(within, between) parameters, with the shift applied if requested."""
        if not shifted or self.epsilon == 0.0:
            return self.within, self.between
        if self.family == "beta":
            e = self.epsilon
            (a, b), (c, d) = self.within, self.between
            return (a + e, b + e), (c + e, d + e)
        return self.within + self.epsilon, self.between + self.epsilon


@lru_cache(maxsize=None)
def _blocks(n: int) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """``(mask, count)`` over :func:`pair_layout` for the within-block
    pairs, then for the between-block pairs."""
    rows, cols = pair_layout(n)
    within = (rows < n // 2) == (cols < n // 2)
    return tuple((mask, int(mask.sum())) for mask in (within, ~within))


def beta_moments(alpha: float, beta: float) -> tuple[float, float]:
    """Mean and variance of Beta(alpha, beta)."""
    # Chained comparisons are false for NaN as well as out of range.
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
        raise NonPositiveParameterError(
            f"beta shapes must be finite and positive, got ({alpha}, {beta})"
        )
    s = alpha + beta
    # Above the float64 max s overflows to inf, but the sum of the halves
    # does not, and halving is exact at that size, so the mean keeps its bits.
    mean = alpha / s if s < np.inf else (alpha / 2) / (alpha / 2 + beta / 2)
    # Below about 1e-162 s * s underflows to zero, and above about 1e154 it
    # (and alpha * beta) overflows; the second form does neither.
    var = (alpha * beta / (s * s * (s + 1.0)) if 0.0 < s * s < np.inf
           else mean * (beta / s) / (s + 1.0))
    return mean, var


def bernoulli_moments(p: float) -> tuple[float, float]:
    """Mean and variance of Bern(p)."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityRangeError(f"probability must lie in [0, 1], got {p}")
    return p, p * (1.0 - p)


def _beta_central_fourth(alpha: float, beta: float) -> float:
    """Central fourth moment of Beta(alpha, beta), from the raw moments
    ``m_k = prod over r < k of (alpha + r) / (alpha + beta + r)``."""
    raw, value = [], 1.0
    for r in range(4):
        value *= (alpha + r) / (alpha + beta + r)
        raw.append(value)
    m1, m2, m3, m4 = raw
    return m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4


def _family_moments(family: str, params) -> tuple[float, float, float]:
    """Mean, variance and paired-difference fourth moment of one edge distribution."""
    if family == "beta":
        mean, var = beta_moments(*params)
        mu4 = _beta_central_fourth(*params)
    else:
        mean, var = bernoulli_moments(params)
        mu4 = var * (1.0 - 3.0 * var)
    return mean, var, 2.0 * mu4 + 6.0 * var * var


def paired_difference_fourth_moment(family: str, params) -> float:
    """E[(X - Y)^4] for X, Y i.i.d. from the given edge distribution.

    Expanding around the mean gives ``2*mu4 + 6*sigma^4`` with ``mu4`` the
    central fourth moment.  Bad parameters raise as in ``beta_moments`` and
    ``bernoulli_moments``.
    """
    return _family_moments(family, params)[2]


def pair_moments(model: TwoBlockModel, shifted: bool) -> tuple[np.ndarray, ...]:
    """Per-pair ``(mean, variance, eta)`` vectors in :func:`pair_layout`
    order, ``eta`` being :func:`paired_difference_fourth_moment`."""
    (within, _), _ = _blocks(model.n)
    moments = (_family_moments(model.family, p) for p in model.params(shifted))
    return tuple(np.where(within, w, b) for w, b in zip(*moments))


def _draw_pairs(family: str, params, size: int, rng: np.random.Generator,
                out: np.ndarray | None = None,
                buffer: np.ndarray | None = None) -> np.ndarray:
    """``size`` draws from ``rng``; Bernoulli ones are compared into
    ``out`` if given, from uniforms drawn into ``buffer`` if given."""
    if family == "beta":
        return rng.beta(*params, size=size)
    # Bern(p) as a thresholded uniform; exact at p = 0 and p = 1.
    uniforms = rng.random(size) if buffer is None else rng.random(out=buffer[:size])
    return np.less(uniforms, params, out=out)


def sample_population(
    model: TwoBlockModel, shifted: bool, m: int, rng: np.random.Generator
) -> GraphSample:
    """Draw ``m`` i.i.d. graphs from the model, graph by graph: within-block
    pairs first, then between-block pairs, so a given stream state always
    produces the same sample.  Bernoulli graphs are a bool sample."""
    if m < 1:
        raise ConfigError(f"population size must be at least 1, got {m}")
    blocks = tuple(zip(_blocks(model.n), model.params(shifted)))
    edges = np.empty((m, model.n * (model.n - 1) // 2),
                     dtype=bool if model.family == "bernoulli" else np.float64)
    for row in edges:
        for (mask, size), params in blocks:
            row[mask] = _draw_pairs(model.family, params, size, rng)
    return GraphSample.from_edges(edges)


def bernoulli_draw_order(model: TwoBlockModel, shifted: bool, m: int,
                         rng: np.random.Generator) -> np.ndarray:
    """The bool ``(m, P)`` edges of the Bernoulli graphs that
    :func:`sample_population` draws from the same stream state, with each
    row's pairs in the order they are drawn: the within-block pairs, then
    the between-block pairs, each in :func:`pair_layout` order.  The same
    uniforms meet the same pairs, so this is a column permutation of that
    sample's edges, drawn without scattering each row into pair order."""
    (_, within), (_, between) = _blocks(model.n)
    edges = np.empty((m, within + between), dtype=bool)
    # One uniform buffer for every block, freed before the group is tested.
    buffer = np.empty(max(within, between))
    params = model.params(shifted)
    for row in edges:
        for cols, p in zip((row[:within], row[within:]), params):
            _draw_pairs("bernoulli", p, cols.size, rng, cols, buffer)
    return edges


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
    mu, sigma2, family: str, rng: np.random.Generator
) -> GraphSample:
    """Draw a one-graph sample with an arbitrary inhomogeneous mean structure.

    ``mu`` and ``sigma2`` are the ``(P,)`` pair vectors of the means and
    variances, checked by :func:`~graphtest.graphs.pair_vector` before any
    draw.  Each pair is drawn independently, in :func:`pair_layout` order:
    the Beta family matches its mean and variance (method of moments), the
    Bernoulli family its mean, in a bool graph.
    """
    _check_family(family)
    mu = pair_vector(mu, "mu")
    sigma2 = pair_vector(sigma2, "sigma2", mu.size, nonnegative=True)
    params = mu
    if family == "beta":
        params = beta_params_from_moments(mu, sigma2)
    elif ((mu < 0) | (mu > 1)).any():
        raise ProbabilityRangeError("bernoulli means must lie in [0, 1]")
    return GraphSample.from_edges(_draw_pairs(family, params, mu.size, rng)[np.newaxis])


_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               list: ((list,), "a list")}


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``.  Text that does not
    decode (bad UTF-8 or JSON, or past Python's integer-digit or nesting
    limits) is a :class:`ConfigError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err


def json_value(value, key: str, kind: type):
    """``value`` from a JSON document, required to be an integer (``kind``
    ``int``), a number (``float``, returned as a float) or a list (``list``).
    A bool is neither an integer nor a number."""
    types, name = _JSON_KINDS[kind]
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            return float(value) if kind is float else value
        except OverflowError:
            pass
    raise ConfigError(f"{key} must be {name}, got {value!r}")


def json_object(doc, kind: str, required: set, optional: set = frozenset(),
                schema: bool = True) -> dict:
    """``doc``, required to be a JSON object with every ``required`` key and
    no key outside ``required`` and ``optional``; with ``schema`` it must
    also declare ``"schema": 1``.  Errors name the object: "<kind>
    document", or ``kind`` alone without ``schema`` (an object nested in a
    document)."""
    name = f"{kind} document" if schema else kind
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(doc) - required - optional - ({"schema"} if schema else set())
    if unknown:
        raise ConfigError(f"unknown {kind} keys: {sorted(unknown)}")
    if schema and ("schema" not in doc or json_value(doc["schema"], "schema", int) != 1):
        raise ConfigError(f"{name} must declare \"schema\": 1")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{name} missing keys: {sorted(missing)}")
    return doc


def json_design(doc: dict) -> tuple:
    """``(family, within, between)`` of a checked model document or
    experiment design: ``within`` and ``between`` are ``[a, b]`` pairs of
    numbers for the beta family and numbers for the Bernoulli family.
    Their ranges are checked where a :class:`TwoBlockModel` is built."""
    family = doc["family"]
    _check_family(family)

    def params(key):
        value = doc[key]
        if family == "beta":
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"{key} must be an [a, b] pair for the beta family")
            return tuple(json_value(v, f"{key} entry", float) for v in value)
        return json_value(value, key, float)

    return family, params("within"), params("between")


def _model_from_json(doc) -> TwoBlockModel:
    """Build a model from its JSON document form: ``{"schema": 1,
    "family": "beta"|"bernoulli", "n": int, "within": [a, b] | p,
    "between": [c, d] | p, "epsilon": float}``, ``epsilon`` optional."""
    doc = json_object(doc, "model", {"family", "n", "within", "between"}, {"epsilon"})
    return TwoBlockModel(json_value(doc["n"], "n", int), *json_design(doc),
                         json_value(doc.get("epsilon", 0.0), "epsilon", float))


def load_model_json(path) -> TwoBlockModel:
    return _model_from_json(read_json(path))
