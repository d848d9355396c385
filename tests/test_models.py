"""Tests for the two-block generators and their moment formulas."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtest.diagnostics import ModelMoments
from graphtest.errors import (
    ConfigError,
    DimensionMismatchError,
    GraphTestError,
    NonFiniteEntryError,
    NonPositiveParameterError,
    OddNodeCountError,
    ProbabilityRangeError,
)
from graphtest.graphs import GraphSample, pair_layout
from graphtest.models import (
    TwoBlockModel,
    _model_from_json,
    bernoulli_moments,
    beta_moments,
    beta_params_from_moments,
    pair_moments,
    sample_graph_from_means,
    sample_population,
)
from graphtest.rng import substream
from oracles import float_bernoulli_from_means, float_bernoulli_population


def _pair(n, i, j):
    """Position of the pair (i, j), i < j, in ``pair_layout(n)``."""
    rows, cols = pair_layout(n)
    return int(np.flatnonzero((rows == i) & (cols == j))[0])


class TestBlockOfPair:
    """Blocks are read off the model's pair means: a pair has the
    within-block mean iff both nodes lie in the same half."""

    MODEL = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))

    def _block(self, i, j):
        """Block of the 1-based pair (i, j)."""
        mu = pair_moments(self.MODEL, shifted=False)[0][_pair(10, i - 1, j - 1)]
        return {beta_moments(2.0, 3.0)[0]: "within",
                beta_moments(1.0, 3.0)[0]: "between"}[mu]

    def test_first_block_pair(self):
        assert self._block(1, 2) == "within"

    def test_straddling_pair(self):
        assert self._block(5, 6) == "between"

    def test_second_block_pair(self):
        assert self._block(6, 10) == "within"

    def test_odd_n_rejected(self):
        """Nine nodes cannot be split into two equal halves."""
        with pytest.raises(OddNodeCountError):
            TwoBlockModel(n=9, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))

    def test_every_pair_classified_by_half(self):
        for i in range(1, 10):
            for j in range(i + 1, 11):
                same_half = (i <= 5) == (j <= 5)
                assert self._block(i, j) == ("within" if same_half else "between")


class TestBetaMoments:
    def test_right_skewed(self):
        mean, var = beta_moments(2, 3)
        assert mean == pytest.approx(0.4, rel=1e-12)
        assert var == pytest.approx(0.04, rel=1e-12)

    def test_uniform(self):
        mean, var = beta_moments(1, 1)
        assert mean == 0.5
        assert var == pytest.approx(1 / 12, rel=1e-12)

    def test_left_skewed(self):
        mean, var = beta_moments(9, 3)
        assert mean == pytest.approx(0.75, rel=1e-12)
        assert var == pytest.approx(27 / (144 * 13), rel=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveParameterError):
            beta_moments(0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 3.0), (2.0, math.nan),
                                     (math.inf, 3.0), (2.0, math.inf),
                                     (-math.inf, 3.0)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(NonPositiveParameterError,
                           match="beta shapes must be finite and positive"):
            beta_moments(a, b)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (9.0, 3.0)])
    def test_monte_carlo_cross_check(self, a, b):
        """Formula mean/variance within 3 standard errors of 1e6 draws."""
        rng = np.random.default_rng(101)
        draws = rng.beta(a, b, size=1_000_000)
        mean, var = beta_moments(a, b)
        se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 3 * se_mean
        centered_sq = (draws - draws.mean()) ** 2
        se_var = centered_sq.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.var(ddof=1) - var) < 3 * se_var

    @pytest.mark.parametrize("a,b", [(1e308, 1e308), (1.7e308, 1e308),
                                     (1e308, 0.8e308), (sys.float_info.max,) * 2,
                                     (3.0, 7.0), (1e200, 3e200)])
    def test_mean_survives_an_overflowing_shape_sum(self, a, b):
        """alpha + beta overflowed above the float64 max, and the mean came
        out 0.  Scaling both shapes by a power of two leaves the mean's bits
        unchanged, overflow or not, and the variance stays finite."""
        mean, var = beta_moments(a, b)
        assert mean == beta_moments(a * 2.0**-600, b * 2.0**-600)[0]
        assert 0.0 <= var < 1.0
        if a == b:
            assert mean == 0.5

    def test_shift_monotone_for_right_skew(self):
        """For a < b the shifted mean (a+e)/(a+b+2e) strictly increases in e."""
        a, b = 2.0, 3.0
        grid = np.linspace(0.0, 2.0, 21)
        means = [beta_moments(a + e, b + e)[0] for e in grid]
        assert all(m2 > m1 for m1, m2 in zip(means, means[1:]))


class TestModelValidation:
    def test_odd_n_rejected(self):
        with pytest.raises(OddNodeCountError):
            TwoBlockModel(n=5, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            TwoBlockModel(n=4, family="poisson", within=1.0, between=1.0)

    def test_shifted_probability_out_of_range(self):
        with pytest.raises(ProbabilityRangeError):
            TwoBlockModel(n=4, family="bernoulli", within=0.95, between=0.5,
                          epsilon=0.1)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            TwoBlockModel(n=4, family="beta", within=(2.0, 3.0),
                          between=(1.0, 3.0), epsilon=-0.1)

    @pytest.mark.parametrize("family, within, error", [
        ("beta", (math.nan, 3.0), NonPositiveParameterError),
        ("beta", (2.0, math.inf), NonPositiveParameterError),
        ("beta", (-math.inf, 3.0), NonPositiveParameterError),
        ("bernoulli", math.nan, ProbabilityRangeError),
        ("bernoulli", math.inf, ProbabilityRangeError),
    ])
    def test_non_finite_parameter_rejected(self, family, within, error):
        between = (1.0, 3.0) if family == "beta" else 0.5
        with pytest.raises(error):
            TwoBlockModel(n=4, family=family, within=within, between=between)

    @pytest.mark.parametrize("n, family, within, message", [
        (0, "beta", (2.0, 3.0), "node count must be at least 2, got 0"),
        (4, "beta", (2.0,), "beta parameters must be an (a, b) pair, got (2.0,)"),
        (4, "beta", [2.0, 3.0], "beta parameters must be an (a, b) pair, got [2.0, 3.0]"),
        (4, "bernoulli", "0.5", "bernoulli parameter must be a probability, got '0.5'"),
        # A float n used to pass and fail later inside the sampler.
        (4.0, "beta", (2.0, 3.0), "node count must be an integer, got 4.0"),
        (np.float64(4.0), "beta", (2.0, 3.0),
         f"node count must be an integer, got {np.float64(4.0)!r}"),
        (True, "beta", (2.0, 3.0), "node count must be an integer, got True"),
        ("4", "beta", (2.0, 3.0), "node count must be an integer, got '4'"),
        (4, "beta", ("2", 3.0), "beta parameters must be an (a, b) pair, got ('2', 3.0)"),
        (4, "beta", (None, 3.0), "beta parameters must be an (a, b) pair, got (None, 3.0)"),
        (4, "beta", (2.0, [3.0]), "beta parameters must be an (a, b) pair, got (2.0, [3.0])"),
    ])
    def test_malformed_model_message(self, n, family, within, message):
        between = (1.0, 3.0) if family == "beta" else 0.5
        with pytest.raises(ConfigError) as err:
            TwoBlockModel(n=n, family=family, within=within, between=between)
        assert str(err.value) == message

    def test_non_finite_beta_message(self):
        with pytest.raises(NonPositiveParameterError,
                           match="beta shapes must be finite and positive"):
            TwoBlockModel(n=4, family="beta", within=(math.nan, 3.0),
                          between=(1.0, 3.0), epsilon=0.5)

    def test_shifted_params(self):
        model = TwoBlockModel(n=4, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.5)
        assert model.params(False) == ((2.0, 3.0), (1.0, 3.0))
        assert model.params(True) == ((2.5, 3.5), (1.5, 3.5))

    def test_numpy_integer_n_accepted(self):
        model = TwoBlockModel(n=np.int64(4), family="bernoulli", within=0.5, between=0.4)
        assert sample_population(model, False, 1, substream(1, 0)).n == 4

    @pytest.mark.parametrize("family, within, between, epsilon, error, message", [
        ("bernoulli", 0.99, 0.5, 0.02, ProbabilityRangeError,
         "probability must lie in [0, 1], got 1.01"),
        ("beta", (0.0, 1.0), (1.0, 3.0), 0.0, NonPositiveParameterError,
         "beta shapes must be finite and positive, got (0.0, 1.0)"),
        ("beta", (1e308, 1.0), (1.0, 3.0), 1e308, NonPositiveParameterError,
         "beta shapes must be finite and positive, got (inf, 1e+308)"),
        # Both ranges before the shift are checked before either after it.
        ("bernoulli", 0.99, -0.1, 0.02, ProbabilityRangeError,
         "probability must lie in [0, 1], got -0.1"),
    ], ids=["shifted-bernoulli", "beta", "shifted-beta", "unshifted-first"])
    def test_range_error_names_the_value(self, family, within, between, epsilon,
                                         error, message):
        with pytest.raises(error) as err:
            TwoBlockModel(n=4, family=family, within=within, between=between,
                          epsilon=epsilon)
        assert str(err.value) == message

    def test_subnormal_beta_shapes_accepted(self):
        """Their variance once divided by an s * s that underflows to zero."""
        model = TwoBlockModel(n=4, family="beta", within=(5e-324, 5e-324),
                              between=(1.0, 3.0))
        assert pair_moments(model, shifted=False)[1][_pair(4, 0, 1)] == 0.25

    @pytest.mark.parametrize("epsilon", [None, "0.1", (0.1,)])
    def test_non_numeric_epsilon_rejected(self, epsilon):
        """epsilon takes the number rule of a Bernoulli probability; it once
        reached np.isfinite and raised a bare TypeError."""
        with pytest.raises(ConfigError) as err:
            TwoBlockModel(n=4, family="beta", within=(2.0, 3.0), between=(1.0, 3.0),
                          epsilon=epsilon)
        assert str(err.value) == f"epsilon must be a non-negative real, got {epsilon!r}"

    def test_huge_beta_shapes_have_finite_moments(self):
        """Above about 1e154, s * s and alpha * beta overflow; the variance
        was NaN."""
        assert beta_moments(1e200, 1e200) == (0.5, 0.5 * 0.5 / (2e200 + 1.0))
        model = TwoBlockModel(n=4, family="beta", within=(1e200, 1e200),
                              between=(1.0, 3.0))
        assert np.isfinite(pair_moments(model, shifted=False)[1]).all()


_EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0, 1,
                                5e-324, 2.2250738585072014e-308, 0.5, 0.99, 1.0,
                                2.0, 1e300, 1.7e308])
_VALUES = st.one_of(_EDGE_VALUES, st.floats())


def _moment_rule_error(family, within, between, epsilon):
    """``(class, message)`` of the first error a model must raise, or None:
    the epsilon rule, then the family's moment function on the unshifted
    and on the shifted parameters, within before between."""
    if not 0.0 <= epsilon < math.inf:
        return ConfigError, f"epsilon must be a non-negative real, got {epsilon!r}"
    if family == "beta":
        def rule(shapes):
            beta_moments(*shapes)
        shifted = [tuple(x + epsilon for x in shapes) for shapes in (within, between)]
    else:
        rule = bernoulli_moments
        shifted = [p + epsilon for p in (within, between)]
    for params in (within, between, *shifted):
        try:
            rule(params)
        except GraphTestError as err:
            return type(err), str(err)
    return None


@settings(deadline=None, max_examples=400)
@given(family=st.sampled_from(["beta", "bernoulli"]), data=st.data(), epsilon=_VALUES)
def test_model_raises_exactly_as_the_moment_rule(family, data, epsilon):
    """A model is refused exactly when the moment rule refuses one of its
    parameters before or after the shift, with the same class and message."""
    param = st.tuples(_VALUES, _VALUES) if family == "beta" else _VALUES
    within, between = data.draw(param), data.draw(param)
    expected = _moment_rule_error(family, within, between, epsilon)
    try:
        TwoBlockModel(n=4, family=family, within=within, between=between,
                      epsilon=epsilon)
    except GraphTestError as err:
        assert (type(err), str(err)) == expected
    else:
        assert expected is None


class TestModelMeanMatrix:
    """A model's mean structure, as the pair vectors of ``pair_moments``."""

    def test_bernoulli_two_block_pattern(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.5, between=0.4)
        mu, sigma2, _ = pair_moments(model, shifted=False)
        # Blocks {1,2} and {3,4}: within pairs (1,2) and (3,4), rest between.
        assert mu.shape == sigma2.shape == (6,)
        assert mu[_pair(4, 0, 1)] == 0.5 and mu[_pair(4, 2, 3)] == 0.5
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert mu[_pair(4, i, j)] == 0.4
        assert sigma2[_pair(4, 0, 1)] == pytest.approx(0.25)
        assert sigma2[_pair(4, 0, 2)] == pytest.approx(0.24)

    def test_beta_within_mean(self):
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        mu = pair_moments(model, shifted=False)[0]
        assert mu[_pair(6, 0, 1)] == pytest.approx(0.4)
        assert mu[_pair(6, 0, 3)] == pytest.approx(0.25)

    def test_degenerate_bernoulli_variance(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=1.0, between=1.0)
        assert not pair_moments(model, shifted=False)[1].any()

    def test_shifted_matrix_uses_shifted_params(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.5, between=0.4,
                              epsilon=0.1)
        mu = pair_moments(model, shifted=True)[0]
        assert mu[_pair(4, 0, 1)] == pytest.approx(0.6)
        assert mu[_pair(4, 0, 2)] == pytest.approx(0.5)


def _null_moments(mu, sigma2, family, rng):
    """Null ``ModelMoments`` on 4 nodes, called as ``sample_graph_from_means``
    is; ``family`` and ``rng`` are unused."""
    return ModelMoments(4, 2, mu, mu, sigma2, sigma2)


# The two entry points of per-pair means and variances, each with the names
# it gives the mean and the variance vector.
ENTRY_POINTS = ((sample_graph_from_means, "mu", "sigma2"),
                (_null_moments, "mu1", "sigma1_sq"))


class TestMeanMatrixValidation:
    """Per-pair means and variances are checked where they enter, by
    ``sample_graph_from_means`` and ``ModelMoments``, before any draw."""

    @staticmethod
    def _refused(mu, sigma2, error):
        """The ``error`` each entry point raises for each family, having
        drawn nothing."""
        raised = []
        for entry, _, _ in ENTRY_POINTS:
            for family in ("beta", "bernoulli"):
                rng = substream(23, 0)
                before = rng.bit_generator.state
                with pytest.raises(error) as err:
                    entry(mu, sigma2, family, rng)
                assert rng.bit_generator.state == before
                raised.append(err.value)
        return raised

    @pytest.mark.parametrize("field", ["mu", "sigma2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_named(self, field, value):
        """The first non-finite pair is named by its (i, j) in pair_layout
        order.  A NaN Bernoulli mean once passed the range check
        ``(mu < 0) | (mu > 1)`` and drew an empty graph."""
        arrays = {"mu": np.full(6, 0.5), "sigma2": np.full(6, 0.05)}
        arrays[field][[_pair(4, 1, 2), _pair(4, 2, 3)]] = value
        for err in self._refused(arrays["mu"], arrays["sigma2"], NonFiniteEntryError):
            assert (err.i, err.j) == (1, 2)
            assert err.value == value or math.isnan(value)

    def test_negative_variance_rejected(self):
        sigma2 = np.full(6, 0.05)
        sigma2[_pair(4, 0, 3)] = -0.25
        messages = {str(err) for err in self._refused(np.full(6, 0.5), sigma2, ConfigError)}
        assert messages == {"sigma2 must be non-negative, got -0.25",
                            "sigma1_sq must be non-negative, got -0.25"}

    @pytest.mark.parametrize("mu, sigma2, bad", [
        (np.full((4, 4), 0.5), np.full((4, 4), 0.05), "mean"),
        (np.full(6, 0.5), np.full(3, 0.05), "variance"),
        (np.full(6, 0.5), np.full((4, 4), 0.05), "variance"),
        (np.full(4, 0.5), np.full(4, 0.05), "mean"),
        ([[0.5, 0.5], [0.5]], [0.05, 0.05, 0.05], "mean"),
        (np.full(6, 0.5), [[0.05], [0.05, 0.05]], "variance"),
        (np.zeros(0), np.zeros(0), "mean"),
    ], ids=["dense", "mismatched", "dense-variance", "non-triangular", "ragged",
            "ragged-variance", "empty"])
    def test_malformed_pair_vector_rejected(self, mu, sigma2, bad):
        """A dense n x n matrix, a vector of no triangular length, a ragged
        sequence or a pair of mismatched shapes is named, not a numpy
        broadcast error."""
        errors = iter(self._refused(mu, sigma2, DimensionMismatchError))
        for _, mean, variance in ENTRY_POINTS:
            for _family in ("beta", "bernoulli"):
                assert str(next(errors)).startswith(
                    f"{mean if bad == 'mean' else variance} must ")


class TestSampling:
    def test_sampled_graph_invariants(self):
        model = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        g = sample_population(model, False, 1, substream(1, 0)).graphs[0]
        w = g.dense()
        assert np.array_equal(w, w.T)
        assert not np.diagonal(w).any()
        off = w[np.triu_indices(10, 1)]
        assert ((off > 0) & (off < 1)).all()

    def test_bernoulli_values_binary(self):
        model = TwoBlockModel(n=10, family="bernoulli", within=0.3, between=0.1)
        g = sample_population(model, False, 1, substream(2, 0)).graphs[0]
        assert set(np.unique(g.dense())) <= {0.0, 1.0}

    def test_degenerate_probabilities(self):
        zero = TwoBlockModel(n=6, family="bernoulli", within=0.0, between=0.0)
        ones = TwoBlockModel(n=6, family="bernoulli", within=1.0, between=1.0)
        g0 = sample_population(zero, False, 1, substream(3, 0)).graphs[0]
        g1 = sample_population(ones, False, 1, substream(3, 0)).graphs[0]
        assert not g0.dense().any()
        off_diag = ~np.eye(6, dtype=bool)
        assert (g1.dense()[off_diag] == 1.0).all()

    def test_population_size_at_least_one(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.3, between=0.1)
        with pytest.raises(ConfigError) as err:
            sample_population(model, False, 0, substream(3, 0))
        assert str(err.value) == "population size must be at least 1, got 0"

    def test_population_deterministic(self):
        model = TwoBlockModel(n=8, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        a = sample_population(model, False, 4, substream(42, 5))
        b = sample_population(model, False, 4, substream(42, 5))
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.dense(), gb.dense())
        c = sample_population(model, False, 4, substream(42, 6))
        assert not np.array_equal(a.graphs[0].dense(), c.graphs[0].dense())

    def test_within_block_mean_matches_moments(self):
        """Empirical within-block mean over 200 graphs within 3 SE of 0.4."""
        model = TwoBlockModel(n=100, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0))
        sample = sample_population(model, False, 200, substream(7, 0))
        rows, cols = np.triu_indices(100, 1)
        within = (rows < 50) == (cols < 50)
        values = sample.edges[:, within].ravel()
        mean, var = beta_moments(2.0, 3.0)
        se = math.sqrt(var / values.size)
        assert abs(values.mean() - mean) < 3 * se

    def test_sparse_population_density(self):
        """Mean edge density across m=14 sparse graphs within 3 SE of theory."""
        model = TwoBlockModel(n=50, family="bernoulli", within=0.05, between=0.01)
        sample = sample_population(model, False, 14, substream(8, 0))
        rows, cols = np.triu_indices(50, 1)
        within = (rows < 25) == (cols < 25)
        n_within = int(within.sum())
        n_between = rows.size - n_within
        expected = (n_within * 0.05 + n_between * 0.01) / rows.size
        variance = (n_within * 0.05 * 0.95 + n_between * 0.01 * 0.99) / rows.size**2
        observed = sample.edges.mean()
        se = math.sqrt(variance / 14)
        assert abs(observed - expected) < 3 * se

    @pytest.mark.parametrize("shifted", [False, True])
    def test_bernoulli_draws_the_float_sampler_as_bool(self, shifted):
        """Bernoulli edges are bool, the former float64 draws cast to bool,
        and the sampler leaves the stream where the float one did."""
        model = TwoBlockModel(n=12, family="bernoulli", within=0.3, between=0.1,
                              epsilon=0.4)
        got_rng, want_rng = substream(5, 1), substream(5, 1)
        sample = sample_population(model, shifted, 6, got_rng)
        want = float_bernoulli_population(model, shifted, 6, want_rng)
        assert sample.edges.dtype == bool
        assert sample.edges.tobytes() == want.astype(bool).tobytes()
        assert got_rng.random() == want_rng.random()

    def test_beta_edges_stay_float64(self):
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        assert sample_population(model, False, 2, substream(5, 2)).edges.dtype == np.float64

    def test_shifted_flag_changes_distribution(self):
        model = TwoBlockModel(n=20, family="bernoulli", within=0.1, between=0.1,
                              epsilon=0.8)
        base = sample_population(model, False, 30, substream(9, 0))
        shifted = sample_population(model, True, 30, substream(9, 1))
        assert shifted.edges.mean() > base.edges.mean() + 0.5


class TestInhomogeneousSampling:
    def test_beta_params_round_trip(self):
        """Moment inversion undoes beta_moments for assorted shapes."""
        for a, b in [(2.0, 3.0), (9.0, 3.0), (0.5, 0.5), (1.0, 4.0)]:
            mean, var = beta_moments(a, b)
            got_a, got_b = beta_params_from_moments(mean, var)
            assert got_a == pytest.approx(a, rel=1e-10)
            assert got_b == pytest.approx(b, rel=1e-10)

    def test_variance_bound_enforced(self):
        with pytest.raises(NonPositiveParameterError):
            beta_params_from_moments(0.4, 0.4 * 0.6)  # at the Bernoulli limit

    def test_mean_range_enforced(self):
        with pytest.raises(NonPositiveParameterError) as err:
            beta_params_from_moments([0.5, 1.0], 0.01)
        assert str(err.value) == "beta mean must lie in (0, 1), got 1.0"

    def test_bernoulli_moments_range_enforced(self):
        with pytest.raises(ProbabilityRangeError) as err:
            bernoulli_moments(1.5)
        assert str(err.value) == "probability must lie in [0, 1], got 1.5"

    @pytest.mark.parametrize("family, scale, error, message", [
        ("poisson", 0.5, ConfigError,
         "family must be one of ('beta', 'bernoulli'), got 'poisson'"),
        ("bernoulli", 1.5, ProbabilityRangeError, "bernoulli means must lie in [0, 1]"),
        ("bernoulli", -0.5, ProbabilityRangeError, "bernoulli means must lie in [0, 1]"),
    ])
    def test_mean_matrix_sampling_rejects(self, family, scale, error, message):
        with pytest.raises(error) as err:
            sample_graph_from_means(np.full(3, scale), np.full(3, 0.1), family,
                                    substream(23, 0))
        assert str(err.value) == message

    def test_bernoulli_mean_matrix_sampling(self):
        """Per-pair empirical frequencies track arbitrary pair means."""
        mu = np.random.default_rng(21).uniform(0.1, 0.9, size=15)  # n = 6
        draws = np.concatenate([
            sample_graph_from_means(mu, mu * (1 - mu), "bernoulli", substream(22, k)).edges
            for k in range(4000)
        ])
        freq = draws.mean(axis=0)
        se = np.sqrt(mu * (1 - mu) / 4000)
        assert (np.abs(freq - mu) < 4 * se).all()

    def test_bernoulli_mean_matrix_draws_the_float_sampler_as_bool(self):
        model = TwoBlockModel(n=10, family="bernoulli", within=0.6, between=0.2)
        mu, sigma2, _ = pair_moments(model, shifted=False)
        got_rng, want_rng = substream(24, 0), substream(24, 0)
        graph = sample_graph_from_means(mu, sigma2, "bernoulli", got_rng)
        want = float_bernoulli_from_means(mu, want_rng)
        assert graph.edges.dtype == bool
        assert graph.edges.tobytes() == want.astype(bool).tobytes()
        assert graph.dense().tobytes() == GraphSample.from_edges(want).dense().tobytes()
        assert got_rng.random() == want_rng.random()

    def test_beta_mean_matrix_sampling_matches_two_block(self):
        """Sampling from a two-block model's pair moments reproduces its
        per-block moments."""
        model = TwoBlockModel(n=20, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0))
        mu, sigma2, _ = pair_moments(model, shifted=False)
        draws = np.concatenate([
            sample_graph_from_means(mu, sigma2, "beta", substream(23, k)).edges
            for k in range(800)
        ])
        within_vals = draws[:, _pair(20, 0, 1)]
        se = math.sqrt(0.04 / within_vals.size)
        assert abs(within_vals.mean() - 0.4) < 4 * se
        between_vals = draws[:, _pair(20, 0, 15)]
        se = math.sqrt(beta_moments(1.0, 3.0)[1] / between_vals.size)
        assert abs(between_vals.mean() - 0.25) < 4 * se


class TestModelJson:
    def test_beta_document(self):
        model = _model_from_json({"schema": 1, "family": "beta", "n": 10,
                                  "within": [2, 3], "between": [1, 3],
                                  "epsilon": 0.3})
        assert model.within == (2.0, 3.0)
        assert model.epsilon == 0.3

    def test_bernoulli_document_default_epsilon(self):
        model = _model_from_json({"schema": 1, "family": "bernoulli", "n": 4,
                                  "within": 0.5, "between": 0.4})
        assert model.epsilon == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            _model_from_json({"schema": 1, "family": "beta", "n": 10,
                              "within": [2, 3], "between": [1, 3], "extra": 1})

    def test_missing_schema_rejected(self):
        with pytest.raises(ConfigError):
            _model_from_json({"family": "beta", "n": 10,
                              "within": [2, 3], "between": [1, 3]})

    def test_beta_params_must_be_pairs(self):
        with pytest.raises(ConfigError):
            _model_from_json({"schema": 1, "family": "beta", "n": 10,
                              "within": 2, "between": [1, 3]})
