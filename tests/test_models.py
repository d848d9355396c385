"""Tests for the two-block generators and their moment formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graphtest.errors import (
    ConfigError,
    NonFiniteEntryError,
    NonPositiveParameterError,
    OddNodeCountError,
    ProbabilityRangeError,
)
from graphtest.models import (
    MeanMatrix,
    TwoBlockModel,
    beta_moments,
    beta_params_from_moments,
    model_from_json,
    model_mean_matrix,
    sample_graph_from_means,
    sample_population,
)
from graphtest.rng import substream


class TestBlockOfPair:
    """Blocks are read off the model's mean matrix: a pair has the
    within-block mean iff both nodes lie in the same half."""

    MODEL = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))

    def _block(self, i, j):
        """Block of the 1-based pair (i, j)."""
        mu = model_mean_matrix(self.MODEL).mu[i - 1, j - 1]
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


class TestModelMeanMatrix:
    def test_bernoulli_two_block_pattern(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.5, between=0.4)
        mm = model_mean_matrix(model)
        # Blocks {1,2} and {3,4}: within pairs (1,2) and (3,4), rest between.
        assert mm.mu[0, 1] == 0.5 and mm.mu[2, 3] == 0.5
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert mm.mu[i, j] == 0.4
        assert mm.sigma2[0, 1] == pytest.approx(0.25)
        assert mm.sigma2[0, 2] == pytest.approx(0.24)
        assert not np.diagonal(mm.mu).any()

    def test_beta_within_mean(self):
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        mm = model_mean_matrix(model)
        assert mm.mu[0, 1] == pytest.approx(0.4)
        assert mm.mu[0, 3] == pytest.approx(0.25)

    def test_degenerate_bernoulli_variance(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=1.0, between=1.0)
        mm = model_mean_matrix(model)
        assert not mm.sigma2.any()

    def test_shifted_matrix_uses_shifted_params(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.5, between=0.4,
                              epsilon=0.1)
        mm = model_mean_matrix(model, shifted=True)
        assert mm.mu[0, 1] == pytest.approx(0.6)
        assert mm.mu[0, 2] == pytest.approx(0.5)


class TestMeanMatrixValidation:
    @pytest.mark.parametrize("field", ["mu", "sigma2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_named(self, field, value):
        """Checked before symmetry, so a NaN is not misreported as asymmetry."""
        off_diagonal = np.ones((4, 4)) - np.eye(4)
        arrays = {"mu": 0.5 * off_diagonal, "sigma2": 0.25 * off_diagonal}
        arrays[field][1, 2] = arrays[field][2, 1] = value
        with pytest.raises(NonFiniteEntryError) as err:
            MeanMatrix(**arrays)
        assert (err.value.i, err.value.j) == (1, 2)
        assert err.value.value == value or math.isnan(value)


class TestSampling:
    def test_sampled_graph_invariants(self):
        model = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        g = sample_population(model, False, 1, substream(1, 0)).graphs[0]
        w = g.weights
        assert np.array_equal(w, w.T)
        assert not np.diagonal(w).any()
        off = w[np.triu_indices(10, 1)]
        assert ((off > 0) & (off < 1)).all()

    def test_bernoulli_values_binary(self):
        model = TwoBlockModel(n=10, family="bernoulli", within=0.3, between=0.1)
        g = sample_population(model, False, 1, substream(2, 0)).graphs[0]
        assert set(np.unique(g.weights)) <= {0.0, 1.0}

    def test_degenerate_probabilities(self):
        zero = TwoBlockModel(n=6, family="bernoulli", within=0.0, between=0.0)
        ones = TwoBlockModel(n=6, family="bernoulli", within=1.0, between=1.0)
        g0 = sample_population(zero, False, 1, substream(3, 0)).graphs[0]
        g1 = sample_population(ones, False, 1, substream(3, 0)).graphs[0]
        assert not g0.weights.any()
        off_diag = ~np.eye(6, dtype=bool)
        assert (g1.weights[off_diag] == 1.0).all()

    def test_population_deterministic(self):
        model = TwoBlockModel(n=8, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        a = sample_population(model, False, 4, substream(42, 5))
        b = sample_population(model, False, 4, substream(42, 5))
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.weights, gb.weights)
        c = sample_population(model, False, 4, substream(42, 6))
        assert not np.array_equal(a.graphs[0].weights, c.graphs[0].weights)

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

    def test_bernoulli_mean_matrix_sampling(self):
        """Per-pair empirical frequencies track an arbitrary mean matrix."""
        rng = np.random.default_rng(21)
        n = 6
        mu = np.zeros((n, n))
        rows, cols = np.triu_indices(n, 1)
        mu[rows, cols] = rng.uniform(0.1, 0.9, size=rows.size)
        mu += mu.T
        mean = MeanMatrix(mu, mu * (1 - mu))
        draws = np.stack([
            sample_graph_from_means(mean, "bernoulli", substream(22, k)).weights
            for k in range(4000)
        ])
        freq = draws.mean(axis=0)[rows, cols]
        se = np.sqrt(mu[rows, cols] * (1 - mu[rows, cols]) / 4000)
        assert (np.abs(freq - mu[rows, cols]) < 4 * se).all()

    def test_beta_mean_matrix_sampling_matches_two_block(self):
        """Sampling from a two-block model's mean matrix reproduces its
        per-block moments."""
        model = TwoBlockModel(n=20, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0))
        mean = model_mean_matrix(model)
        draws = np.stack([
            sample_graph_from_means(mean, "beta", substream(23, k)).weights
            for k in range(800)
        ])
        within_vals = draws[:, 0, 1]
        se = math.sqrt(0.04 / within_vals.size)
        assert abs(within_vals.mean() - 0.4) < 4 * se
        between_vals = draws[:, 0, 15]
        se = math.sqrt(beta_moments(1.0, 3.0)[1] / between_vals.size)
        assert abs(between_vals.mean() - 0.25) < 4 * se


class TestModelJson:
    def test_beta_document(self):
        model = model_from_json({"schema": 1, "family": "beta", "n": 10,
                                 "within": [2, 3], "between": [1, 3],
                                 "epsilon": 0.3})
        assert model.within == (2.0, 3.0)
        assert model.epsilon == 0.3

    def test_bernoulli_document_default_epsilon(self):
        model = model_from_json({"schema": 1, "family": "bernoulli", "n": 4,
                                 "within": 0.5, "between": 0.4})
        assert model.epsilon == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            model_from_json({"schema": 1, "family": "beta", "n": 10,
                             "within": [2, 3], "between": [1, 3], "extra": 1})

    def test_missing_schema_rejected(self):
        with pytest.raises(ConfigError):
            model_from_json({"family": "beta", "n": 10,
                             "within": [2, 3], "between": [1, 3]})

    def test_beta_params_must_be_pairs(self):
        with pytest.raises(ConfigError):
            model_from_json({"schema": 1, "family": "beta", "n": 10,
                             "within": 2, "between": [1, 3]})
