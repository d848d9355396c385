"""Tests for the closed-form diagnostics against hand arithmetic and
Monte Carlo oracles."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from graphtest.diagnostics import (
    ModelMoments,
    bernoulli_condition,
    condition_ratios,
    lambda_from_moments,
    lambda_sparse_bernoulli,
    null_variance,
    power_condition_ratios,
    tfro_consistency_ratio,
    two_block_moments,
)
from graphtest.errors import (
    DegenerateModelError,
    DimensionMismatchError,
    InvalidScenarioParamsError,
    NonPositiveParameterError,
    OddSampleSizeError,
    ProbabilityRangeError,
)
from graphtest.graphs import GraphSample, pair_layout
from graphtest.models import TwoBlockModel, pair_moments, paired_difference_fourth_moment
from graphtest.rng import substream
from oracles import exact_fourth_moment


def _constant_moments(n, m, mu, sigma2, eta=None):
    """Homogeneous null moments with constant per-pair entries."""
    shape = np.ones(n * (n - 1) // 2)
    eta_matrix = None if eta is None else eta * shape
    return ModelMoments(n=n, m=m, mu1=mu * shape, mu2=mu * shape,
                        sigma1_sq=sigma2 * shape, sigma2_sq=sigma2 * shape,
                        eta=eta_matrix)


class TestNullVariance:
    def test_hand_sum(self):
        # 3 pairs, m=2, sigma^2 = 0.25 each: 3 * 4 * 0.0625 = 0.75.
        moments = _constant_moments(3, 2, mu=0.5, sigma2=0.25)
        assert null_variance(moments) == pytest.approx(0.75, rel=1e-12)

    def test_zero_variances(self):
        assert null_variance(_constant_moments(4, 2, mu=1.0, sigma2=0.0)) == 0.0

    def test_quadratic_in_m(self):
        base = null_variance(_constant_moments(5, 2, mu=0.5, sigma2=0.2))
        doubled = null_variance(_constant_moments(5, 4, mu=0.5, sigma2=0.2))
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_requires_null_moments(self):
        model = TwoBlockModel(n=4, family="bernoulli", within=0.5, between=0.4,
                              epsilon=0.1)
        with pytest.raises(ValueError):
            null_variance(two_block_moments(model, 2))

    def test_monte_carlo_mean_of_denominator(self):
        """E[s_n^2] equals the formula within 3 SE (small binary model)."""
        from graphtest.models import sample_population
        from graphtest.twosample import random_partition, run_method

        model = TwoBlockModel(n=10, family="bernoulli", within=0.5, between=0.5)
        m, reps = 2, 800
        values = []
        for r in range(reps):
            rng = substream(404, r)
            g = sample_population(model, False, m, rng)
            h = sample_population(model, False, m, rng)
            part = random_partition(m, rng)
            values.append(run_method("tn", g, h, part, 0.05).denominator_sq)
        values = np.asarray(values)
        expected = null_variance(two_block_moments(model, m))
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - expected) < 3 * se


class TestConditionRatios:
    def test_homogeneous_binary_values(self):
        # Bern(0.5): sigma^4 = 0.0625, eta = 0.5, C(100,2) = 4950 pairs.
        moments = _constant_moments(100, 2, mu=0.5, sigma2=0.25, eta=0.5)
        ratios = condition_ratios(moments)
        total_s4 = 4950 * 0.0625
        assert ratios.size_vs_sigma4 == pytest.approx(100 / total_s4, rel=1e-12)
        assert ratios.size_vs_sigma4 == pytest.approx(0.32323, rel=1e-4)
        assert ratios.sigma8_concentration == pytest.approx(1 / 4950, rel=1e-12)
        assert ratios.sigma4_eta == pytest.approx(
            (4950 * 0.0625 * 0.5) / (2 * total_s4**2), rel=1e-12)
        assert ratios.eta_sq == pytest.approx(
            (4950 * 0.25) / (4 * total_s4**2), rel=1e-12)

    def test_homogeneous_concentration_identity(self):
        """With constant sigma the second ratio is exactly 1 / C(n,2)."""
        for n in (10, 40, 100):
            moments = _constant_moments(n, 2, mu=0.3, sigma2=0.21, eta=0.3)
            got = condition_ratios(moments).sigma8_concentration
            assert got == pytest.approx(1 / math.comb(n, 2), rel=1e-12)

    def test_first_ratio_asymptotics(self):
        """Homogeneous case: ratio1 = 2 / ((n-1) sigma^4), decreasing in n."""
        values = []
        for n in (10, 50, 200):
            moments = _constant_moments(n, 2, mu=0.5, sigma2=0.25, eta=0.5)
            r1 = condition_ratios(moments).size_vs_sigma4
            assert r1 == pytest.approx(2 / ((n - 1) * 0.0625), rel=1e-12)
            values.append(r1)
        assert values == sorted(values, reverse=True)

    def test_degenerate_model(self):
        with pytest.raises(DegenerateModelError):
            condition_ratios(_constant_moments(5, 2, mu=1.0, sigma2=0.0, eta=0.0))

    def test_eta_required(self):
        with pytest.raises(ValueError) as err:
            condition_ratios(_constant_moments(5, 2, mu=0.5, sigma2=0.25))
        assert str(err.value) == "condition_ratios needs fourth moments (eta)"

    def test_relabeling_invariance(self):
        """Ratios depend only on the multiset of per-pair moments."""
        model = TwoBlockModel(n=8, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        moments = two_block_moments(model, 4)
        perm = np.random.default_rng(1).permutation(8)
        fields = ("mu1", "mu2", "sigma1_sq", "sigma2_sq", "eta")
        dense = GraphSample.from_edges(
            np.stack([getattr(moments, f) for f in fields])).graphs
        rows, cols = pair_layout(8)
        shuffled = ModelMoments(n=8, m=4, **{
            f: g.dense()[np.ix_(perm, perm)][rows, cols]
            for f, g in zip(fields, dense)})
        assert condition_ratios(shuffled).as_tuple() == pytest.approx(
            condition_ratios(moments).as_tuple(), rel=1e-12)


class TestBernoulliCondition:
    def test_half_mean_values(self):
        moments = _constant_moments(100, 2, mu=0.5, sigma2=0.0)
        report = bernoulli_condition(moments, delta=0.05)
        assert report.mu_fro_sq == pytest.approx(2475.0, rel=1e-12)
        assert report.ratio == pytest.approx(100 / 2475, rel=1e-12)
        assert report.bounded and not report.degenerate

    def test_zero_mean_degenerate(self):
        report = bernoulli_condition(_constant_moments(10, 2, mu=0.0, sigma2=0.0),
                                     delta=0.05)
        assert report.degenerate
        assert report.ratio == float("inf")

    def test_near_one_means_flagged(self):
        moments = _constant_moments(6, 2, mu=0.99, sigma2=0.0)
        report = bernoulli_condition(moments, delta=0.05)
        assert not report.bounded
        assert len(report.violations) == 15

    @pytest.mark.parametrize("delta", [0.0, 1.0, -5.0, 1.5, float("nan")])
    def test_delta_outside_unit_interval_rejected(self, delta):
        moments = _constant_moments(4, 2, mu=0.5, sigma2=0.0)
        with pytest.raises(ValueError, match="delta"):
            bernoulli_condition(moments, delta=delta)


class TestLambdaN:
    """``lambda_from_moments``, the noncentrality lambda_n."""

    def test_null_is_zero(self):
        assert lambda_from_moments(_constant_moments(4, 4, mu=0.3, sigma2=0.21)) == 0.0

    def test_hand_arithmetic(self):
        """Homogeneous binary pair: V = 0.16 + 0.09 + 0.01 = 0.26 per pair."""
        shape = np.ones(3)
        lam = lambda_from_moments(ModelMoments(
            3, 2, 0.2 * shape, 0.1 * shape, 0.16 * shape, 0.09 * shape))
        expected = 2 * (3 * 0.01) / (2 * math.sqrt(3 * 0.26**2))
        assert expected == pytest.approx(0.06662, abs=5e-6)
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_linear_in_m(self):
        shape = np.ones(15)
        args = (0.2 * shape, 0.1 * shape, 0.16 * shape, 0.09 * shape)
        assert lambda_from_moments(ModelMoments(6, 4, *args)) == pytest.approx(
            2 * lambda_from_moments(ModelMoments(6, 2, *args)), rel=1e-12)

    def test_population_exchange_invariance(self):
        model = TwoBlockModel(n=8, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.5)
        mm = two_block_moments(model, 4)
        swapped = lambda_from_moments(dataclasses.replace(
            mm, mu1=mm.mu2, mu2=mm.mu1, sigma1_sq=mm.sigma2_sq, sigma2_sq=mm.sigma1_sq))
        assert swapped == pytest.approx(lambda_from_moments(mm), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateModelError):
            lambda_from_moments(_constant_moments(4, 2, mu=0.0, sigma2=0.0))


class TestLambdaSparseBernoulli:
    def test_equal_means_zero(self):
        assert lambda_sparse_bernoulli(0.05, 1.0, n=100, m=4, scenario="a") == 0.0

    def test_scenario_a_arithmetic(self):
        lam = lambda_sparse_bernoulli(0.05, 2.0, n=100, m=4, scenario="a")
        assert lam == pytest.approx(4 * 100 * 0.05 / 12, rel=1e-12)
        assert lam == pytest.approx(1.6667, abs=1e-4)

    def test_scenario_b_unit_ratio(self):
        """b_n = sqrt(a_n) makes the ratio 1 and the value exactly m*n/2."""
        n, m = 100, 4
        a_n = n ** -0.4
        lam = lambda_sparse_bernoulli(a_n, math.sqrt(a_n), n=n, m=m, scenario="b")
        assert lam == pytest.approx(m * n / 2, rel=1e-12)

    def test_scenario_a_tracks_exact_to_leading_order(self):
        """The displayed leading-order form and the exact noncentrality agree
        within the uncounted constant (the drop includes a sqrt(2) factor)."""
        n, m, a_n, tau = 100, 4, 0.05, 2.0
        approx = lambda_sparse_bernoulli(a_n, tau, n=n, m=m, scenario="a")
        shape = np.ones(n * (n - 1) // 2)
        mu1, mu2 = tau * a_n * shape, a_n * shape
        exact = lambda_from_moments(ModelMoments(
            n, m, mu1, mu2, mu1 * (1 - tau * a_n), mu2 * (1 - a_n)))
        assert 1.0 < exact / approx < 2.0

    def test_invalid_params(self):
        with pytest.raises(InvalidScenarioParamsError):
            lambda_sparse_bernoulli(1.5, 2.0, n=10, m=2, scenario="a")
        with pytest.raises(InvalidScenarioParamsError):
            lambda_sparse_bernoulli(0.05, -1.0, n=10, m=2, scenario="a")
        with pytest.raises(InvalidScenarioParamsError):
            lambda_sparse_bernoulli(0.05, -0.01, n=10, m=2, scenario="b")
        with pytest.raises(InvalidScenarioParamsError):
            lambda_sparse_bernoulli(0.05, 0.01, n=10, m=2, scenario="c")


class TestTfroConsistencyRatio:
    @pytest.mark.parametrize("mu", [0.5, 0.3, 0.1])
    def test_binary_closed_form(self, mu):
        """Homogeneous binary model: ratio = 1 / (1 - mu)^2 exactly."""
        moments = _constant_moments(10, 2, mu=mu, sigma2=mu * (1 - mu))
        assert tfro_consistency_ratio(moments) == pytest.approx(
            1 / (1 - mu) ** 2, rel=1e-12)

    def test_binary_half_is_four(self):
        moments = _constant_moments(10, 2, mu=0.5, sigma2=0.25)
        assert tfro_consistency_ratio(moments) == pytest.approx(4.0, rel=1e-12)

    def test_sparse_binary_approaches_one(self):
        moments = _constant_moments(10, 2, mu=1e-3, sigma2=1e-3 * (1 - 1e-3))
        assert tfro_consistency_ratio(moments) == pytest.approx(1.0, abs=3e-3)

    def test_beta_homogeneous_is_100(self):
        """Beta(2,3) everywhere: mu^2 / sigma^4 = 0.16 / 0.0016 = 100."""
        model = TwoBlockModel(n=12, family="beta", within=(2.0, 3.0),
                              between=(2.0, 3.0))
        assert tfro_consistency_ratio(two_block_moments(model, 2)) == pytest.approx(
            100.0, rel=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateModelError):
            tfro_consistency_ratio(_constant_moments(4, 2, mu=1.0, sigma2=0.0))


class TestExactFourthMoment:
    def test_m2_binary_half(self):
        # m=2: each half is a single difference, so E T^4 = eta^2 = 0.25.
        assert exact_fourth_moment(0.25, 0.5, 2) == pytest.approx(0.25, rel=1e-12)

    def test_m4_binary_half(self):
        # Half-sum fourth moment: 2*0.5 + 3*2*1*(0.5)^2 = 2.5; squared = 6.25.
        assert exact_fourth_moment(0.25, 0.5, 4) == pytest.approx(6.25, rel=1e-12)

    def test_degenerate_zero(self):
        assert exact_fourth_moment(0.0, 0.0, 6) == 0.0

    def test_odd_m_rejected(self):
        with pytest.raises(OddSampleSizeError):
            exact_fourth_moment(0.25, 0.5, 3)

    def test_broadcasts_over_arrays(self):
        sigma2 = np.array([0.25, 0.0])
        eta = np.array([0.5, 0.0])
        got = exact_fourth_moment(sigma2, eta, 2)
        assert got == pytest.approx([0.25, 0.0])

    def test_half_sum_fourth_moment_monte_carlo(self):
        """(m/2)eta + 3(m/2)((m/2)-1)(2 sigma^2)^2 matches E S^4 within 3 SE."""
        rng = np.random.default_rng(77)
        m = 4
        draws = (rng.binomial(1, 0.5, size=(500_000, m // 2))
                 - rng.binomial(1, 0.5, size=(500_000, m // 2)))
        s4 = draws.sum(axis=1).astype(float) ** 4
        se = s4.std(ddof=1) / math.sqrt(s4.size)
        assert abs(s4.mean() - 2.5) < 3 * se


class TestPairedDifferenceFourthMoment:
    def test_binary_closed_form(self):
        # Bern(0.5): d in {-1, 0, 1} with P(d != 0) = 0.5, so E d^4 = 0.5.
        assert paired_difference_fourth_moment("bernoulli", 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("family,params", [
        ("beta", (2.0, 3.0)),
        ("beta", (9.0, 3.0)),
        ("bernoulli", 0.3),
    ])
    def test_monte_carlo_cross_check(self, family, params):
        rng = np.random.default_rng(55)
        size = 1_000_000
        if family == "beta":
            x = rng.beta(params[0], params[1], size=size)
            y = rng.beta(params[0], params[1], size=size)
        else:
            x = rng.binomial(1, params, size=size).astype(float)
            y = rng.binomial(1, params, size=size).astype(float)
        d4 = (x - y) ** 4
        want = paired_difference_fourth_moment(family, params)
        se = d4.std(ddof=1) / math.sqrt(size)
        assert abs(d4.mean() - want) < 3 * se

    @pytest.mark.parametrize("family, params, error, message", [
        ("beta", (0, 1), NonPositiveParameterError,
         "beta shapes must be finite and positive, got (0, 1)"),
        ("bernoulli", 1.5, ProbabilityRangeError,
         "probability must lie in [0, 1], got 1.5"),
    ])
    def test_bad_parameters_rejected(self, family, params, error, message):
        with pytest.raises(error) as err:
            paired_difference_fourth_moment(family, params)
        assert str(err.value) == message


class TestMomentFactories:
    def test_two_block_is_null_iff_unshifted(self):
        base = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        assert two_block_moments(base, 2).is_null
        shifted = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0),
                                between=(1.0, 3.0), epsilon=0.3)
        assert not two_block_moments(shifted, 2).is_null

    def test_eta_pattern_follows_blocks(self):
        model = TwoBlockModel(n=6, family="bernoulli", within=0.5, between=0.1)
        moments = two_block_moments(model, 2)
        want_within = paired_difference_fourth_moment("bernoulli", 0.5)
        want_between = paired_difference_fourth_moment("bernoulli", 0.1)
        assert moments.eta[0] == pytest.approx(want_within)  # pair (0, 1)
        assert moments.eta[3] == pytest.approx(want_between)  # pair (0, 4)

    @pytest.mark.parametrize("field", ["mu1", "mu2", "sigma1_sq", "sigma2_sq", "eta"])
    def test_dense_field_rejected(self, field):
        """A dense n x n matrix would be summed over both triangles."""
        moments = two_block_moments(TwoBlockModel(
            n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0)), 2)
        dense = GraphSample.from_edges(getattr(moments, field)[np.newaxis])
        with pytest.raises(DimensionMismatchError, match=field):
            dataclasses.replace(moments, **{field: dense.graphs[0].dense()})

    def test_lambda_memory_is_a_few_pair_vectors(self):
        """At n=1000 the moments and lambda take at most 9 (P,) float64
        vectors at once; seven dense n x n matrices would take 56 MB.  The
        cached pair layout is built before tracing starts."""
        model = TwoBlockModel(n=1000, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.3)
        expected = lambda_from_moments(two_block_moments(model, 14))
        tracemalloc.start()
        try:
            got = lambda_from_moments(two_block_moments(model, 14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak <= 9 * 8 * (1000 * 999 // 2)

    def test_null_moments_from_pair_vectors(self):
        """Per-pair means and variances given for both populations are null
        moments without eta, with the null variance of their model."""
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        mu, sigma2, _ = pair_moments(model, shifted=False)
        moments = ModelMoments(6, 4, mu, mu, sigma2, sigma2)
        assert moments.is_null and moments.eta is None
        assert null_variance(moments) == null_variance(two_block_moments(model, 4))


class TestPowerConditionRatios:
    def test_hand_values(self):
        shape = np.ones(3)
        moments = ModelMoments(
            n=3, m=2, mu1=0.2 * shape, mu2=0.1 * shape,
            sigma1_sq=0.16 * shape, sigma2_sq=0.09 * shape)
        got = power_condition_ratios(moments)
        total_v_sq = 3 * 0.26**2
        assert got["statement"] == pytest.approx(3 / (2 * total_v_sq), rel=1e-12)
        assert got["proof"] == pytest.approx((3 * 2) / (16 * total_v_sq), rel=1e-12)
