"""Tests for the split-sample statistics against independent oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from graphtest.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    OddSampleSizeError,
    SampleSizeMismatchError,
    TooFewSamplesError,
)
from graphtest.graphs import AdjacencyMatrix, GraphSample
from graphtest.models import TwoBlockModel, sample_population
from graphtest.rng import substream
from graphtest.twosample import (
    NEGATIVE_DENOMINATOR,
    NON_FINITE,
    ZERO_DENOMINATOR,
    Partition,
    critical_value,
    decide,
    edge_statistics,
    random_partition,
    run_method,
    statistic_tfro,
    statistic_tn,
)


def _sample_from_arrays(arrays) -> GraphSample:
    return GraphSample(tuple(AdjacencyMatrix(np.asarray(a, dtype=float)) for a in arrays))


def _single_edge_graph(value: float) -> list:
    return [[0.0, value], [value, 0.0]]


def brute_force_tn(gs, hs, first, second):
    """Direct evaluation of the statistic with explicit loops.

    Materializes both half-sums per pair, squares and sums in plain Python;
    shares no code with the library path.
    """
    n = len(gs[0])
    numerator = 0.0
    denom_sq = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s1 = sum(gs[k][i][j] - hs[k][i][j] for k in first)
            s2 = sum(gs[k][i][j] - hs[k][i][j] for k in second)
            t = s1 * s2
            numerator += t
            denom_sq += t * t
    if denom_sq == 0.0:
        return numerator, denom_sq, None
    return numerator, denom_sq, numerator / math.sqrt(denom_sq)


class TestRandomPartition:
    def test_m2_is_the_only_split(self):
        part = random_partition(2, substream(1, 0))
        assert sorted(part.first_half + part.second_half) == [0, 1]
        assert len(part.first_half) == 1

    def test_deterministic_given_stream(self):
        a = random_partition(8, substream(2, 3))
        b = random_partition(8, substream(2, 3))
        assert a == b

    def test_odd_m_rejected(self):
        with pytest.raises(OddSampleSizeError):
            random_partition(3, substream(1, 0))

    def test_too_few_rejected(self):
        with pytest.raises(TooFewSamplesError):
            random_partition(1, substream(1, 0))

    def test_uniform_over_splits(self):
        """For m=4 each of the C(4,2)=6 first-halves should appear ~equally."""
        counts = {}
        for r in range(3000):
            part = random_partition(4, substream(5, r))
            counts[part.first_half] = counts.get(part.first_half, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count - 500) < 5 * math.sqrt(3000 * (1 / 6) * (5 / 6))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((0, 1), (1, 2))
        with pytest.raises(OddSampleSizeError):
            Partition((0, 1), (2,))


class TestEdgeStatistics:
    def test_identical_samples_all_zero(self):
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        sample = sample_population(model, False, 4, substream(3, 0))
        part = random_partition(4, substream(3, 1))
        t = edge_statistics(sample, sample, part)
        assert not t.any()

    def test_hand_product_m2(self):
        # Single pair, d_1 = 1 and d_2 = 1 -> T = 1; flipping d_2 -> T = -1.
        ones = _single_edge_graph(1.0)
        zeros = _single_edge_graph(0.0)
        part = Partition((0,), (1,))
        g = _sample_from_arrays([ones, ones])
        h = _sample_from_arrays([zeros, zeros])
        assert edge_statistics(g, h, part).tolist() == [1.0]
        h_flip = _sample_from_arrays([zeros, _single_edge_graph(2.0)])
        assert edge_statistics(g, h_flip, part).tolist() == [-1.0]

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(17)
        gs = [np.zeros((4, 4)) for _ in range(4)]
        hs = [np.zeros((4, 4)) for _ in range(4)]
        for mat in (*gs, *hs):
            raw = rng.normal(size=(4, 4))
            mat += raw + raw.T
            np.fill_diagonal(mat, 0.0)
        part = Partition((0, 2), (1, 3))
        t = edge_statistics(_sample_from_arrays(gs), _sample_from_arrays(hs), part)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert t.shape == (len(pairs),)
        for (i, j), t_ij in zip(pairs, t):
            s1 = sum(gs[k][i][j] - hs[k][i][j] for k in (0, 2))
            s2 = sum(gs[k][i][j] - hs[k][i][j] for k in (1, 3))
            assert t_ij == pytest.approx(s1 * s2, rel=1e-12)

    def test_dimension_mismatch(self):
        g2 = _sample_from_arrays([np.zeros((2, 2))] * 2)
        g3 = _sample_from_arrays([np.zeros((3, 3))] * 2)
        with pytest.raises(DimensionMismatchError):
            edge_statistics(g2, g3, Partition((0,), (1,)))

    def test_sample_size_mismatch(self):
        g = _sample_from_arrays([np.zeros((2, 2))] * 2)
        h = _sample_from_arrays([np.zeros((2, 2))] * 4)
        with pytest.raises(SampleSizeMismatchError):
            edge_statistics(g, h, Partition((0,), (1,)))


class TestStatisticTn:
    def test_identical_samples_na(self):
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
        sample = sample_population(model, False, 2, substream(4, 0))
        result = statistic_tn(sample, sample, Partition((0,), (1,)))
        assert result.is_na
        assert result.na_reason == ZERO_DENOMINATOR
        assert result.denominator_sq == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_nonzero_edge_gives_unit_statistic(self, sign):
        # One nonzero T = c, rest zero -> statistic c / sqrt(c^2) = sign(c).
        g = _sample_from_arrays([_single_edge_graph(sign), _single_edge_graph(sign)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = statistic_tn(g, h, Partition((0,), (1,)))
        assert result.statistic == 1.0  # T = sign^2 = 1 for both signs

    def test_negative_single_edge(self):
        g = _sample_from_arrays([_single_edge_graph(1.0), _single_edge_graph(-1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = statistic_tn(g, h, Partition((0,), (1,)))
        assert result.statistic == -1.0
        assert result.p_value == pytest.approx(2 * (1 - 0.8413447460685429), rel=1e-9)

    def test_exhaustive_binary_slice_matches_brute_force(self):
        """256 seeded binary configurations, exact agreement with brute force."""
        rng = np.random.default_rng(23)
        part = Partition((0,), (1,))
        for _ in range(256):
            bits = rng.integers(0, 2, size=(4, 3))
            mats = []
            for row in bits:
                mat = np.zeros((3, 3))
                mat[0, 1] = mat[1, 0] = row[0]
                mat[0, 2] = mat[2, 0] = row[1]
                mat[1, 2] = mat[2, 1] = row[2]
                mats.append(mat)
            g = _sample_from_arrays(mats[:2])
            h = _sample_from_arrays(mats[2:])
            want_num, want_den, want_stat = brute_force_tn(
                [m.tolist() for m in mats[:2]], [m.tolist() for m in mats[2:]],
                (0,), (1,))
            got = statistic_tn(g, h, part)
            assert got.numerator == want_num
            assert got.denominator_sq == want_den
            if want_stat is None:
                assert got.is_na
            else:
                assert got.statistic == want_stat


class TestStatisticTfro:
    def test_all_zero_graphs_na(self):
        zeros = _sample_from_arrays([np.zeros((3, 3))] * 2)
        result = statistic_tfro(zeros, zeros, Partition((0,), (1,)))
        assert result.is_na and result.na_reason == ZERO_DENOMINATOR

    def test_identical_dense_binary(self):
        """All edges present everywhere: denominator C(n,2)*m^2, statistic 0."""
        n, m = 4, 2
        full = np.ones((n, n)) - np.eye(n)
        g = _sample_from_arrays([full] * m)
        result = statistic_tfro(g, g, Partition((0,), (1,)))
        assert result.denominator_sq == math.comb(n, 2) * m**2
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_negative_denominator_flagged(self):
        g = _sample_from_arrays([_single_edge_graph(-1.0), _single_edge_graph(1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = statistic_tfro(g, h, Partition((0,), (1,)))
        assert result.is_na
        assert result.na_reason == NEGATIVE_DENOMINATOR
        assert result.denominator_sq == -1.0


class TestDecide:
    def _result(self, stat):
        g = _sample_from_arrays([_single_edge_graph(stat), _single_edge_graph(1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        return statistic_tn(g, h, Partition((0,), (1,)))

    def test_reject_beyond_critical(self):
        from dataclasses import replace

        result = decide(self._result(1.0), 0.05)  # statistic 1.0
        assert result.reject is False
        assert decide(replace(result, statistic=2.5), 0.05).reject is True

    def test_na_propagates(self):
        zeros = _sample_from_arrays([np.zeros((2, 2))] * 2)
        na = statistic_tn(zeros, zeros, Partition((0,), (1,)))
        decided = decide(na, 0.05)
        assert decided.reject is None and decided.alpha == 0.05

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlphaError):
            critical_value(1.5)

    def test_critical_value_alpha_05(self):
        assert critical_value(0.05) == pytest.approx(1.959964, abs=1e-6)


class TestInvariances:
    def _random_pair(self, seed, n=8, m=4):
        model = TwoBlockModel(n=n, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.5)
        g = sample_population(model, False, m, substream(seed, 0))
        h = sample_population(model, True, m, substream(seed, 1))
        part = random_partition(m, substream(seed, 2))
        return g, h, part

    def test_group_swap_invariance(self):
        """Swapping the groups negates every difference, so both half-sums
        negate and each product T_ij (hence the whole test) is unchanged."""
        g, h, part = self._random_pair(31)
        t_gh = edge_statistics(g, h, part)
        t_hg = edge_statistics(h, g, part)
        assert np.allclose(t_hg, t_gh, rtol=1e-12)
        r_gh = decide(statistic_tn(g, h, part), 0.05)
        r_hg = decide(statistic_tn(h, g, part), 0.05)
        assert r_hg.numerator == pytest.approx(r_gh.numerator, rel=1e-12)
        assert r_hg.denominator_sq == pytest.approx(r_gh.denominator_sq, rel=1e-12)
        assert r_hg.statistic == pytest.approx(r_gh.statistic, rel=1e-12)
        assert r_hg.reject == r_gh.reject

    def test_node_relabeling_invariance(self):
        g, h, part = self._random_pair(37)
        perm = np.random.default_rng(38).permutation(8)
        relabel = lambda s: _sample_from_arrays(
            [gr.weights[np.ix_(perm, perm)] for gr in s.graphs])
        base = statistic_tn(g, h, part)
        moved = statistic_tn(relabel(g), relabel(h), part)
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.5, -3.0])
    def test_scale_invariance(self, scale):
        """Multiplying all weights by c != 0 leaves the statistic unchanged."""
        g, h, part = self._random_pair(41)
        rescale = lambda s: _sample_from_arrays(
            [gr.weights * scale for gr in s.graphs])
        base = statistic_tn(g, h, part)
        scaled = statistic_tn(rescale(g), rescale(h), part)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-10)


class TestNonFinite:
    """Weights scaled by 1e170 overflow every product T_ij.  The result must
    be NA with its own reason, never a NaN statistic, and no overflow
    warning may escape."""

    @pytest.mark.parametrize("method", ["tn", "tfro"])
    def test_overflow_is_na(self, method):
        model = TwoBlockModel(n=8, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.5)
        huge = lambda s: GraphSample.from_edges(s.edges * 1e170)
        g = huge(sample_population(model, False, 4, substream(43, 0)))
        h = huge(sample_population(model, True, 4, substream(43, 1)))
        part = random_partition(4, substream(43, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_method(method, g, h, part, 0.05)
        assert result.is_na and result.na_reason == NON_FINITE
        assert result.p_value is None and result.reject is None


class TestRunMethod:
    def test_unknown_method(self):
        g = _sample_from_arrays([np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError):
            run_method("nope", g, g, Partition((0,), (1,)), 0.05)
