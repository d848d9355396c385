"""Tests for the split-sample statistics against independent oracles."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

import graphtest
from graphtest import twosample
from graphtest.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    OddSampleSizeError,
    SampleSizeMismatchError,
    TooFewSamplesError,
)
from graphtest.graphs import GraphSample, save_adjacency_csv, validate_adjacency
from graphtest.models import TwoBlockModel, sample_population
from graphtest.rng import substream
from graphtest.twosample import (
    _BRACKET_WIDTH,
    METHODS,
    NEGATIVE_DENOMINATOR,
    NON_FINITE,
    ZERO_DENOMINATOR,
    Partition,
    _critical_bracket,
    _result,
    critical_value,
    decide,
    random_partition,
    run_method,
    run_methods,
)
from oracles import edge_statistics


def _sample_from_arrays(arrays) -> GraphSample:
    return GraphSample(tuple(validate_adjacency(np.asarray(a, dtype=float)) for a in arrays))


def _single_edge_graph(value: float) -> list:
    return [[0.0, value], [value, 0.0]]


def brute_force(method, gs, hs, first, second):
    """Direct evaluation of ``tn`` or ``tfro`` with explicit loops.

    Materializes the half-sums per pair, multiplies and sums in plain
    Python; shares no code with the library path.  The statistic is None
    when the squared denominator is not positive.
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
            if method == "tn":
                denom_sq += t * t
            else:
                denom_sq += (sum(gs[k][i][j] + hs[k][i][j] for k in first)
                             * sum(gs[k][i][j] + hs[k][i][j] for k in second))
    if denom_sq <= 0.0:
        return numerator, denom_sq, None
    return numerator, denom_sq, numerator / math.sqrt(denom_sq)


@st.composite
def integer_groups(draw):
    """Two groups of small graphs with integer weights in [-3, 3] and a
    split: every sum is exact in float64, so results compare exactly."""
    n = draw(st.integers(2, 5))
    m = draw(st.sampled_from((2, 4)))

    def graph():
        mat = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = float(draw(st.integers(-3, 3)))
        return mat

    gs = [graph() for _ in range(m)]
    hs = [graph() for _ in range(m)]
    perm = draw(st.permutations(range(m)))
    return gs, hs, tuple(sorted(perm[: m // 2])), tuple(sorted(perm[m // 2:]))


def whole_array_oracle(methods, sample_g, sample_h, partition, alpha):
    """The kernel before it streamed rows, kept as a reference: whole
    ``(m, P)`` arrays D = G - H and S = G + H, each half summed along axis
    0, the same power-of-two rescale, then ``_result``.  Returns the decided
    results and the ``(P,)`` vector T."""
    def half_sums(x):
        s1 = x[list(partition.first_half)].sum(axis=0)
        s2 = x[list(partition.second_half)].sum(axis=0)
        e = int(np.frexp(max(np.abs(s1).max(), np.abs(s2).max()))[1])
        return np.ldexp(s1, -e), np.ldexp(s2, -e), e

    with np.errstate(all="ignore"):
        d1, d2, e_d = half_sums(sample_g.edges - sample_h.edges)
        t = d1 * d2
        numerator = float(t.sum())
        s1, s2, e_s = half_sums(sample_g.edges + sample_h.edges)
        results = {
            "tn": _result("tn", numerator, float((t * t).sum()), 2 * e_d, 4 * e_d),
            "tfro": _result("tfro", numerator, float((s1 * s2).sum()),
                            2 * e_d, 2 * e_s),
        }
        edge_t = np.ldexp(t, 2 * e_d)
    return tuple(decide(results[m], alpha) for m in methods), edge_t


def _bits(result) -> list:
    """Every field of a result, each float as its float64 bytes, so NaNs and
    signed zeros compare too."""
    values = (getattr(result, f) for f in result.__dataclass_fields__)
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in values]


@st.composite
def float_groups(draw):
    """Two groups as raw edge arrays of arbitrary finite float64 weights
    (negative, subnormal, near the float64 limit, signed zeros), even m in
    2..16, and a split whose halves are in arbitrary order."""
    m = draw(st.sampled_from(range(2, 17, 2)))
    n = draw(st.integers(2, 5))
    shape = (m, n * (n - 1) // 2)
    weights = st.floats(allow_nan=False, allow_infinity=False)
    g = draw(arrays(np.float64, shape, elements=weights))
    h = draw(arrays(np.float64, shape, elements=weights))
    perm = draw(st.permutations(range(m)))
    return (GraphSample.from_edges(g), GraphSample.from_edges(h),
            Partition(tuple(perm[: m // 2]), tuple(perm[m // 2:])))


def _random_pair(seed, n=8, m=4):
    model = TwoBlockModel(n=n, family="beta", within=(2.0, 3.0),
                          between=(1.0, 3.0), epsilon=0.5)
    g = sample_population(model, False, m, substream(seed, 0))
    h = sample_population(model, True, m, substream(seed, 1))
    part = random_partition(m, substream(seed, 2))
    return g, h, part


def _scaled(sample: GraphSample, factor) -> GraphSample:
    return GraphSample.from_edges(sample.edges * factor)


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
        result = run_method("tn", sample, sample, Partition((0,), (1,)), 0.05)
        assert result.is_na
        assert result.na_reason == ZERO_DENOMINATOR
        assert result.denominator_sq == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_nonzero_edge_gives_unit_statistic(self, sign):
        # One nonzero T = c, rest zero -> statistic c / sqrt(c^2) = sign(c).
        g = _sample_from_arrays([_single_edge_graph(sign), _single_edge_graph(sign)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = run_method("tn", g, h, Partition((0,), (1,)), 0.05)
        assert result.statistic == 1.0  # T = sign^2 = 1 for both signs

    def test_negative_single_edge(self):
        g = _sample_from_arrays([_single_edge_graph(1.0), _single_edge_graph(-1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = run_method("tn", g, h, Partition((0,), (1,)), 0.05)
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
            want_num, want_den, want_stat = brute_force(
                "tn", [m.tolist() for m in mats[:2]],
                [m.tolist() for m in mats[2:]], (0,), (1,))
            got = run_method("tn", g, h, part, 0.05)
            assert got.numerator == want_num
            assert got.denominator_sq == want_den
            if want_stat is None:
                assert got.is_na
            else:
                assert got.statistic == want_stat


class TestStatisticTfro:
    def test_all_zero_graphs_na(self):
        zeros = _sample_from_arrays([np.zeros((3, 3))] * 2)
        result = run_method("tfro", zeros, zeros, Partition((0,), (1,)), 0.05)
        assert result.is_na and result.na_reason == ZERO_DENOMINATOR

    def test_identical_dense_binary(self):
        """All edges present everywhere: denominator C(n,2)*m^2, statistic 0."""
        n, m = 4, 2
        full = np.ones((n, n)) - np.eye(n)
        g = _sample_from_arrays([full] * m)
        result = run_method("tfro", g, g, Partition((0,), (1,)), 0.05)
        assert result.denominator_sq == math.comb(n, 2) * m**2
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_negative_denominator_flagged(self):
        g = _sample_from_arrays([_single_edge_graph(-1.0), _single_edge_graph(1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        result = run_method("tfro", g, h, Partition((0,), (1,)), 0.05)
        assert result.is_na
        assert result.na_reason == NEGATIVE_DENOMINATOR
        assert result.denominator_sq == -1.0


class TestDecide:
    def _result(self, stat):
        g = _sample_from_arrays([_single_edge_graph(stat), _single_edge_graph(1.0)])
        h = _sample_from_arrays([_single_edge_graph(0.0)] * 2)
        return run_method("tn", g, h, Partition((0,), (1,)), 0.05)

    def test_reject_beyond_critical(self):
        from dataclasses import replace

        result = decide(self._result(1.0), 0.05)  # statistic 1.0
        assert result.reject is False
        assert decide(replace(result, statistic=2.5), 0.05).reject is True

    def test_na_propagates(self):
        zeros = _sample_from_arrays([np.zeros((2, 2))] * 2)
        na = run_method("tn", zeros, zeros, Partition((0,), (1,)), 0.1)
        decided = decide(na, 0.05)
        assert decided.reject is None and decided.alpha == 0.05

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlphaError):
            critical_value(1.5)

    def test_critical_value_alpha_05(self):
        assert critical_value(0.05) == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-3, 1e-10, 3e-16, 1e-300, 0.999])
    def test_decision_at_critical_value_is_exact(self, alpha):
        """At the critical value, one ulp either side of it and at the edges
        of the bracket, the decision is ``|statistic| > critical_value``."""
        crit = critical_value(alpha)
        points = [crit, np.nextafter(crit, 0.0), np.nextafter(crit, np.inf),
                  crit * (1.0 + _BRACKET_WIDTH), crit * (1.0 - _BRACKET_WIDTH)]
        for stat in (float(p) for p in points if np.isfinite(p)):
            for signed in (stat, -stat):
                decided = decide(_result("tn", signed, 1.0, 0, 0), alpha)
                assert decided.statistic == signed
                assert decided.reject is (stat > crit), (alpha, signed)

    def test_exact_value_only_inside_bracket(self, monkeypatch):
        crit = critical_value(0.05)
        calls = []
        monkeypatch.setattr(twosample, "critical_value",
                            lambda alpha: calls.append(alpha) or crit)
        assert decide(_result("tn", 1.9599, 1.0, 0, 0), 0.05).reject is False
        assert decide(_result("tn", -1.96, 1.0, 0, 0), 0.05).reject is True
        assert calls == []
        assert decide(_result("tn", crit, 1.0, 0, 0), 0.05).reject is False
        assert calls == [0.05]

    def test_alpha_too_small_for_a_quantile_rejects_nothing(self):
        assert _critical_bracket(1e-300) == (math.inf, math.inf)
        assert decide(_result("tn", 1e308, 1.0, 0, 0), 1e-300).reject is False

    def test_invalid_alpha_raises_for_na_result(self):
        na = _result("tn", 0.0, 0.0, 0, 0)
        assert na.is_na
        for alpha in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(InvalidAlphaError):
                decide(na, alpha)

    def test_stdlib_quantile_within_bracket(self):
        """The stdlib quantile stays a thousand times closer to ``ndtri``
        than the bracket's half-width, so the bracket always holds it."""
        alphas = np.concatenate([np.geomspace(2.5e-16, 0.5, 5000),
                                 np.linspace(0.5, 1.0, 5001)[:-1]])
        inv_cdf = NormalDist().inv_cdf
        for alpha in (float(a) for a in alphas):
            crit = critical_value(alpha)
            stdlib = inv_cdf(1.0 - alpha / 2.0)
            assert abs(stdlib - crit) <= crit * _BRACKET_WIDTH / 1000, alpha
            low, high = _critical_bracket(alpha)
            assert low <= crit <= high, alpha


class TestInvariances:
    def test_group_swap_invariance(self):
        """Swapping the groups negates every difference, so both half-sums
        negate and each product T_ij (hence the whole test) is unchanged."""
        g, h, part = _random_pair(31)
        t_gh = edge_statistics(g, h, part)
        t_hg = edge_statistics(h, g, part)
        assert np.allclose(t_hg, t_gh, rtol=1e-12)
        r_gh = run_method("tn", g, h, part, 0.05)
        r_hg = run_method("tn", h, g, part, 0.05)
        assert r_hg.numerator == pytest.approx(r_gh.numerator, rel=1e-12)
        assert r_hg.denominator_sq == pytest.approx(r_gh.denominator_sq, rel=1e-12)
        assert r_hg.statistic == pytest.approx(r_gh.statistic, rel=1e-12)
        assert r_hg.reject == r_gh.reject

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(8)))
    def test_node_relabeling_leaves_statistics_unchanged(self, seed, perm):
        """Relabelling the nodes of every graph in both groups permutes the
        pairs, which changes only the order of the sums over pairs.  Beyond
        rel_tol, a reordered sum of P terms may move by P * eps * sum|T_ij|
        (its forward-error bound), which matters when the sum cancels."""
        g, h, part = _random_pair(seed)
        relabel = lambda s: _sample_from_arrays(
            [gr.dense()[np.ix_(perm, perm)] for gr in s.graphs])
        base = run_methods(METHODS, g, h, part, 0.05)
        moved = run_methods(METHODS, relabel(g), relabel(h), part, 0.05)
        t = edge_statistics(g, h, part)
        sum_error = t.size * np.finfo(float).eps * np.abs(t).sum()
        for got, want in zip(moved, base):
            assert math.isclose(got.statistic, want.statistic, rel_tol=1e-12,
                                abs_tol=sum_error / math.sqrt(want.denominator_sq))

    def test_node_relabeling_invariance(self):
        g, h, part = _random_pair(37)
        perm = np.random.default_rng(38).permutation(8)
        relabel = lambda s: _sample_from_arrays(
            [gr.dense()[np.ix_(perm, perm)] for gr in s.graphs])
        base = run_method("tn", g, h, part, 0.05)
        moved = run_method("tn", relabel(g), relabel(h), part, 0.05)
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.5, -3.0])
    def test_scale_invariance(self, scale):
        """Multiplying all weights by c != 0 leaves the statistic unchanged."""
        g, h, part = _random_pair(41)
        rescale = lambda s: _sample_from_arrays(
            [gr.dense() * scale for gr in s.graphs])
        base = run_method("tn", g, h, part, 0.05)
        scaled = run_method("tn", rescale(g), rescale(h), part, 0.05)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-10)


    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_group_swap_leaves_results_unchanged(self, seed):
        """Negating D negates both half sums exactly and G + H = H + G, so
        every field of both results is unchanged, bit for bit."""
        g, h, part = _random_pair(seed)
        assert (run_methods(METHODS, h, g, part, 0.05)
                == run_methods(METHODS, g, h, part, 0.05))


class TestScaleSafety:
    """Half sums are rescaled by a power of two before any product, so the
    overall scale of the weights neither overflows nor underflows."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
    @example(k=-1000, seed=0)
    @example(k=1000, seed=0)
    def test_power_of_two_scaling_is_exact(self, k, seed):
        """Scaling every weight by 2**k leaves ``tn`` bit-identical and
        multiplies ``tfro`` by exactly 2**k; numerator and denominator are
        reported in the input's units."""
        g, h, part = _random_pair(seed)
        # Scaling into the subnormal range rounds, so the reference run
        # uses the weights the scaled run actually sees.
        g_k, h_k = _scaled(g, 2.0 ** k), _scaled(h, 2.0 ** k)
        base = run_methods(METHODS, _scaled(g_k, 2.0 ** -k),
                           _scaled(h_k, 2.0 ** -k), part, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tn, tfro = run_methods(METHODS, g_k, h_k, part, 0.05)
        assert tn.statistic == base[0].statistic
        assert tfro.statistic == math.ldexp(base[1].statistic, k)
        with np.errstate(over="ignore"):  # at large k these are inf
            for got, want, den_exp in ((tn, base[0], 4 * k), (tfro, base[1], 2 * k)):
                assert got.numerator == float(np.ldexp(want.numerator, 2 * k))
                assert got.denominator_sq == float(
                    np.ldexp(want.denominator_sq, den_exp))

    @pytest.mark.parametrize("scale", [1e170, 1e-170])
    def test_extreme_decimal_scale_is_valid(self, scale):
        """Weights ×1e170 used to overflow and ×1e-170 to underflow into NA;
        both now match the unscaled statistics."""
        g, h, part = _random_pair(43)
        base_tn, base_tfro = run_methods(METHODS, g, h, part, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tn, tfro = run_methods(METHODS, _scaled(g, scale), _scaled(h, scale),
                                   part, 0.05)
        assert tn.statistic == pytest.approx(base_tn.statistic, rel=1e-12)
        assert tn.reject == base_tn.reject
        assert tfro.statistic == pytest.approx(scale * base_tfro.statistic, rel=1e-12)


class TestNonFinite:
    """Weights of opposite sign near the float64 limit overflow D = G - H.
    The result must be NA with its own reason, never a NaN statistic, and
    no overflow warning may escape."""

    @pytest.mark.parametrize("method", ["tn", "tfro"])
    def test_overflow_is_na(self, method):
        full = np.ones((4, 4)) - np.eye(4)
        g = _sample_from_arrays([full * 1e308] * 2)
        h = _sample_from_arrays([full * -1e308] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_method(method, g, h, Partition((0,), (1,)), 0.05)
        assert result.is_na and result.na_reason == NON_FINITE
        assert result.p_value is None and result.reject is None

    def test_edge_statistics_overflow_is_quiet(self):
        """The public per-pair products give ±inf or nan for an overflowing
        pair, and no warning escapes either."""
        full = np.ones((4, 4)) - np.eye(4)
        g = _sample_from_arrays([full * 1e308] * 2)
        h = _sample_from_arrays([full * -1e308] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = edge_statistics(g, h, Partition((0,), (1,)))
        assert t.shape == (6,) and not np.isfinite(t).any()

    def test_tfro_statistic_overflow_is_na(self):
        """D near 2e300 over S one ulp of 1e300 wide: ``tfro`` exceeds
        float64 and is NA, while ``tn`` (here exactly 1) stays valid."""
        x = 1e300
        g = _sample_from_arrays([_single_edge_graph(x)] * 2)
        h = _sample_from_arrays([_single_edge_graph(-np.nextafter(x, 0.0))] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tn, tfro = run_methods(METHODS, g, h, Partition((0,), (1,)), 0.05)
        assert tn.statistic == 1.0
        assert tfro.is_na and tfro.na_reason == NON_FINITE


class TestRunMethod:
    def test_unknown_method(self):
        g = _sample_from_arrays([np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError):
            run_method("nope", g, g, Partition((0,), (1,)), 0.05)

    def test_unknown_method_rejected_before_any_work(self):
        """A bad name fails even where the samples would fail their checks."""
        g2 = _sample_from_arrays([np.zeros((2, 2))] * 2)
        g3 = _sample_from_arrays([np.zeros((3, 3))] * 2)
        with pytest.raises(ValueError, match="nope"):
            run_methods(("tn", "nope"), g2, g3, Partition((0,), (1,)), 0.05)

    @settings(max_examples=200, deadline=None)
    @given(integer_groups())
    def test_matches_brute_force_with_negative_weights(self, case):
        """Both methods on one split equal the loop oracle exactly, NA
        reasons included, and equal each method run alone in either order."""
        gs, hs, first, second = case
        g, h = _sample_from_arrays(gs), _sample_from_arrays(hs)
        part = Partition(first, second)
        both = run_methods(("tn", "tfro"), g, h, part, 0.05)
        for got in both:
            numerator, denom_sq, stat = brute_force(got.method, gs, hs, first, second)
            assert got.numerator == numerator
            assert got.denominator_sq == denom_sq
            assert got.statistic == stat
            if stat is None:
                assert got.na_reason == (ZERO_DENOMINATOR if denom_sq == 0.0
                                         else NEGATIVE_DENOMINATOR)
        assert both == tuple(run_method(m, g, h, part, 0.05) for m in ("tn", "tfro"))
        assert run_methods(("tfro", "tn"), g, h, part, 0.05) == both[::-1]


class TestStreamedKernel:
    """The row-streamed kernel against the whole-array kernel it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(float_groups())
    def test_matches_whole_array_oracle_bit_for_bit(self, case):
        """Each half sum adds the same rows in the same order as numpy's
        axis-0 sum, so every field (NaN and signed-zero bits included) and
        the vector T equal the oracle's exactly."""
        g, h, part = case
        for methods in (("tn",), ("tfro",), ("tn", "tfro")):
            want, want_t = whole_array_oracle(methods, g, h, part, 0.05)
            got = run_methods(methods, g, h, part, 0.05)
            assert [_bits(r) for r in got] == [_bits(r) for r in want]
        with np.errstate(all="ignore"):
            got_t = edge_statistics(g, h, part)
        assert got_t.tobytes() == want_t.tobytes()

    def test_single_pair_follows_numpy_pairwise_sum(self):
        """At n=2 numpy sums a half of eight graphs pairwise, not row by
        row: (1 + 1e16) + (-1e16 + 1) is 0, where a running sum gives 1."""
        rows = np.array([1.0, 1e16, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0] * 2)[:, None]
        g = GraphSample.from_edges(rows)
        h = GraphSample.from_edges(np.zeros_like(rows))
        part = Partition(tuple(range(8)), tuple(range(8, 16)))
        want, want_t = whole_array_oracle(METHODS, g, h, part, 0.05)
        got = run_methods(METHODS, g, h, part, 0.05)
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        assert got[0].na_reason == ZERO_DENOMINATOR
        assert edge_statistics(g, h, part).tobytes() == want_t.tobytes()

    @pytest.mark.parametrize("m", [4, 14, 70])
    def test_peak_memory_does_not_grow_with_m(self, m):
        """Both methods on one split allocate at most eight (P,) vectors,
        where whole-array half sums took several (m, P) arrays; so do the
        integer counts of bool groups."""
        g, h, part = _random_pair(53, n=100, m=m)
        p = g.edges.shape[1]
        for pair in ((g, h), [GraphSample.from_edges(s.edges > 0.4) for s in (g, h)]):
            tracemalloc.start()
            try:
                run_methods(METHODS, *pair, part, 0.05)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * p * 8


@st.composite
def indexed_groups(draw):
    """Two groups of 1..6 graphs as raw edge arrays of arbitrary finite
    float64 weights, row vectors of one even length (repeats allowed) into
    each, and a split of that length whose halves are in arbitrary order."""
    n = draw(st.integers(2, 5))
    weights = st.floats(allow_nan=False, allow_infinity=False)
    g, h = (draw(arrays(np.float64, (draw(st.integers(1, 6)), n * (n - 1) // 2),
                        elements=weights)) for _ in range(2))
    m = draw(st.sampled_from(range(2, 13, 2)))
    rows = tuple(np.array(draw(st.lists(st.integers(0, len(x) - 1), min_size=m,
                                        max_size=m))) for x in (g, h))
    perm = draw(st.permutations(range(m)))
    return (GraphSample.from_edges(g), GraphSample.from_edges(h),
            Partition(tuple(perm[: m // 2]), tuple(perm[m // 2:])), rows)


class TestRowVectors:
    """``rows`` maps split positions to sample rows, so a resample is tested
    in place of a copy of its rows."""

    @settings(max_examples=300, deadline=None)
    @given(indexed_groups())
    def test_matches_a_copy_of_the_selected_rows(self, case):
        g, h, part, rows = case
        copies = [GraphSample.from_edges(s.edges[r]) for s, r in zip((g, h), rows)]
        for methods in (("tn",), ("tfro",), ("tn", "tfro")):
            got = run_methods(methods, g, h, part, 0.05, rows)
            want = run_methods(methods, *copies, part, 0.05)
            assert [_bits(r) for r in got] == [_bits(r) for r in want]

    def test_identity_rows_are_no_rows(self):
        g, h, part = _random_pair(61, m=6)
        identity = (np.arange(6), np.arange(6))
        assert (run_methods(METHODS, g, h, part, 0.05, identity)
                == run_methods(METHODS, g, h, part, 0.05))

    @pytest.mark.parametrize("rows, message", [
        (([0, 1, 2, 3], [0, 1, 2]), "row vectors select 4 and 3 graphs"),
        (([0, 1], [0, 1]), "partition covers 4 pairs but groups have 2"),
        (([0, 1, 2, 4], [0, 1, 2, 3]), "rows 0..4 of a group of 4 graphs"),
        (([0, 1, 2, 3], [0, -1, 2, 3]), "rows -1..3 of a group of 6 graphs"),
    ], ids=["unequal-lengths", "wrong-length", "past-the-end", "negative"])
    def test_bad_rows_are_a_size_mismatch(self, rows, message):
        g, _, part = _random_pair(64, m=4)
        h, _, _ = _random_pair(65, m=6)
        rows = tuple(np.array(r) for r in rows)
        with pytest.raises(SampleSizeMismatchError, match=message):
            run_methods(METHODS, g, h, part, 0.05, rows)


@st.composite
def binary_groups(draw):
    """Two groups of 1..70 bool graphs on 2..5 nodes, row vectors of one
    even length up to 70 into each (repeats allowed, as oversampling makes
    them), and a split of that length whose halves are in arbitrary order.
    Sometimes H is G and selects G's rows, so every D is zero."""
    n = draw(st.integers(2, 5))
    g = draw(arrays(bool, (draw(st.integers(1, 70)), n * (n - 1) // 2)))
    same = draw(st.booleans())
    h = g if same else draw(arrays(bool, (draw(st.integers(1, 70)), g.shape[1])))
    m = draw(st.sampled_from(range(2, 71, 2)))
    rows_g, rows_h = (np.array(draw(st.lists(st.integers(0, len(x) - 1), min_size=m,
                                             max_size=m))) for x in (g, h))
    perm = draw(st.permutations(range(m)))
    return (g, h, Partition(tuple(perm[: m // 2]), tuple(perm[m // 2:])),
            (rows_g, rows_g if same else rows_h))


class TestBinaryGroups:
    """Bool groups are counted in integers; every bit of the results must be
    what the float path gives for the same graphs as float64.  A bool pair
    must take the integer path, since the float path cannot subtract bool
    rows."""

    @settings(max_examples=300, deadline=None)
    @given(binary_groups(), st.booleans())
    def test_matches_the_float_path(self, case, mixed):
        """With ``mixed``, H is float64: a bool/float pair runs the float
        path, promoting G's rows one at a time."""
        g, h, part, rows = case
        binary = [GraphSample.from_edges(g),
                  GraphSample.from_edges(h.astype(np.float64) if mixed else h)]
        floats = [GraphSample.from_edges(x.astype(np.float64)) for x in (g, h)]
        for methods in (("tn",), ("tfro",), ("tn", "tfro")):
            got = run_methods(methods, *binary, part, 0.05, rows)
            want = run_methods(methods, *floats, part, 0.05, rows)
            assert [_bits(r) for r in got] == [_bits(r) for r in want]

    @pytest.mark.parametrize("m", [254, 510, 600])
    def test_counts_exact_past_a_uint8_run(self, m):
        """Rows are counted as bytes in runs of at most 255: halves of up to
        300 rows, with a pair present in every G graph, give the counts of
        an integer sum and every bit of the float path."""
        rng = np.random.default_rng(m)
        g, h = rng.random((m, 15)) < 0.5, rng.random((m, 15)) < 0.3
        g[:, 0] = True
        part = random_partition(m, rng)
        halves = tuple((list(half), list(half))
                       for half in (part.first_half, part.second_half))
        counts = twosample._half_counts(g, h, halves)
        assert counts[0, 0] == counts[2, 0] == m // 2
        assert np.array_equal(counts, [x[rows].sum(axis=0) for rows, _ in halves
                                       for x in (g, h)])
        floats = [GraphSample.from_edges(x.astype(np.float64)) for x in (g, h)]
        got = run_methods(METHODS, GraphSample.from_edges(g), GraphSample.from_edges(h),
                          part, 0.05)
        want = run_methods(METHODS, *floats, part, 0.05)
        assert [_bits(r) for r in got] == [_bits(r) for r in want]

    def test_equal_groups_are_na_zero_denominator(self):
        g = GraphSample.from_edges(np.random.default_rng(4).random((4, 10)) < 0.5)
        part = Partition((0, 3), (1, 2))
        tn, tfro = run_methods(METHODS, g, g, part, 0.05)
        assert tn.na_reason == ZERO_DENOMINATOR and tn.numerator == 0.0
        assert tfro.statistic == 0.0 and tfro.reject is False


class TestNormalTails:
    """p-values and critical values come from ``scipy.special``; they must
    equal what ``scipy.stats.norm`` gives with loc 0 and scale 1."""

    def test_critical_value_matches_norm_ppf(self):
        for alpha in np.linspace(0.001, 0.999, 999):
            alpha = float(alpha)
            assert critical_value(alpha) == float(norm.ppf(1.0 - alpha / 2.0))

    @settings(max_examples=500, deadline=None)
    @given(z=st.floats(-40.0, 40.0))
    def test_p_value_matches_norm_sf(self, z):
        result = _result("tn", z, 1.0, 0, 0)
        assert result.statistic == z
        assert result.p_value == float(2.0 * norm.sf(abs(z)))

    def test_cli_loads_scipy_only_for_test(self, tmp_path):
        """Only p-values need scipy: ``simulate`` and ``realdata`` run
        without it.  ``numpy.random`` is loaded at import, so forked pool
        workers inherit it instead of importing it each."""
        model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0), epsilon=0.5)
        groups = []
        for label, shifted in (("a", False), ("b", True)):
            directory = tmp_path / label
            directory.mkdir()
            sample = sample_population(model, shifted, 4, substream(3, int(shifted)))
            for k, graph in enumerate(sample.graphs):
                save_adjacency_csv(graph, directory / f"g{k}.csv")
            groups += ["--group-" + label, str(directory)]
        experiment = tmp_path / "experiment.json"
        experiment.write_text(json.dumps({
            "schema": 1, "design": {"family": "beta", "within": [2, 3],
                                    "between": [1, 3]},
            "n_grid": [6], "m_grid": [2], "epsilon_grid": [0.5],
            "replications": 2, "alpha": 0.05, "master_seed": 1}))
        runs = [
            ["simulate", "--config", str(experiment), "--out", str(tmp_path / "s.csv")],
            ["realdata", *groups, "--reps", "3", "--taus", "0.3", "--seed", "1",
             "--out", str(tmp_path / "r.csv")],
            ["test", *groups, "--splits", "2", "--seed", "1"],
        ]
        script = (
            "import json, sys\n"
            "import graphtest.cli\n"
            "def loaded():\n"
            "    return {'scipy': sorted(m for m in sys.modules\n"
            "                            if m.split('.')[0] == 'scipy'),\n"
            "            'numpy.random': 'numpy.random' in sys.modules}\n"
            "states = {'import': loaded()}\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert graphtest.cli.main(argv) == 0, argv\n"
            "    states[argv[0]] = loaded()\n"
            "print(json.dumps(states))\n")
        src = str(Path(graphtest.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        states = json.loads(out.stdout.splitlines()[-1])
        for stage in ("import", "simulate", "realdata"):
            assert states[stage] == {"scipy": [], "numpy.random": True}, stage
        assert "scipy.special" in states["test"]["scipy"]
