"""Tests for group loading, resampling equalization, repeated splits, and
threshold sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from graphtest.errors import (
    AllNAError,
    DataLoadError,
    MixedDimensionsError,
    UnequalWithSplitOnlyError,
)
from graphtest.graphs import save_adjacency_csv
from graphtest.models import TwoBlockModel, sample_population
from graphtest.realdata import (
    ResamplingPlan,
    equalize,
    load_group,
    make_synthetic_groups,
    repeated_tests,
    threshold_sweep,
)
from graphtest.rng import substream


def _population(seed, size, n=8, epsilon=0.0):
    model = TwoBlockModel(n=n, family="beta", within=(2.0, 3.0),
                          between=(1.0, 3.0), epsilon=epsilon)
    return sample_population(model, epsilon > 0, size, substream(seed, 0))


def _write_group(directory, sample):
    directory.mkdir(parents=True, exist_ok=True)
    for k, graph in enumerate(sample.graphs):
        save_adjacency_csv(graph, directory / f"subject_{k:03d}.csv")


def _row_index(sample, row):
    """Index of the one row of ``sample.edges`` bit-identical to ``row``."""
    (matches,) = np.flatnonzero((sample.edges == row).all(axis=1))
    return int(matches)


class TestLoadGroup:
    def test_loads_in_name_order(self, tmp_path):
        sample = _population(1, 3, n=6)
        _write_group(tmp_path / "grp", sample)
        dataset = load_group(tmp_path / "grp")
        assert dataset.sample.m == 3 and dataset.sample.n == 6
        assert [p.name for p in dataset.source_paths] == [
            "subject_000.csv", "subject_001.csv", "subject_002.csv"]
        for loaded, original in zip(dataset.sample.graphs, sample.graphs):
            assert np.array_equal(loaded.weights, original.weights)

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataLoadError):
            load_group(tmp_path / "empty")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_group(tmp_path / "nowhere")

    def test_mixed_dimensions_names_offender(self, tmp_path):
        grp = tmp_path / "grp"
        _write_group(grp, _population(2, 2, n=6))
        save_adjacency_csv(_population(3, 1, n=4).graphs[0], grp / "subject_zzz.csv")
        with pytest.raises(MixedDimensionsError) as exc:
            load_group(grp)
        assert "subject_zzz.csv" in str(exc.value)

    def test_invalid_file_names_offender(self, tmp_path):
        grp = tmp_path / "grp"
        _write_group(grp, _population(4, 2, n=4))
        (grp / "subject_bad.csv").write_text("0,1\n2,0\n")  # asymmetric
        with pytest.raises(DataLoadError) as exc:
            load_group(grp)
        assert "subject_bad.csv" in str(exc.value)


class TestEqualize:
    def test_oversample_smaller(self):
        small, large = _population(5, 6), _population(6, 10)
        out_a, out_b = equalize(small, large, "oversample_smaller", substream(7, 0))
        assert out_a.m == out_b.m == 10
        # Originals are kept in order, extras appended.
        assert np.array_equal(out_a.edges[:6], small.edges)
        assert out_b is large

    def test_oversample_with_replacement_on_large_deficit(self):
        small, large = _population(8, 3), _population(9, 10)
        out_a, _ = equalize(small, large, "oversample_smaller", substream(8, 0))
        assert out_a.m == 10  # deficit 7 > 3 forces replacement

    def test_subsample_larger(self):
        small, large = _population(10, 6), _population(11, 10)
        out_a, out_b = equalize(small, large, "subsample_larger", substream(9, 0))
        assert out_a.m == out_b.m == 6
        assert out_a is small
        sources = [_row_index(large, row) for row in out_b.edges]
        assert len(set(sources)) == 6, "subsample must not duplicate members"

    def test_outputs_are_input_members(self):
        """Equalization never fabricates graphs: bit-identical membership."""
        small, large = _population(12, 4), _population(13, 9)
        for strategy in ("oversample_smaller", "subsample_larger"):
            out_a, out_b = equalize(small, large, strategy, substream(14, 0))
            pool = {row.tobytes() for row in (*small.edges, *large.edges)}
            assert all(row.tobytes() in pool for row in (*out_a.edges, *out_b.edges))

    def test_split_only_equal_passthrough(self):
        a, b = _population(15, 4), _population(16, 4)
        assert equalize(a, b, "split_only", substream(17, 0)) == (a, b)

    def test_split_only_unequal_rejected(self):
        with pytest.raises(UnequalWithSplitOnlyError):
            equalize(_population(18, 4), _population(19, 6), "split_only",
                     substream(20, 0))

    def test_order_preserved_when_b_is_smaller(self):
        large, small = _population(21, 10), _population(22, 6)
        out_a, out_b = equalize(large, small, "oversample_smaller", substream(23, 0))
        assert out_a is large and out_b.m == 10


class TestRepeatedTests:
    def test_identical_groups_all_na(self):
        sample = _population(30, 4)
        plan = ResamplingPlan("split_only", repetitions=10, seed=31)
        with pytest.raises(AllNAError):
            repeated_tests(sample, sample, plan, methods=("tn",))

    def test_na_excluded_from_summary_but_counted(self):
        """On identical groups tn is always NA while tfro is a defined zero,
        so the tn run gets a None summary and a full NA count."""
        sample = _population(32, 4)
        plan = ResamplingPlan("split_only", repetitions=8, seed=33)
        runs = repeated_tests(sample, sample, plan, methods=("tn", "tfro"))
        assert runs["tn"].summary is None
        assert runs["tn"].na_count == 8
        assert runs["tfro"].na_count == 0
        assert runs["tfro"].summary.as_tuple() == (0, 0, 0, 0, 0)

    def test_deterministic(self):
        a, b = _population(34, 6), _population(35, 10)
        plan = ResamplingPlan("subsample_larger", repetitions=5, seed=36)
        first = repeated_tests(a, b, plan, methods=("tn",))
        second = repeated_tests(a, b, plan, methods=("tn",))
        assert first["tn"].results == second["tn"].results

    def test_methods_share_the_same_split(self):
        """tn and tfro must see identical resamples within a repetition, so
        their numerators agree repetition by repetition."""
        a, b = _population(37, 6, epsilon=0.0), _population(38, 6, epsilon=0.5)
        plan = ResamplingPlan("split_only", repetitions=6, seed=39)
        runs = repeated_tests(a, b, plan, methods=("tn", "tfro"))
        for r_tn, r_tfro in zip(runs["tn"].results, runs["tfro"].results):
            assert r_tn.numerator == pytest.approx(r_tfro.numerator, rel=1e-12)

    def test_drop_last_handles_odd_groups(self):
        a, b = _population(40, 5), _population(41, 5)
        plan = ResamplingPlan("split_only", repetitions=3, seed=42)
        runs = repeated_tests(a, b, plan, methods=("tn",), drop_last=True)
        assert runs["tn"].repetitions == 3

    def test_summary_permutation_invariant_in_repetition_order(self):
        """The summary depends only on the multiset of statistics."""
        a, b = _population(43, 6), _population(44, 6)
        plan = ResamplingPlan("split_only", repetitions=12, seed=45)
        runs = repeated_tests(a, b, plan, methods=("tn",))
        stats = runs["tn"].statistics()
        from graphtest.graphs import five_number_summary
        rng = np.random.default_rng(46)
        assert five_number_summary(rng.permutation(stats)).as_tuple() == \
            pytest.approx(runs["tn"].summary.as_tuple())


class TestThresholdSweep:
    def test_all_edges_removed_gives_na_rows(self):
        a, b = _population(50, 4), _population(51, 4)
        plan = ResamplingPlan("split_only", repetitions=4, seed=52)
        rows = threshold_sweep(a, b, [5.0], plan, methods=("tn", "tfro"))
        assert len(rows) == 2
        for row in rows:
            assert row.summary is None and row.na_count == 4

    def test_zero_threshold_on_positive_weights(self):
        """tau=0 turns strictly positive weights into complete graphs: the
        difference statistic is NA (all T zero) while the baseline is 0."""
        a, b = _population(53, 4), _population(54, 4)
        plan = ResamplingPlan("split_only", repetitions=3, seed=55)
        rows = threshold_sweep(a, b, [0.0], plan, methods=("tn", "tfro"))
        by_method = {row.method: row for row in rows}
        assert by_method["tn"].summary is None
        assert by_method["tn"].na_count == 3
        assert by_method["tfro"].summary.as_tuple() == (0, 0, 0, 0, 0)

    def test_row_shape(self):
        a, b = _population(56, 4), _population(57, 4, epsilon=0.7)
        plan = ResamplingPlan("split_only", repetitions=3, seed=58)
        rows = threshold_sweep(a, b, [0.2, 0.4], plan, methods=("tn",))
        assert [(r.tau, r.method) for r in rows] == [(0.2, "tn"), (0.4, "tn")]


class TestSyntheticGroups:
    def test_shapes_and_determinism(self):
        a1, b1 = make_synthetic_groups(n=20, size_a=5, size_b=8, seed=99)
        a2, b2 = make_synthetic_groups(n=20, size_a=5, size_b=8, seed=99)
        assert a1.m == 5 and b1.m == 8 and a1.n == 20
        assert np.array_equal(a1.graphs[0].weights, a2.graphs[0].weights)
        assert np.array_equal(b1.graphs[-1].weights, b2.graphs[-1].weights)

    def test_groups_differ_in_mean(self):
        a, b = make_synthetic_groups(n=30, size_a=10, size_b=10, epsilon=0.7,
                                     seed=100)
        assert b.edges.mean() > a.edges.mean()
