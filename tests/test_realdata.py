"""Tests for group loading, resampling equalization, repeated splits, and
the weighted and thresholded passes."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphtest
from graphtest.errors import (
    DataLoadError,
    GraphTestError,
    MixedDimensionsError,
    OddSampleSizeError,
    SampleSizeMismatchError,
)
from graphtest.graphs import (
    GraphSample,
    five_number_summary,
    save_adjacency_csv,
    threshold_binarize,
)
from graphtest.models import TwoBlockModel, sample_population
from graphtest.pool import _plan
from graphtest.realdata import (
    STRATEGIES,
    ResamplingPlan,
    _common_size,
    _equalize_rows,
    equalize,
    load_groups,
    make_synthetic_groups,
    run_passes,
)
from graphtest.rng import substream

from oracles import repeated_splits, strategy_rows

FLOAT_MAX = np.finfo(np.float64).max


def _population(seed, size, n=8, epsilon=0.0):
    model = TwoBlockModel(n=n, family="beta", within=(2.0, 3.0),
                          between=(1.0, 3.0), epsilon=epsilon)
    return sample_population(model, epsilon > 0, size, substream(seed, 0))


def _write_group(directory, sample):
    directory.mkdir(parents=True, exist_ok=True)
    for k, graph in enumerate(sample.graphs):
        save_adjacency_csv(graph, directory / f"subject_{k:03d}.csv")


def _load(directory, workers=1):
    """The sample of the one group in ``directory``."""
    (sample,) = load_groups([directory], workers=workers)
    return sample


class TestLoadGroup:
    def test_loads_in_name_order(self, tmp_path):
        sample = _population(1, 3, n=6)
        _write_group(tmp_path / "grp", sample)
        loaded = _load(tmp_path / "grp")
        assert loaded.m == 3 and loaded.n == 6
        for got, original in zip(loaded.graphs, sample.graphs):
            assert np.array_equal(got.dense(), original.dense())

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataLoadError):
            _load(tmp_path / "empty")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataLoadError):
            _load(tmp_path / "nowhere")

    def test_mixed_dimensions_names_offender(self, tmp_path):
        grp = tmp_path / "grp"
        _write_group(grp, _population(2, 2, n=6))
        save_adjacency_csv(_population(3, 1, n=4).graphs[0], grp / "subject_zzz.csv")
        with pytest.raises(MixedDimensionsError) as exc:
            _load(grp)
        assert "subject_zzz.csv" in str(exc.value)

    def test_invalid_file_names_offender(self, tmp_path):
        grp = tmp_path / "grp"
        _write_group(grp, _population(4, 2, n=4))
        (grp / "subject_bad.csv").write_text("0,1\n2,0\n")  # asymmetric
        with pytest.raises(DataLoadError) as exc:
            _load(grp)
        assert "subject_bad.csv" in str(exc.value)


def _error(fn, *args, **kwargs):
    """(class, code, message) of the error ``fn`` raises."""
    with pytest.raises(GraphTestError) as exc:
        fn(*args, **kwargs)
    return type(exc.value), exc.value.code, str(exc.value)


class TestParallelLoad:
    """Files are read in chunks on worker processes; the samples and the
    errors are those of a file-by-file load in name order."""

    @pytest.fixture
    def groups(self, tmp_path):
        _write_group(tmp_path / "a", _population(60, 5, n=6))
        _write_group(tmp_path / "b", _population(61, 7, n=6, epsilon=0.5))
        return tmp_path / "a", tmp_path / "b"

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_samples_match_serial_load(self, groups, workers):
        serial = [_load(d) for d in groups]
        loaded = load_groups(groups, workers=workers)
        assert len(loaded) == len(serial)
        for got, want in zip(loaded, serial):
            assert got.edges.tobytes() == want.edges.tobytes()

    @pytest.mark.parametrize("mismatch, corrupt", [
        (None, 3),   # corrupt file alone
        (2, 4),      # node-count mismatch ahead of a corrupt file
        (3, 4),
        (1, None),
        (4, 0),      # the corrupt file comes first
    ])
    def test_first_error_in_name_order_for_any_worker_count(
            self, groups, mismatch, corrupt):
        a, _ = groups
        if mismatch is not None:
            save_adjacency_csv(_population(62, 1, n=4).graphs[0],
                               a / f"subject_{mismatch:03d}.csv")
        if corrupt is not None:
            (a / f"subject_{corrupt:03d}.csv").write_text("0,1\nx,0\n")
        serial = _error(load_groups, groups, workers=1)
        assert serial[0] is (MixedDimensionsError if mismatch is not None
                             and (corrupt is None or mismatch < corrupt)
                             else DataLoadError)
        for workers in (2, 3, 5):
            assert _error(load_groups, groups, workers=workers) == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mismatch, corrupt", [
        (6, 8),    # both inside the chunk of files 5-9 at two workers
        (8, 11),   # mismatch in that chunk, corrupt file in the next
        (9, 10),   # either side of the boundary between them
    ])
    def test_first_error_at_chunk_boundaries(self, tmp_path, mismatch, corrupt):
        """Forty files are read five to a chunk at two workers, so an error
        ahead of another inside one chunk or across a boundary still wins."""
        big = tmp_path / "big"
        _write_group(big, _population(65, 40, n=6))
        assert {stop - start for _, start, stop in _plan([1], 40, 2)} == {5}
        save_adjacency_csv(_population(66, 1, n=4).graphs[0],
                           big / f"subject_{mismatch:03d}.csv")
        (big / f"subject_{corrupt:03d}.csv").write_text("0,1\nx,0\n")
        serial = _error(load_groups, [big], workers=1)
        assert serial == (MixedDimensionsError, "mixed-dimensions",
                          f"subject_{mismatch:03d}.csv has 4 nodes, expected 6 "
                          "(from subject_000.csv)")
        for workers in (2, 3, 5):
            assert _error(load_groups, [big], workers=workers) == serial
        assert multiprocessing.active_children() == []

    def test_mismatch_message_names_both_files(self, groups):
        a, _ = groups
        save_adjacency_csv(_population(63, 1, n=4).graphs[0], a / "subject_003.csv")
        assert _error(load_groups, groups, workers=3)[2] == (
            "subject_003.csv has 4 nodes, expected 6 (from subject_000.csv)")

    def test_earlier_group_error_wins(self, groups, tmp_path):
        a, b = groups
        (b / "subject_001.csv").write_text("0,1\nx,0\n")
        (a / "subject_004.csv").write_text("0,1\n2,0\n")
        for workers in (1, 2, 3):
            message = _error(load_groups, groups, workers=workers)[2]
            assert message.startswith("subject_004.csv:")
            message = _error(load_groups, (a, tmp_path / "nowhere"), workers=workers)[2]
            assert message.startswith("subject_004.csv:")

    def test_fewer_than_one_worker_rejected(self, groups):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            load_groups(groups, workers=0)

    def test_groups_may_differ_in_node_count(self, groups, tmp_path):
        _write_group(tmp_path / "c", _population(64, 3, n=4))
        _, c = load_groups((groups[0], tmp_path / "c"), workers=2)
        assert (c.m, c.n) == (3, 4)


def test_load_holds_each_group_once(tmp_path):
    """A one-worker load of two groups of the realdata-sweep shape (n=100,
    54 v 70) allocates at most 1.45 times their edge arrays: each file's
    vector goes straight into its group's array, and neither every vector
    nor a stacked copy of a group is held beside them."""
    groups = make_synthetic_groups(n=100, size_a=54, size_b=70, seed=501)
    for label, sample in zip("ab", groups):
        _write_group(tmp_path / label, sample)
    tracemalloc.start()
    try:
        loaded = load_groups([tmp_path / "a", tmp_path / "b"], workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(loaded, groups):
        assert got.edges.tobytes() == want.edges.tobytes()
    assert peak <= 1.45 * sum(sample.edges.nbytes for sample in groups)


def test_realdata_run_leaves_numpy_ma_unloaded(tmp_path):
    """numpy imports ``numpy.ma`` (about 15 ms) on the first call of
    ``np.percentile``; a ``realdata`` run, summaries and all, never loads
    it."""
    groups = []
    for label, seed in (("a", 1), ("b", 2)):
        _write_group(tmp_path / label, _population(seed, 4))
        groups += ["--group-" + label, str(tmp_path / label)]
    script = ("import sys\nimport graphtest.cli\n"
              "assert graphtest.cli.main(sys.argv[1:]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(graphtest.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script, "realdata", *groups, "--reps", "3",
         "--taus", "0.3", "--seed", "1", "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "False"
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 2 * 2


_EDGE_WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308,
                     FLOAT_MAX, -FLOAT_MAX, np.nextafter(-FLOAT_MAX, 0)]),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), m=st.integers(1, 4))
def test_csv_round_trip_is_bit_exact(data, n, m):
    """save_adjacency_csv then load_groups gives back every pair weight bit
    for bit, at one and two workers; any diagonal comes back +0.0."""
    pairs = n * (n - 1) // 2
    edges = np.array(data.draw(st.lists(_EDGE_WEIGHTS, min_size=m * pairs,
                                        max_size=m * pairs)),
                     dtype=np.float64).reshape(m, pairs)
    diagonal = data.draw(st.sampled_from([-0.0, 0.0, 1.5, -FLOAT_MAX]))
    with tempfile.TemporaryDirectory() as tmp:
        for k, graph in enumerate(GraphSample.from_edges(edges).graphs):
            weights = graph.dense()
            np.fill_diagonal(weights, diagonal)
            # save_adjacency_csv's format, with a diagonal it would not write.
            np.savetxt(Path(tmp) / f"g{k}.csv", weights, delimiter=",", fmt="%.17g")
        for workers in (1, 2):
            sample = _load(tmp, workers=workers)
            assert sample.edges.tobytes() == edges.tobytes()
            for graph in sample.graphs:
                assert np.diagonal(graph.dense()).tobytes() == np.zeros(n).tobytes()


def _check_rows(rows, sizes, target):
    """Both vectors have ``target`` entries, each in range of its group."""
    for r, m in zip(rows, sizes):
        assert r.shape == (target,)
        assert ((0 <= r) & (r < m)).all()


@settings(max_examples=150, deadline=None)
@given(m_a=st.integers(1, 8), m_b=st.integers(1, 8),
       strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
def test_equalize_returns_input_rows_at_target_size(m_a, m_b, strategy, seed):
    rng = np.random.default_rng(seed)
    a = GraphSample.from_edges(rng.random((m_a, 6)))
    b = GraphSample.from_edges(rng.random((m_b, 6)))
    if strategy == "split_only" and m_a != m_b:
        with pytest.raises(SampleSizeMismatchError):
            _common_size(m_a, m_b, strategy)
        with pytest.raises(SampleSizeMismatchError):
            equalize(a, b, strategy, substream(seed, 0))
        return
    target = min(m_a, m_b) if strategy == "subsample_larger" else max(m_a, m_b)
    assert _common_size(m_a, m_b, strategy) == target
    rows = _equalize_rows(m_a, m_b, target, substream(seed, 0))
    _check_rows(rows, (m_a, m_b), target)
    # The same rows, from the same draws, as the selection by strategy.
    for r, want in zip(rows, strategy_rows(m_a, m_b, strategy, substream(seed, 0))):
        assert r.tobytes() == want.tobytes()
    for r, m in zip(rows, (m_a, m_b)):
        if m <= target:  # a group that is not shrunk keeps its rows first, in order
            assert np.array_equal(r[:m], np.arange(m))
        if strategy == "subsample_larger":
            assert len(set(r.tolist())) == target
    # equalize copies exactly the selected rows, with the same draws.
    out = equalize(a, b, strategy, substream(seed, 0))
    for sample, source, r in zip(out, (a, b), rows):
        assert sample.m == target
        assert sample.edges.tobytes() == source.edges[r].tobytes()


class TestEqualize:
    def test_oversample_smaller(self):
        rows_a, rows_b = _equalize_rows(6, 10, 10, substream(7, 0))
        _check_rows((rows_a, rows_b), (6, 10), 10)
        # Originals are kept in order, extras appended.
        assert np.array_equal(rows_a[:6], np.arange(6))
        assert np.array_equal(rows_b, np.arange(10))

    def test_oversample_with_replacement_on_large_deficit(self):
        rows_a, _ = _equalize_rows(3, 10, 10, substream(8, 0))
        assert rows_a.size == 10  # deficit 7 > 3 forces replacement
        assert ((0 <= rows_a) & (rows_a < 3)).all()

    def test_subsample_larger(self):
        rows_a, rows_b = _equalize_rows(6, 10, 6, substream(9, 0))
        _check_rows((rows_a, rows_b), (6, 10), 6)
        assert np.array_equal(rows_a, np.arange(6))
        assert len(set(rows_b.tolist())) == 6, "subsample must not duplicate members"

    def test_outputs_are_input_members(self):
        """Equalization never fabricates graphs: every index selects a row of
        its own group, and ``equalize`` copies those rows bit for bit."""
        small, large = _population(12, 4), _population(13, 9)
        for strategy, size in (("oversample_smaller", 9), ("subsample_larger", 4)):
            rows = _equalize_rows(4, 9, size, substream(14, 0))
            for r, m in zip(rows, (4, 9)):
                assert ((0 <= r) & (r < m)).all()
            out_a, out_b = equalize(small, large, strategy, substream(14, 0))
            pool = {row.tobytes() for row in (*small.edges, *large.edges)}
            assert all(row.tobytes() in pool for row in (*out_a.edges, *out_b.edges))

    def test_split_only_equal_passthrough(self):
        rng = substream(17, 0)
        state = rng.bit_generator.state
        rows_a, rows_b = _equalize_rows(4, 4, _common_size(4, 4, "split_only"), rng)
        assert np.array_equal(rows_a, np.arange(4))
        assert np.array_equal(rows_b, np.arange(4))
        assert rng.bit_generator.state == state  # equal groups draw nothing
        a, b = _population(15, 4), _population(16, 4)
        assert equalize(a, b, "split_only", substream(17, 0)) == (a, b)

    def test_split_only_unequal_rejected(self):
        with pytest.raises(SampleSizeMismatchError) as err:
            _common_size(4, 6, "split_only")
        assert str(err.value) == ("groups have 4 and 6 graphs; equalize them first "
                                  "(see the realdata subcommand)")
        with pytest.raises(SampleSizeMismatchError):
            equalize(_population(18, 4), _population(19, 6), "split_only",
                     substream(20, 0))

    def test_order_preserved_when_b_is_smaller(self):
        rows_a, rows_b = _equalize_rows(10, 6, 10, substream(23, 0))
        assert np.array_equal(rows_a, np.arange(10))
        assert rows_b.size == 10 and np.array_equal(rows_b[:6], np.arange(6))

    def test_equalize_keeps_unresampled_groups(self):
        """``equalize`` returns a group that is not resampled as is."""
        small, large = _population(5, 6), _population(6, 10)
        out_a, out_b = equalize(small, large, "oversample_smaller", substream(7, 0))
        assert out_a.m == out_b.m == 10 and out_b is large
        assert np.array_equal(out_a.edges[:6], small.edges)
        out_a, out_b = equalize(large, small, "oversample_smaller", substream(23, 0))
        assert out_a is large and out_b.m == 10
        out_a, out_b = equalize(small, large, "subsample_larger", substream(9, 0))
        assert out_a.m == out_b.m == 6 and out_a is small

    def test_unknown_strategy_rejected(self):
        message = ("strategy must be one of ('oversample_smaller', 'subsample_larger', "
                   "'split_only'), got 'bootstrap'")
        with pytest.raises(ValueError) as err:
            equalize(_population(5, 4), _population(6, 6), "bootstrap", substream(7, 0))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            ResamplingPlan("bootstrap", repetitions=3, seed=1)
        assert str(err.value) == message

    def test_repetitions_at_least_one(self):
        with pytest.raises(ValueError) as err:
            ResamplingPlan("split_only", repetitions=0, seed=1)
        assert str(err.value) == "repetitions must be at least 1, got 0"


class TestSizeRule:
    """:func:`run_passes` checks the common size once, before any
    repetition runs."""

    @pytest.mark.parametrize("sizes, strategy, error", [
        ((4, 6), "split_only", (SampleSizeMismatchError, "sample-size-mismatch",
                                "groups have 4 and 6 graphs; equalize them first "
                                "(see the realdata subcommand)")),
        ((5, 5), "split_only", (OddSampleSizeError, "odd-sample-size",
                                "group size 5 is odd; pass --drop-last to "
                                "discard one pair")),
        ((3, 6), "subsample_larger", (OddSampleSizeError, "odd-sample-size",
                                      "group size 3 is odd; pass --drop-last to "
                                      "discard one pair")),
    ], ids=["unequal-split-only", "odd-split-only", "odd-subsample"])
    def test_size_errors_before_any_repetition(self, monkeypatch, sizes, strategy,
                                               error):
        def no_pass(*args):
            raise AssertionError("a pass ran")
        monkeypatch.setattr("graphtest.realdata.pool.run", no_pass)
        a, b = _population(80, sizes[0]), _population(81, sizes[1])
        plan = ResamplingPlan(strategy, repetitions=2, seed=82)
        assert _error(run_passes, a, b, plan, taus=(0.5,), workers=2) == error


def _repeated(a, b, plan, **kwargs):
    """The weighted runs of :func:`run_passes`, with no threshold."""
    runs, sweep = run_passes(a, b, plan, **kwargs)
    assert sweep == []
    return runs


class TestRepeatedTests:
    """The split loop of :func:`run_passes` on the weighted groups."""

    def test_identical_groups_all_na(self):
        """An all-NA method gets a None summary; the library does not raise
        (``graphtest realdata`` does, see the CLI tests)."""
        sample = _population(30, 4)
        plan = ResamplingPlan("split_only", repetitions=10, seed=31)
        runs = _repeated(sample, sample, plan, methods=("tn",))
        assert runs["tn"].summary is None
        assert runs["tn"].na_count == 10 == len(runs["tn"].results)

    def test_na_excluded_from_summary_but_counted(self):
        """On identical groups tn is always NA while tfro is a defined zero,
        so the tn run gets a None summary and a full NA count."""
        sample = _population(32, 4)
        plan = ResamplingPlan("split_only", repetitions=8, seed=33)
        runs = _repeated(sample, sample, plan, methods=("tn", "tfro"))
        assert runs["tn"].summary is None
        assert runs["tn"].na_count == 8
        assert runs["tfro"].na_count == 0
        assert runs["tfro"].summary.as_tuple() == (0, 0, 0, 0, 0)

    def test_deterministic(self):
        a, b = _population(34, 6), _population(35, 10)
        plan = ResamplingPlan("subsample_larger", repetitions=5, seed=36)
        first = _repeated(a, b, plan, methods=("tn",))
        second = _repeated(a, b, plan, methods=("tn",))
        assert first["tn"].results == second["tn"].results

    def test_methods_share_the_same_split(self):
        """tn and tfro must see identical resamples within a repetition, so
        their numerators agree repetition by repetition."""
        a, b = _population(37, 6, epsilon=0.0), _population(38, 6, epsilon=0.5)
        plan = ResamplingPlan("split_only", repetitions=6, seed=39)
        runs = _repeated(a, b, plan, methods=("tn", "tfro"))
        for r_tn, r_tfro in zip(runs["tn"].results, runs["tfro"].results):
            assert r_tn.numerator == pytest.approx(r_tfro.numerator, rel=1e-12)

    def test_drop_last_handles_odd_groups(self):
        a, b = _population(40, 5), _population(41, 5)
        plan = ResamplingPlan("split_only", repetitions=3, seed=42)
        runs = _repeated(a, b, plan, methods=("tn",), drop_last=True)
        assert len(runs["tn"].results) == 3

    def test_summary_permutation_invariant_in_repetition_order(self):
        """The summary depends only on the multiset of statistics."""
        a, b = _population(43, 6), _population(44, 6)
        plan = ResamplingPlan("split_only", repetitions=12, seed=45)
        runs = _repeated(a, b, plan, methods=("tn",))
        stats = [r.statistic for r in runs["tn"].results if not r.is_na]
        rng = np.random.default_rng(46)
        assert five_number_summary(rng.permutation(stats)).as_tuple() == \
            pytest.approx(runs["tn"].summary.as_tuple())


def _sweep(a, b, taus, plan, methods):
    """The threshold passes of :func:`run_passes` over ``taus``."""
    _, sweep = run_passes(a, b, plan, methods, taus=taus)
    return sweep


def _fields(run):
    return run.method, run.results, run.summary, run.na_count


class TestThresholdSweep:
    def test_all_edges_removed_gives_na_rows(self):
        a, b = _population(50, 4), _population(51, 4)
        plan = ResamplingPlan("split_only", repetitions=4, seed=52)
        ((tau, runs),) = _sweep(a, b, [5.0], plan, ("tn", "tfro"))
        assert tau == 5.0 and list(runs) == ["tn", "tfro"]
        for run in runs.values():
            assert run.summary is None and run.na_count == 4

    def test_zero_threshold_on_positive_weights(self):
        """tau=0 turns strictly positive weights into complete graphs: the
        difference statistic is NA (all T zero) while the baseline is 0."""
        a, b = _population(53, 4), _population(54, 4)
        plan = ResamplingPlan("split_only", repetitions=3, seed=55)
        ((_, by_method),) = _sweep(a, b, [0.0], plan, ("tn", "tfro"))
        assert by_method["tn"].summary is None
        assert by_method["tn"].na_count == 3
        assert by_method["tfro"].summary.as_tuple() == (0, 0, 0, 0, 0)

    def test_row_shape(self):
        a, b = _population(56, 4), _population(57, 4, epsilon=0.7)
        plan = ResamplingPlan("split_only", repetitions=3, seed=58)
        sweep = _sweep(a, b, [0.2, 0.4], plan, ("tn",))
        assert [(tau, list(runs)) for tau, runs in sweep] == [(0.2, ["tn"]),
                                                              (0.4, ["tn"])]


class TestParallelPasses:
    """Passes are cut into repetition chunks that run as tasks; results do
    not depend on the worker count and equal a serial split loop on the
    (binarized) groups."""

    @pytest.mark.parametrize("workers, repetitions", [
        (1, 4), (2, 4), (3, 4), (1, 7), (2, 7), (3, 7),
    ], ids=["1", "2", "3", "1-7", "2-7", "3-7"])
    def test_passes_match_serial_functions(self, workers, repetitions):
        a, b = _population(70, 4), _population(71, 6, epsilon=0.7)
        plan = ResamplingPlan("oversample_smaller", repetitions=repetitions,
                              seed=72)
        taus = (0.2, 0.5, 5.0)
        methods = ("tn", "tfro")
        runs, sweep = run_passes(a, b, plan, methods, 0.05, False, taus,
                                 workers)
        assert [tau for tau, _ in sweep] == list(taus)
        passes = [(a, b, runs)] + [(threshold_binarize(a, tau),
                                    threshold_binarize(b, tau), swept)
                                   for tau, swept in sweep]
        for pass_a, pass_b, got in passes:
            want = repeated_splits(pass_a, pass_b, plan, methods)
            assert list(got) == list(methods)
            for method, run in got.items():
                valid = [r.statistic for r in want[method] if not r.is_na]
                assert _fields(run) == (
                    method, want[method],
                    five_number_summary(valid) if valid else None,
                    len(want[method]) - len(valid))
        assert [run.summary for run in sweep[-1][1].values()] == [None, None]

    def test_worker_error_is_the_serial_error(self):
        a, b = _population(75, 4), _population(76, 6)
        plan = ResamplingPlan("split_only", repetitions=2, seed=77)
        serial = _error(run_passes, a, b, plan, taus=(0.1, 0.2))
        assert _error(run_passes, a, b, plan, taus=(0.1, 0.2), workers=3) == serial
        assert serial[0] is SampleSizeMismatchError


def _serial_passes(a, b, plan, methods, drop_last, taus):
    """:func:`repeated_splits` on the weighted groups and on both binarized
    at each of ``taus``, in pass order."""
    return [repeated_splits(threshold_binarize(a, tau) if tau is not None else a,
                            threshold_binarize(b, tau) if tau is not None else b,
                            plan, methods, drop_last=drop_last)
            for tau in (None, *taus)]


class TestRowResampling:
    """Repetitions read the equalized groups through row-index vectors; the
    results equal the copying reference loop exactly."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.integers(2, 7).flatmap(
               lambda m: st.tuples(st.just(m), st.one_of(st.just(m), st.integers(2, 7)))),
           strategy=st.sampled_from(STRATEGIES), drop_last=st.booleans(),
           workers=st.sampled_from((1, 2, 3)), repetitions=st.integers(1, 5),
           taus=st.sampled_from(((), (0.5,))), seed=st.integers(0, 2**32 - 1))
    # Oversampling 3 graphs to 5 appends two extras; drop_last drops one.
    @example(sizes=(3, 5), strategy="oversample_smaller", drop_last=True,
             workers=2, repetitions=4, taus=(), seed=1)
    @example(sizes=(6, 3), strategy="oversample_smaller", drop_last=False,
             workers=3, repetitions=5, taus=(0.5,), seed=2)
    @example(sizes=(7, 4), strategy="subsample_larger", drop_last=True,
             workers=1, repetitions=3, taus=(), seed=3)
    @example(sizes=(5, 5), strategy="split_only", drop_last=True,
             workers=2, repetitions=3, taus=(0.5,), seed=4)
    @example(sizes=(1, 3), strategy="oversample_smaller", drop_last=True,
             workers=2, repetitions=2, taus=(), seed=5)
    @example(sizes=(4, 6), strategy="split_only", drop_last=False,
             workers=3, repetitions=2, taus=(0.5,), seed=6)
    # An odd common size under each strategy, without and with drop_last.
    @example(sizes=(3, 5), strategy="oversample_smaller", drop_last=False,
             workers=2, repetitions=2, taus=(), seed=7)
    @example(sizes=(7, 5), strategy="subsample_larger", drop_last=False,
             workers=1, repetitions=2, taus=(0.5,), seed=8)
    @example(sizes=(7, 5), strategy="subsample_larger", drop_last=True,
             workers=3, repetitions=3, taus=(0.5,), seed=9)
    @example(sizes=(5, 5), strategy="split_only", drop_last=False,
             workers=2, repetitions=2, taus=(), seed=10)
    def test_passes_equal_the_copying_loop(self, sizes, strategy, drop_last,
                                           workers, repetitions, taus, seed):
        """Equal sizes (half the draws), unequal and odd ones, each strategy,
        ``drop_last`` on and off, 1-3 workers, with and without a threshold
        pass; an error is the reference loop's error."""
        a, b = make_synthetic_groups(n=6, size_a=sizes[0], size_b=sizes[1], seed=seed)
        plan = ResamplingPlan(strategy, repetitions=repetitions, seed=seed)
        methods = ("tn", "tfro")
        try:
            want = _serial_passes(a, b, plan, methods, drop_last, taus)
        except GraphTestError as err:
            assert _error(run_passes, a, b, plan, methods, 0.05, drop_last, taus,
                          workers) == (type(err), err.code, str(err))
            return
        runs, sweep = run_passes(a, b, plan, methods, 0.05, drop_last, taus, workers)
        assert [tau for tau, _ in sweep] == list(taus)
        for got, expected in zip([runs] + [swept for _, swept in sweep], want):
            assert list(got) == list(methods)
            for method in methods:
                assert got[method].results == expected[method]

    def test_passes_do_not_copy_an_equalized_group(self):
        """Oversampling 54 graphs to 70 at n=100 would copy a 70 x 4950
        array per repetition; the pass holds less than one such copy."""
        a, b = make_synthetic_groups(seed=7)
        plan = ResamplingPlan("oversample_smaller", repetitions=30, seed=8)
        tracemalloc.start()
        try:
            run_passes(a, b, plan, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70 * 4950 * 8


class TestSyntheticGroups:
    def test_shapes_and_determinism(self):
        a1, b1 = make_synthetic_groups(n=20, size_a=5, size_b=8, seed=99)
        a2, b2 = make_synthetic_groups(n=20, size_a=5, size_b=8, seed=99)
        assert a1.m == 5 and b1.m == 8 and a1.n == 20
        assert np.array_equal(a1.graphs[0].dense(), a2.graphs[0].dense())
        assert np.array_equal(b1.graphs[-1].dense(), b2.graphs[-1].dense())

    def test_groups_differ_in_mean(self):
        a, b = make_synthetic_groups(n=30, size_a=10, size_b=10, epsilon=0.7,
                                     seed=100)
        assert b.edges.mean() > a.edges.mean()
