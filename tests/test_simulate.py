"""Tests for the Monte Carlo harness: protocol, determinism, reporting."""

from __future__ import annotations

import csv
import multiprocessing
import os

import pytest

from graphtest import pool, simulate
from graphtest.errors import ConfigError, GraphTestError
from graphtest.models import sample_population
from graphtest.rng import substream
from graphtest.simulate import (
    ExperimentConfig,
    SimulationReport,
    emit_report,
    experiment_from_json,
    plan_chunks,
    run_cell,
    run_experiment,
)
from graphtest.twosample import random_partition, run_method


def _beta_config(**overrides):
    base = dict(
        family="beta", within=(2.0, 3.0), between=(1.0, 3.0),
        n_grid=(10,), m_grid=(2,), epsilon_grid=(0.0,),
        replications=20, alpha=0.05, master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            _beta_config(n_grid=())

    def test_odd_m_rejected(self):
        with pytest.raises(ConfigError):
            _beta_config(m_grid=(3,))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            _beta_config(methods=("tn", "frobenius"))

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            _beta_config(alpha=1.5)

    def test_invalid_cell_fails_at_config_time(self):
        # 0.5 + 0.6 > 1 would only blow up inside a cell; catch it up front.
        with pytest.raises(Exception):
            ExperimentConfig(family="bernoulli", within=0.5, between=0.4,
                             n_grid=(10,), m_grid=(2,), epsilon_grid=(0.6,),
                             replications=5, alpha=0.05, master_seed=1)


class TestRunCell:
    def test_replicate_protocol_is_pinned(self):
        """run_cell must follow the documented stream discipline exactly:
        per replicate r, one stream (seed, cell, r) drives group 1, group 2,
        then the partition."""
        config = _beta_config(epsilon_grid=(0.3,), replications=10,
                             methods=("tn", "tfro"))
        cells = run_cell(config, 10, 2, 0.3, cell_index=0)

        model = config.cell_model(10, 0.3)
        rejects = {"tn": 0, "tfro": 0}
        nas = {"tn": 0, "tfro": 0}
        for r in range(10):
            rng = substream(11, 0, r)
            g = sample_population(model, False, 2, rng)
            h = sample_population(model, True, 2, rng)
            part = random_partition(2, rng)
            for method in ("tn", "tfro"):
                res = run_method(method, g, h, part, 0.05)
                if res.is_na:
                    nas[method] += 1
                elif res.reject:
                    rejects[method] += 1
        for cell in cells:
            assert cell.reject_count == rejects[cell.method]
            assert cell.na_count == nas[cell.method]

    def test_all_na_cell(self):
        """Empty graphs everywhere: every statistic undefined, rate is None."""
        config = ExperimentConfig(family="bernoulli", within=0.0, between=0.0,
                                  n_grid=(6,), m_grid=(2,), epsilon_grid=(0.0,),
                                  replications=15, alpha=0.05, master_seed=3)
        for cell in run_cell(config, 6, 2, 0.0, 0):
            assert cell.na_count == 15
            assert cell.rejection_rate is None

    def test_lambda_column(self):
        config = _beta_config(epsilon_grid=(0.0, 0.3), replications=2)
        null_cell = run_cell(config, 10, 2, 0.0, 0)[0]
        shifted_cell = run_cell(config, 10, 2, 0.3, 1)[0]
        assert null_cell.lambda_theoretical == 0.0
        assert shifted_cell.lambda_theoretical > 0.0

    def test_degenerate_lambda_is_none(self):
        config = ExperimentConfig(family="bernoulli", within=0.0, between=0.0,
                                  n_grid=(6,), m_grid=(2,), epsilon_grid=(0.0,),
                                  replications=2, alpha=0.05, master_seed=3)
        assert run_cell(config, 6, 2, 0.0, 0)[0].lambda_theoretical is None

    def test_tally_invariant(self):
        config = _beta_config(replications=30, epsilon_grid=(0.5,))
        for cell in run_cell(config, 10, 2, 0.5, 0):
            assert 0 <= cell.reject_count <= cell.replications - cell.na_count


class TestRunExperiment:
    def test_deterministic_across_runs_and_threads(self):
        config = _beta_config(n_grid=(6, 10), m_grid=(2, 4),
                              epsilon_grid=(0.0, 0.5), replications=10)
        serial = run_experiment(config, threads=1)
        again = run_experiment(config, threads=1)
        parallel = run_experiment(config, threads=2)
        auto = run_experiment(config, threads=0)  # one worker per CPU
        assert serial == again
        assert serial == parallel == auto

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(_beta_config(replications=1), threads=-1)

    def test_cell_order(self):
        config = _beta_config(n_grid=(6, 10), m_grid=(2,), epsilon_grid=(0.0, 0.5),
                              replications=2, methods=("tn",))
        report = run_experiment(config)
        keys = [(c.n, c.m, c.epsilon) for c in report.cells]
        assert keys == [(6, 2, 0.0), (6, 2, 0.5), (10, 2, 0.0), (10, 2, 0.5)]

    def test_single_cell_report(self):
        report = run_experiment(_beta_config(replications=1, methods=("tn",)))
        assert len(report.cells) == 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs its
    initializer and its tasks inline."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the worker pools ``run_experiment`` starts (none: [])."""
    sizes = []
    monkeypatch.setattr(pool, "_worker_shared", None)  # the inline initializer sets it
    monkeypatch.setattr(pool, "ProcessPoolExecutor",
                        lambda **kwargs: _InlinePool(sizes, **kwargs))
    return sizes


class TestWorkerCount:
    def test_threads_zero_counts_usable_cpus(self, monkeypatch, pool_sizes):
        """Two CPUs exist but the affinity mask allows one: no pool."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = _beta_config(n_grid=(6, 10), replications=3)
        assert run_experiment(config, threads=0) == run_experiment(config)
        assert pool_sizes == []

    def test_falls_back_to_cpu_count(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_experiment(_beta_config(n_grid=(6, 10, 20), replications=3),
                       threads=0)
        assert pool_sizes == [3]

    def test_no_more_workers_than_chunks(self, pool_sizes):
        config = _beta_config(n_grid=(6, 10), replications=1)
        assert len(plan_chunks(config, 8)) == 2
        run_experiment(config, threads=8)
        run_experiment(_beta_config(replications=1), threads=8)
        assert pool_sizes == [2]


def _grid_config(replications):
    return _beta_config(n_grid=(6, 10, 20), m_grid=(2, 4),
                        epsilon_grid=(0.0, 0.5), replications=replications)


class TestSchedule:
    @pytest.mark.parametrize("replications", [1, 7, 500])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_plan_covers_each_replicate_once_costliest_first(self, replications,
                                                             workers):
        config = _grid_config(replications)
        cells = config.cells()
        plan = plan_chunks(config, workers)
        covered = sorted((idx, r) for idx, start, stop in plan
                         for r in range(start, stop))
        assert covered == [(idx, r) for idx, *_ in cells
                           for r in range(replications)]

        def cost(chunk):
            idx, start, stop = chunk
            _, n, m, _ = cells[idx]
            return (stop - start) * m * n * (n - 1)

        keys = [(-cost(c), c[0], c[1]) for c in plan]
        assert keys == sorted(keys)
        cap = sum(map(cost, plan)) / (4 * workers)
        for idx, start, stop in plan:
            assert start < stop
            assert stop - start == 1 or cost((idx, start, stop)) <= cap
            sizes = {b - a for i, a, b in plan if i == idx}
            assert max(sizes) - min(sizes) <= 1

    def test_plan_splits_the_costliest_cell(self):
        """Seven replicates of the n=20, m=4 cell do not fit a quarter of a
        worker's share, so they come in uneven chunks, first in the plan."""
        plan = plan_chunks(_grid_config(7), 2)
        costliest = [(a, b) for idx, a, b in plan if idx == 10]
        assert plan[0][0] == 10
        assert len({b - a for a, b in costliest}) == 2

    @pytest.mark.parametrize("replications", [1, 7])
    def test_reports_identical_for_any_thread_count(self, replications):
        config = _grid_config(replications)
        serial = run_experiment(config, threads=1)
        assert run_experiment(config, threads=2) == serial
        assert run_experiment(config, threads=3) == serial
        whole_cells = tuple(result for idx, n, m, eps in config.cells()
                            for result in run_cell(config, n, m, eps, idx))
        assert serial.cells == whole_cells

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched kernel only when forked")
    def test_worker_error_names_its_cell(self, monkeypatch):
        parent = os.getpid()

        def failing(methods, sample_g, *args):
            if sample_g.n == 10 and os.getpid() != parent:
                raise GraphTestError("boom")
            return run_methods_orig(methods, sample_g, *args)

        run_methods_orig = simulate.run_methods
        monkeypatch.setattr(simulate, "run_methods", failing)
        config = _beta_config(n_grid=(6, 10), epsilon_grid=(0.5,),
                              replications=3)
        with pytest.raises(GraphTestError,
                           match=r"cell n=10 m=2 epsilon=0.5 failed: boom"):
            run_experiment(config, threads=2)


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(SimulationReport(master_seed=1, alpha=0.05, cells=()), path)
        assert path.read_text() == ("n,m,epsilon,method,rejections,na,"
                                    "replications,rate,lambda\n")

    def test_two_methods_two_rows(self, tmp_path):
        config = _beta_config(replications=5)
        report = run_experiment(config)
        path = tmp_path / "report.csv"
        emit_report(report, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert {row["method"] for row in rows} == {"tn", "tfro"}

    def test_round_trip_at_printed_precision(self, tmp_path):
        config = _beta_config(n_grid=(6, 10), epsilon_grid=(0.0, 0.3),
                              replications=12)
        report = run_experiment(config)
        path = tmp_path / "report.csv"
        emit_report(report, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == len(report.cells)
        for row, cell in zip(rows, report.cells):
            assert int(row["n"]) == cell.n
            assert int(row["m"]) == cell.m
            assert float(row["epsilon"]) == cell.epsilon
            assert row["method"] == cell.method
            assert int(row["rejections"]) == cell.reject_count
            assert int(row["na"]) == cell.na_count
            assert int(row["replications"]) == cell.replications
            if cell.rejection_rate is None:
                assert row["rate"] == "NA"
            else:
                assert float(row["rate"]) == pytest.approx(cell.rejection_rate,
                                                           abs=5e-5)
            if cell.lambda_theoretical is None:
                assert row["lambda"] == "NA"
            else:
                assert float(row["lambda"]) == pytest.approx(
                    cell.lambda_theoretical, rel=1e-5)

    def test_na_rate_written(self, tmp_path):
        config = ExperimentConfig(family="bernoulli", within=0.0, between=0.0,
                                  n_grid=(6,), m_grid=(2,), epsilon_grid=(0.0,),
                                  replications=3, alpha=0.05, master_seed=3,
                                  methods=("tn",))
        path = tmp_path / "report.csv"
        emit_report(run_experiment(config), path)
        row = next(csv.DictReader(path.open()))
        assert row["rate"] == "NA" and row["lambda"] == "NA"


class TestExperimentJson:
    DOC = {
        "schema": 1,
        "design": {"family": "beta", "within": [2, 3], "between": [1, 3]},
        "n_grid": [10, 30],
        "m_grid": [2],
        "epsilon_grid": [0.0, 0.3],
        "replications": 50,
        "alpha": 0.05,
        "master_seed": 99,
        "methods": ["tn"],
    }

    def test_full_document(self):
        config = experiment_from_json(self.DOC)
        assert config.within == (2.0, 3.0)
        assert config.n_grid == (10, 30)
        assert config.methods == ("tn",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_json({**self.DOC, "extra": 1})

    def test_unknown_design_key_rejected(self):
        doc = {**self.DOC, "design": {**self.DOC["design"], "n": 10}}
        with pytest.raises(ConfigError):
            experiment_from_json(doc)

    def test_missing_key_rejected(self):
        doc = dict(self.DOC)
        del doc["replications"]
        with pytest.raises(ConfigError):
            experiment_from_json(doc)

    def test_methods_default_to_both(self):
        doc = dict(self.DOC)
        del doc["methods"]
        assert experiment_from_json(doc).methods == ("tn", "tfro")


class TestStatisticalBehavior:
    def test_power_monotone_in_shift(self):
        """Rejection rate non-decreasing in epsilon (0.05 MC tolerance)."""
        config = ExperimentConfig(
            family="beta", within=(2.0, 3.0), between=(1.0, 3.0),
            n_grid=(50,), m_grid=(14,), epsilon_grid=(0.0, 0.3, 0.5, 0.7),
            replications=200, alpha=0.05, master_seed=12345, methods=("tn",),
        )
        report = run_experiment(config, threads=2)
        rates = [c.rejection_rate for c in report.cells]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.05, f"power dropped from {lo} to {hi}"

    def test_null_size_smoke(self):
        """Null rejection rate lands near the nominal level."""
        config = ExperimentConfig(
            family="beta", within=(2.0, 3.0), between=(1.0, 3.0),
            n_grid=(100,), m_grid=(4,), epsilon_grid=(0.0,),
            replications=300, alpha=0.05, master_seed=2021, methods=("tn",),
        )
        report = run_experiment(config, threads=2)
        assert 0.01 <= report.cells[0].rejection_rate <= 0.10

    def test_dense_binary_null_sizes(self):
        """Dense binary null at n=100: the difference statistic holds its
        level while the sum-normalized baseline barely ever rejects."""
        config = ExperimentConfig(
            family="bernoulli", within=0.5, between=0.4,
            n_grid=(100,), m_grid=(4,), epsilon_grid=(0.0,),
            replications=500, alpha=0.05, master_seed=2022,
            methods=("tn", "tfro"),
        )
        report = run_experiment(config, threads=2)
        rates = {c.method: c.rejection_rate for c in report.cells}
        assert rates["tfro"] <= 0.01
        assert 0.02 <= rates["tn"] <= 0.09
