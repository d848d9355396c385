"""Tests for the command-line interface: dispatch, formats, exit codes,
and seed reproducibility."""

from __future__ import annotations

import contextlib
import io
import json
import math
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtest.cli import main
from graphtest.errors import GraphTestError
from graphtest.graphs import GraphSample, load_adjacency_csv, validate_adjacency
from graphtest.models import TwoBlockModel, beta_moments, sample_population
from graphtest.pool import _plan
from graphtest.realdata import load_groups, make_synthetic_groups
from graphtest.rng import substream
from graphtest.twosample import METHODS, random_partition, run_methods
from graphtest.graphs import save_adjacency_csv


MODEL_DOC = {
    "schema": 1, "family": "beta", "n": 10,
    "within": [2, 3], "between": [1, 3], "epsilon": 0.5,
}

EXPERIMENT_DOC = {
    "schema": 1,
    "design": {"family": "beta", "within": [2, 3], "between": [1, 3]},
    "n_grid": [10], "m_grid": [2], "epsilon_grid": [0.0, 0.5],
    "replications": 25, "alpha": 0.05, "master_seed": 7,
    "methods": ["tn", "tfro"],
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DOC))
    return path


@pytest.fixture
def group_dirs(tmp_path):
    """Two equally sized on-disk groups drawn from different shifts."""
    model = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0),
                          between=(1.0, 3.0), epsilon=0.5)
    dirs = []
    for label, shifted, seed in (("a", False, 1), ("b", True, 2)):
        directory = tmp_path / label
        directory.mkdir()
        sample = sample_population(model, shifted, 4, substream(seed, 0))
        for k, graph in enumerate(sample.graphs):
            save_adjacency_csv(graph, directory / f"g{k}.csv")
        dirs.append(directory)
    return dirs


def _write_groups(root, sizes):
    """One directory of CSVs per group size, drawn from the null design."""
    model = TwoBlockModel(n=6, family="beta", within=(2.0, 3.0), between=(1.0, 3.0))
    dirs = []
    for k, size in enumerate(sizes):
        directory = root / f"g{k}"
        directory.mkdir()
        for j, graph in enumerate(sample_population(model, False, size,
                                                    substream(k, 0)).graphs):
            save_adjacency_csv(graph, directory / f"s{j}.csv")
        dirs.append(directory)
    return dirs


class TestGenerate:
    def test_writes_loadable_files(self, tmp_path, model_path, capsys):
        out = tmp_path / "out"
        code = main(["generate", "--model", str(model_path), "--m", "3",
                     "--out", str(out), "--seed", "5"])
        assert code == 0
        files = sorted(out.glob("*.csv"))
        assert [p.name for p in files] == ["graph_0000.csv", "graph_0001.csv",
                                           "graph_0002.csv"]
        for path in files:
            g = load_adjacency_csv(path)
            assert g.n == 10
        record = json.loads(capsys.readouterr().out)
        assert record["files"] == 3 and record["seed"] == 5

    def test_deterministic_given_seed(self, tmp_path, model_path, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["generate", "--model", str(model_path), "--m", "2",
              "--out", str(out1), "--seed", "9"])
        main(["generate", "--model", str(model_path), "--m", "2",
              "--out", str(out2), "--seed", "9"])
        capsys.readouterr()
        assert (out1 / "graph_0000.csv").read_bytes() == \
            (out2 / "graph_0000.csv").read_bytes()

    def test_missing_model_is_runtime_error(self, tmp_path, capsys):
        code = main(["generate", "--model", str(tmp_path / "nope.json"),
                     "--m", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "io-error" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [math.nan, math.inf])
    def test_non_finite_beta_shape_exit_2(self, tmp_path, shape, capsys):
        """Python's json reads NaN and Infinity; they must not reach the sampler."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**MODEL_DOC, "within": [shape, 3]}))
        out = tmp_path / "out"
        assert main(["generate", "--model", str(path), "--m", "2", "--seed", "1",
                     "--out", str(out)]) == 2
        assert "non-positive-parameter: beta shapes must be finite and positive" \
            in capsys.readouterr().err
        assert not out.exists()


class TestTest:
    def test_json_lines_output(self, group_dirs, capsys):
        a, b = group_dirs
        code = main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--method", "both", "--alpha", "0.05", "--seed", "7",
                     "--splits", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert len(records) == 4  # 2 splits x 2 methods
        assert {r["method"] for r in records} == {"tn", "tfro"}
        for record in records:
            assert set(record) == {"split", "method", "statistic", "p_value",
                                   "reject", "na_reason"}

    def test_byte_identical_across_runs(self, group_dirs, capsys):
        a, b = group_dirs
        args = ["test", "--group-a", str(a), "--group-b", str(b),
                "--method", "tn", "--alpha", "0.05", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_unequal_groups_runtime_error(self, group_dirs, tmp_path, capsys):
        a, _ = group_dirs
        small = tmp_path / "small"
        small.mkdir()
        model = TwoBlockModel(n=10, family="beta", within=(2.0, 3.0),
                              between=(1.0, 3.0))
        g = sample_population(model, False, 2, substream(3, 0))
        for k, graph in enumerate(g.graphs):
            save_adjacency_csv(graph, small / f"g{k}.csv")
        code = main(["test", "--group-a", str(a), "--group-b", str(small)])
        assert code == 2
        # Without --seed the entropy seed line comes first, as in realdata.
        seed_line, error_line = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"graphtest: seed \d+ \(from OS entropy\)", seed_line)
        assert error_line == (
            "sample-size-mismatch: groups have 4 and 2 graphs; equalize them "
            "first (see the realdata subcommand)")

    @pytest.mark.parametrize("drop_last", [[], ["--drop-last"]])
    def test_one_graph_groups_too_few_samples(self, tmp_path, drop_last, capsys):
        """Dropping the only graph cannot help: with or without --drop-last
        the run ends by naming the group size."""
        a, b = _write_groups(tmp_path, (1, 1))
        code = main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--seed", "7", *drop_last])
        assert code == 2
        assert capsys.readouterr().err == (
            "too-few-samples: need at least 2 graphs per group, got 1\n")

    def test_odd_groups_need_drop_last(self, tmp_path, capsys):
        a, b = _write_groups(tmp_path, (7, 7))
        code = main(["test", "--group-a", str(a), "--group-b", str(b), "--seed", "7"])
        assert code == 2
        assert capsys.readouterr() == ("", "odd-sample-size: group size 7 is odd; "
                                           "pass --drop-last to discard one pair\n")

    def test_empty_file_one_error_line(self, group_dirs, capfd):
        """capfd also captures what worker processes write to stderr."""
        a, b = group_dirs
        (b / "g2.csv").write_text("")
        code = main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--seed", "7"])
        assert code == 2
        assert capfd.readouterr() == (
            "", "data-load: g2.csv: the file contains no data\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflowing_gap_one_error_line(self, group_dirs, monkeypatch, capfd,
                                            cpus):
        """Mirrored entries 1e308 and -1e308 differ by more than the float64
        maximum: one data-load line and no numpy warning, whether the file
        is read in process or on a worker."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        a, b = group_dirs
        weights = load_adjacency_csv(a / "g0.csv").dense()
        weights[0, 1], weights[1, 0] = 1e308, -1e308
        np.savetxt(a / "g0.csv", weights, delimiter=",", fmt="%.17g")
        code = main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--seed", "7"])
        assert code == 2
        assert capfd.readouterr() == ("", "data-load: g0.csv: entries (0, 1) and "
                                          "(1, 0) differ by inf, beyond tolerance\n")

    def test_table_format(self, group_dirs, capsys):
        a, b = group_dirs
        code = main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--seed", "7", "--output-format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("split")

    def test_csv_format(self, group_dirs, capsys):
        a, b = group_dirs
        main(["test", "--group-a", str(a), "--group-b", str(b), "--seed", "7",
              "--output-format", "csv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "split,method,statistic,p_value,reject,na_reason"


@pytest.fixture(scope="module")
def split_groups(tmp_path_factory):
    """Two differing groups and two all-zero groups (every result NA)."""
    root = tmp_path_factory.mktemp("split_groups")
    a, b = make_synthetic_groups(n=8, size_a=6, size_b=6, epsilon=0.7, seed=91)
    zero = GraphSample.from_edges(np.zeros_like(a.edges))
    dirs = []
    for label, sample in (("a", a), ("b", b), ("z1", zero), ("z2", zero)):
        directory = root / label
        directory.mkdir()
        for k, graph in enumerate(sample.graphs):
            save_adjacency_csv(graph, directory / f"s{k}.csv")
        dirs.append(directory)
    return dirs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), splits=st.integers(1, 4),
       alpha=st.floats(1e-3, 0.5), zero=st.booleans())
def test_test_records_equal_run_methods(split_groups, seed, splits, alpha, zero):
    """Each `test --method both` record is the kernel's result on split
    ``random_partition(m, substream(seed, split))`` of the loaded groups."""
    dirs = split_groups[2:] if zero else split_groups[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["test", "--group-a", str(dirs[0]), "--group-b", str(dirs[1]),
                     "--method", "both", "--seed", str(seed), "--splits",
                     str(splits), "--alpha", repr(alpha)])
    assert code == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    a, b = load_groups(dirs)
    expected = [
        {"split": split, "method": r.method, "statistic": r.statistic,
         "p_value": r.p_value, "reject": r.reject, "na_reason": r.na_reason}
        for split in range(splits)
        for r in run_methods(METHODS, a, b,
                             random_partition(a.m, substream(seed, split)), alpha)
    ]
    assert records == expected
    assert all(r["na_reason"] is not None for r in records) == zero


class TestTheory:
    def test_beta_homogeneous_consistency_ratio(self, tmp_path, capsys):
        """Homogeneous Beta(2,3): the baseline's denominator ratio is 100."""
        doc = {"schema": 1, "family": "beta", "n": 10,
               "within": [2, 3], "between": [2, 3], "epsilon": 0.0}
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(doc))
        code = main(["theory", "--config", str(path), "--m", "4"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tfro_consistency_ratio"] == pytest.approx(100.0, rel=1e-9)
        assert report["lambda_n"] == 0.0  # no shift

    def test_shifted_model_reports_lambda(self, model_path, capsys):
        code = main(["theory", "--config", str(model_path), "--m", "4"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_n"] > 0
        assert set(report["condition_ratios"]) == {
            "size_vs_sigma4", "sigma8_concentration", "sigma4_eta", "eta_sq",
            "all_below_0.1_heuristic"}

    def test_bernoulli_block_present(self, tmp_path, capsys):
        doc = {"schema": 1, "family": "bernoulli", "n": 10,
               "within": 0.5, "between": 0.4}
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(doc))
        main(["theory", "--config", str(path), "--m", "2"])
        report = json.loads(capsys.readouterr().out)
        assert report["bernoulli_condition"]["mu_fro_sq"] > 0

    def test_huge_beta_shapes(self, tmp_path, capsys):
        """Shapes above about 1e154 once overflowed alpha * beta, and the NaN
        variance ended the run with a traceback."""
        doc = {"schema": 1, "family": "beta", "n": 4,
               "within": [1e200, 1e200], "between": [1, 3]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["theory", "--config", str(path), "--m", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_n"] == 0.0
        assert all(math.isfinite(v) for v in report["condition_ratios"].values())

    def test_shapes_whose_sum_overflows(self, tmp_path, capsys):
        """At shapes of 1e308 alpha + beta overflowed and the within-block
        mean came out 0.  The consistency ratio sum(mu^2) / sum(sigma^4)
        carries it: 2 within-block pairs of mean 0.5 and no variance, and 4
        Beta(1, 3) pairs."""
        doc = {"schema": 1, "family": "beta", "n": 4,
               "within": [1e308, 1e308], "between": [1, 3]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["theory", "--config", str(path), "--m", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        mean, var = beta_moments(1.0, 3.0)
        assert report["tfro_consistency_ratio"] == pytest.approx(
            (2 * 0.5**2 + 4 * mean**2) / (4 * var**2), rel=1e-12)

    def test_degenerate_bernoulli_exit_2(self, tmp_path, capsys):
        doc = {"schema": 1, "family": "bernoulli", "n": 6, "within": 0, "between": 0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["theory", "--config", str(path), "--m", "2"]) == 2
        assert capsys.readouterr() == (
            "", "degenerate-model: all edge variances are zero\n")

    def test_bernoulli_builds_no_dense_matrix(self, tmp_path, monkeypatch, capsys):
        """The binary simplification is a sum over pair vectors: no n x n
        matrix is built on the way."""
        def refuse(self):
            raise AssertionError(f"built a dense {type(self).__name__}")
        monkeypatch.setattr(GraphSample, "dense", refuse)
        doc = {"schema": 1, "family": "bernoulli", "n": 10,
               "within": 0.5, "between": 0.4}
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(doc))
        assert main(["theory", "--config", str(path), "--m", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["bernoulli_condition"]["n"] == 10

    @pytest.mark.parametrize("delta", ["-5", "nan", "0", "1"])
    def test_delta_outside_unit_interval_exit_1(self, model_path, delta, capsys):
        assert main(["theory", "--config", str(model_path), "--m", "2",
                     "--delta", delta]) == 1
        assert "delta must lie in (0, 1)" in capsys.readouterr().err

    def test_table_format(self, model_path, capsys):
        code = main(["theory", "--config", str(model_path), "--m", "2",
                     "--output-format", "table"])
        assert code == 0
        assert "tfro_consistency_ratio" in capsys.readouterr().out


class TestSimulate:
    def _config_path(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(EXPERIMENT_DOC))
        return path

    def test_writes_report(self, tmp_path, capsys):
        config = self._config_path(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,m,epsilon,method,rejections,na,replications,rate,lambda"
        assert len(lines) == 1 + 2 * 2  # 2 cells x 2 methods

    def test_huge_beta_shapes_report_lambda(self, tmp_path, capsys):
        """At shapes of 1e200 lambda was once written as nan."""
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(
            {**EXPERIMENT_DOC, "replications": 2,
             "design": {"family": "beta", "within": [1e200, 1e200],
                        "between": [1, 3]}}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[-1] for row in rows if row[2] == "0"] == ["0", "0"]
        assert "nan" not in out.read_text()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "io-error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, capsys):
        config = self._config_path(tmp_path)
        out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2),
              "--seed", "123"])
        main(["simulate", "--config", str(config), "--out", str(out3),
              "--seed", "123"])
        assert out2.read_bytes() == out3.read_bytes()
        assert out1.read_bytes() != out2.read_bytes()


class TestReportPath:
    """``simulate`` and ``realdata`` check that ``--out`` can be written
    before the run (``realdata`` before it reads any file), and change no
    file when the run fails."""

    @staticmethod
    def _argv(command, tmp_path, out):
        if command == "simulate":
            config = tmp_path / "experiment.json"
            config.write_text(json.dumps(EXPERIMENT_DOC))
            return ["simulate", "--config", str(config), "--out", str(out)]
        a, b = _write_groups(tmp_path, (2, 2))
        return ["realdata", "--group-a", str(a), "--group-b", str(b),
                "--seed", "3", "--out", str(out)]

    @staticmethod
    def _refuse_runs(monkeypatch):
        def refuse(*args, **kwargs):
            raise GraphTestError("the run started")
        monkeypatch.setattr("graphtest.simulate.run_experiment", refuse)
        monkeypatch.setattr("graphtest.cli.load_groups", refuse)
        monkeypatch.setattr("graphtest.cli.run_passes", refuse)

    @pytest.mark.parametrize("command", ["simulate", "realdata"])
    def test_bad_out_fails_before_the_run(self, command, tmp_path, monkeypatch,
                                          capsys):
        """A path in a missing directory, and an existing directory."""
        missing, directory = tmp_path / "missing" / "r.csv", tmp_path / "outdir"
        directory.mkdir()
        argv = self._argv(command, tmp_path, missing)
        self._refuse_runs(monkeypatch)
        for out, error in ((missing, "[Errno 2] No such file or directory"),
                           (directory, "[Errno 21] Is a directory")):
            argv[-1] = str(out)
            assert main(argv) == 2
            assert capsys.readouterr().err == f"io-error: {error}: '{out}'\n"
        assert directory.is_dir() and list(directory.iterdir()) == []

    def test_bad_out_fails_before_the_seed_is_drawn(self, tmp_path, monkeypatch,
                                                    capsys):
        """Without ``--seed``, a bad ``--out`` prints only its error line."""
        out = tmp_path / "missing" / "r.csv"
        argv = self._argv("realdata", tmp_path, out)
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        self._refuse_runs(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"io-error: [Errno 2] No such file or directory: '{out}'\n")

    @pytest.mark.parametrize("command", ["simulate", "realdata"])
    @pytest.mark.parametrize("earlier", [None, b"earlier report\r\n"])
    def test_failed_run_leaves_out_as_it_was(self, command, earlier, tmp_path,
                                             monkeypatch, capsys):
        out = tmp_path / "r.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        argv = self._argv(command, tmp_path, out)
        self._refuse_runs(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the run started\n"
        assert (out.read_bytes() if out.exists() else None) == earlier


class TestConfigTypes:
    """Integer fields take JSON integers, real fields JSON numbers (bool is
    neither) and grids JSON lists: anything else is one `config:` line and
    exit 2, never a truncated value or a traceback."""

    @pytest.mark.parametrize("key, value", [
        ("n", 10.7), ("n", 10.0), ("n", "x"), ("n", True), ("n", None),
        ("epsilon", "e"), ("epsilon", False), ("epsilon", [0.5]),
        ("epsilon", 10**400),
        ("within", ["a", 3]), ("within", [2, True]), ("between", [1, None]),
        ("schema", True), ("schema", 1.0),
    ])
    def test_theory_model_values(self, tmp_path, key, value, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**MODEL_DOC, key: value}))
        assert main(["theory", "--config", str(path), "--m", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config: {key} ")
        assert captured.err.count("\n") == 1

    def test_bernoulli_probability_must_be_a_number(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": 1, "family": "bernoulli", "n": 4,
                                    "within": "0.5", "between": 0.4}))
        assert main(["theory", "--config", str(path), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith("config: within ")

    @pytest.mark.parametrize("key, value", [
        ("replications", 3.7), ("replications", "x"), ("replications", True),
        ("master_seed", 1.5), ("master_seed", "7"),
        ("alpha", "0.05"), ("alpha", True),
        ("n_grid", 5), ("n_grid", [10.5]), ("n_grid", ["10"]),
        ("m_grid", [2.5]), ("m_grid", "2"), ("m_grid", [True]),
        ("epsilon_grid", 0.5), ("epsilon_grid", ["e"]), ("epsilon_grid", [None]),
        ("methods", "tn"), ("methods", 5),
        ("schema", True), ("schema", 1.0),
    ])
    def test_simulate_experiment_values(self, tmp_path, key, value, capsys):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({**EXPERIMENT_DOC, key: value}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config: {key} ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, repeated", [
        ("n_grid", [10, 12, 10], "10"), ("m_grid", [2, 2], "2"),
        ("epsilon_grid", [0.0, 0.5, 0], "0.0"), ("methods", ["tn", "tn"], "'tn'"),
    ])
    def test_simulate_repeated_grid_value(self, tmp_path, key, value, repeated,
                                          capsys):
        """A repeated value would run and report the same cell twice."""
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({**EXPERIMENT_DOC, key: value}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config: {key} repeats {repeated}\n"
        assert not out.exists()

    def test_simulate_design_values(self, tmp_path, capsys):
        doc = {**EXPERIMENT_DOC,
               "design": {"family": "beta", "within": ["a", 3], "between": [1, 3]}}
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("config: within ")

    def test_integral_reals_accepted(self, tmp_path, capsys):
        """JSON integers are numbers too: the same report as the float form."""
        reports = []
        for alpha, epsilons in ((0.05, [0.0, 1.0]), (0.05, [0, 1])):
            path = tmp_path / "experiment.json"
            path.write_text(json.dumps({**EXPERIMENT_DOC, "alpha": alpha,
                                        "epsilon_grid": epsilons}))
            out = tmp_path / "report.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]



def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


_DESIGN = EXPERIMENT_DOC["design"]


class TestDocumentErrors:
    """Each malformed model or experiment document is one `config:` line
    naming the object at fault, and exit 2."""

    @pytest.mark.parametrize("command, doc, line", [
        ("theory", [MODEL_DOC], "model document must be a JSON object"),
        ("theory", {**MODEL_DOC, "extra": 1}, "unknown model keys: ['extra']"),
        ("theory", _without(MODEL_DOC, "schema"),
         'model document must declare "schema": 1'),
        ("theory", _without(MODEL_DOC, "between"),
         "model document missing keys: ['between']"),
        ("simulate", [EXPERIMENT_DOC], "experiment document must be a JSON object"),
        ("simulate", {**EXPERIMENT_DOC, "extra": 1},
         "unknown experiment keys: ['extra']"),
        ("simulate", _without(EXPERIMENT_DOC, "schema"),
         'experiment document must declare "schema": 1'),
        ("simulate", _without(EXPERIMENT_DOC, "replications"),
         "experiment document missing keys: ['replications']"),
        ("simulate", {**EXPERIMENT_DOC, "design": [_DESIGN]},
         "design must be a JSON object"),
        ("simulate", {**EXPERIMENT_DOC, "design": {**_DESIGN, "n": 10}},
         "unknown design keys: ['n']"),
        ("simulate", {**EXPERIMENT_DOC, "design": {**_DESIGN, "schema": 1}},
         "unknown design keys: ['schema']"),
        ("simulate", {**EXPERIMENT_DOC, "design": _without(_DESIGN, "between")},
         "design missing keys: ['between']"),
        ("theory", {**MODEL_DOC, "family": "gamma"},
         "family must be one of ('beta', 'bernoulli'), got 'gamma'"),
        ("simulate", {**EXPERIMENT_DOC, "design": {**_DESIGN, "family": "gamma"}},
         "family must be one of ('beta', 'bernoulli'), got 'gamma'"),
    ], ids=["model-not-object", "model-unknown-key", "model-no-schema",
            "model-missing-key", "experiment-not-object", "experiment-unknown-key",
            "experiment-no-schema", "experiment-missing-key", "design-not-object",
            "design-unknown-key", "design-schema-key", "design-missing-key",
            "model-unknown-family", "design-unknown-family"])
    def test_error_line(self, tmp_path, command, doc, line, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.csv"
        extra = ["--m", "4"] if command == "theory" else ["--out", str(out)]
        assert main([command, "--config", str(path), *extra]) == 2
        assert capsys.readouterr() == ("", f"config: {line}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, line", [
        ("theory", {**MODEL_DOC, "family": "bernoulli", "within": 0.99,
                    "between": 0.5, "epsilon": 0.02},
         "probability-range: probability must lie in [0, 1], got 1.01"),
        ("simulate", {**EXPERIMENT_DOC, "epsilon_grid": [0.0, 0.02], "design": {
            "family": "bernoulli", "within": 0.99, "between": 0.5}},
         "probability-range: probability must lie in [0, 1], got 1.01"),
        ("theory", {**MODEL_DOC, "within": [0, 1]},
         "non-positive-parameter: beta shapes must be finite and positive, got (0.0, 1.0)"),
        ("simulate", {**EXPERIMENT_DOC, "design": {**_DESIGN, "within": [0, 1]}},
         "non-positive-parameter: beta shapes must be finite and positive, got (0.0, 1.0)"),
        ("theory", {**MODEL_DOC, "family": "bernoulli", "within": 0.99,
                    "between": -0.1, "epsilon": 0.02},
         "probability-range: probability must lie in [0, 1], got -0.1"),
        ("simulate", {**EXPERIMENT_DOC, "epsilon_grid": [0.02], "design": {
            "family": "bernoulli", "within": 0.99, "between": -0.1}},
         "probability-range: probability must lie in [0, 1], got -0.1"),
    ], ids=["model-shifted-bernoulli", "design-shifted-bernoulli", "model-beta",
            "design-beta", "model-two-faults", "design-two-faults"])
    def test_range_error_line(self, tmp_path, command, doc, line, capsys):
        """The line names the value out of range, shifted if the shift put
        it there; both ranges are checked before the shift, then after."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.csv"
        extra = ["--m", "4"] if command == "theory" else ["--out", str(out)]
        assert main([command, "--config", str(path), *extra]) == 2
        assert capsys.readouterr() == ("", f"{line}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        b"\xff{}", b'{"n": ' + b"1" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000,
    ], ids=["bad-utf8", "integer-digits", "deep-nesting"])
    def test_undecodable_document(self, tmp_path, text, capsys):
        """Text the json module cannot decode is one `config:` line naming
        the file (the reason is Python's wording), not a traceback."""
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        assert main(["theory", "--config", str(path), "--m", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config: invalid JSON in {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestRealdata:
    @pytest.fixture
    def unequal_dirs(self, tmp_path):
        a, b = make_synthetic_groups(n=10, size_a=4, size_b=6, epsilon=0.7,
                                     seed=77)
        dirs = []
        for label, sample in (("a", a), ("b", b)):
            directory = tmp_path / label
            directory.mkdir()
            for k, graph in enumerate(sample.graphs):
                save_adjacency_csv(graph, directory / f"s{k}.csv")
            dirs.append(directory)
        return dirs

    def test_oversample_to_stdout(self, unequal_dirs, capsys):
        a, b = unequal_dirs
        code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                     "--strategy", "oversample", "--reps", "5", "--seed", "3",
                     "--method", "both"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "strategy,tau,method,min,q1,median,q3,max,na_count"
        assert len(lines) == 3

    def test_sweep_rows(self, unequal_dirs, tmp_path, capsys):
        a, b = unequal_dirs
        out = tmp_path / "summary.csv"
        code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                     "--strategy", "subsample", "--reps", "4", "--seed", "3",
                     "--method", "tn", "--taus", "0.2,0.4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 1 + 2  # header + plain row + 2 sweep rows

    def test_negative_zero_tau_prints_as_zero(self, unequal_dirs, capsys):
        """`--taus=-0` is the threshold 0: its rows are those of `--taus=0`."""
        a, b = unequal_dirs
        outputs = []
        for taus in ("-0", "0"):
            assert main(["realdata", "--group-a", str(a), "--group-b", str(b),
                         "--reps", "3", "--seed", "3", "--method", "tfro",
                         f"--taus={taus}"]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        assert outputs[0] == outputs[1]
        assert outputs[0][2] == "oversample_smaller,0,tfro,0,0,0,0,0,0"

    def test_subsample_to_one_graph_drop_last_too_few_samples(self, tmp_path,
                                                               capsys):
        a, b = _write_groups(tmp_path, (1, 3))
        code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                     "--strategy", "subsample", "--reps", "2", "--seed", "3",
                     "--drop-last"])
        assert code == 2
        assert capsys.readouterr().err == (
            "too-few-samples: need at least 2 graphs per group, got 1\n")

    def test_split_only_unequal_exit_2(self, unequal_dirs, capsys):
        a, b = unequal_dirs
        code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                     "--strategy", "split-only", "--reps", "2", "--seed", "3"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "sample-size-mismatch: groups have 4 and 6 graphs; equalize them "
                "first (see the realdata subcommand)\n")

    def test_odd_common_size_fails_before_any_pass(self, tmp_path, monkeypatch,
                                                   capsys):
        """Oversampling 5 graphs to 7 leaves an odd size: one error line, and
        the passes never start."""
        def no_pass(*args):
            raise AssertionError("a pass ran")
        monkeypatch.setattr("graphtest.realdata.pool.run", no_pass)
        a, b = _write_groups(tmp_path, (5, 7))
        code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                     "--reps", "2", "--seed", "3"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "odd-sample-size: group size 7 is odd; pass --drop-last to "
                "discard one pair\n")


class TestWorkerCount:
    """`test` and `realdata` read files and run their splits on one worker
    per usable CPU; the output does not depend on that count."""

    @pytest.fixture
    def group_files(self, tmp_path):
        a, b = make_synthetic_groups(n=8, size_a=6, size_b=6, epsilon=0.7,
                                     seed=78)
        dirs = []
        for label, sample in (("a", a), ("b", b)):
            directory = tmp_path / label
            directory.mkdir()
            for k, graph in enumerate(sample.graphs):
                save_adjacency_csv(graph, directory / f"s{k}.csv")
            dirs.append(directory)
        return dirs

    @staticmethod
    def _run(monkeypatch, capsys, cpus, argv):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        code = main(argv)
        captured = capsys.readouterr()
        assert multiprocessing.active_children() == []
        return code, captured.out, captured.err

    def _commands(self, a, b, out):
        return (["realdata", "--group-a", str(a), "--group-b", str(b),
                 "--reps", "4", "--seed", "3", "--taus", "0.2,0.5,9",
                 "--out", str(out)],
                ["test", "--group-a", str(a), "--group-b", str(b),
                 "--method", "both", "--splits", "3", "--seed", "4"])

    def test_output_identical_for_1_2_3_workers(self, group_files, tmp_path,
                                                monkeypatch, capsys):
        a, b = group_files
        out = tmp_path / "summary.csv"
        for argv in self._commands(a, b, out):
            results = []
            for cpus in (1, 2, 3):
                out.unlink(missing_ok=True)
                code, stdout, stderr = self._run(monkeypatch, capsys, cpus, argv)
                report = out.read_bytes() if argv[0] == "realdata" else b""
                results.append((code, stdout, stderr, report))
            assert results[0][0] == 0
            assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("mismatch", [None, 1, 2])
    def test_error_line_identical_for_1_2_3_workers(self, group_files, tmp_path,
                                                    mismatch, monkeypatch, capsys):
        """A corrupt file, alone or behind a file with another node count."""
        a, b = group_files
        (a / "s3.csv").write_text("0,1\n2,0\n")
        if mismatch is not None:
            save_adjacency_csv(make_synthetic_groups(n=4, size_a=1, size_b=1)[0]
                               .graphs[0], a / f"s{mismatch}.csv")
        for argv in self._commands(a, b, tmp_path / "summary.csv"):
            results = {self._run(monkeypatch, capsys, cpus, argv)
                       for cpus in (1, 2, 3)}
            assert len(results) == 1
            ((code, stdout, stderr),) = results
            assert code == 2 and stdout == ""
            expected = ("data-load: s3.csv:" if mismatch is None else
                        f"mixed-dimensions: s{mismatch}.csv has 4 nodes, "
                        "expected 8 (from s0.csv)")
            assert stderr.startswith(expected) and stderr.count("\n") == 1


    def test_all_na_threshold_rows(self, group_files, tmp_path, monkeypatch,
                                   capsys):
        """A threshold above every weight leaves no edges: each method's row
        is all NA with every repetition counted, at any worker count."""
        a, b = group_files
        out = tmp_path / "summary.csv"
        argv = ["realdata", "--group-a", str(a), "--group-b", str(b),
                "--reps", "4", "--seed", "3", "--taus", "0.2,9",
                "--method", "both", "--out", str(out)]
        for cpus in (1, 2):
            assert self._run(monkeypatch, capsys, cpus, argv) == (0, "", "")
            assert out.read_text().splitlines()[-2:] == [
                "oversample_smaller,9,tn,NA,NA,NA,NA,NA,4",
                "oversample_smaller,9,tfro,NA,NA,NA,NA,NA,4"]


class TestPlanOrderLoad:
    """Chunks of a 124-file load come back in file order, larger chunks
    first: at two workers files 0..13, then 14..27.  A file of another node
    count ends the first chunk, and the error line is that of a
    file-by-file load for any worker count."""

    @pytest.fixture
    def sweep_dirs(self, tmp_path):
        a, b = make_synthetic_groups(n=6, size_a=54, size_b=70, seed=79)
        dirs = []
        for label, sample in (("a", a), ("b", b)):
            directory = tmp_path / label
            directory.mkdir()
            for k, graph in enumerate(sample.graphs):
                save_adjacency_csv(graph, directory / f"graph_{k:04d}.csv")
            dirs.append(directory)
        return dirs

    @pytest.mark.parametrize("corrupt, expected", [
        (None, "mixed-dimensions: graph_0013.csv has 4 nodes, expected 6 "
               "(from graph_0000.csv)\n"),
        (20, "mixed-dimensions: graph_0013.csv has 4 nodes, expected 6 "
             "(from graph_0000.csv)\n"),
        (5, "data-load: graph_0005.csv: "),
    ], ids=["mismatch", "corrupt-behind", "corrupt-ahead"])
    def test_error_line_identical_for_1_2_3_workers(self, sweep_dirs, tmp_path,
                                                    corrupt, expected,
                                                    monkeypatch, capsys):
        assert _plan([1], 124, 2)[:2] == [(0, 0, 14), (0, 14, 28)]
        a, b = sweep_dirs
        save_adjacency_csv(make_synthetic_groups(n=4, size_a=1, size_b=1)[0]
                           .graphs[0], a / "graph_0013.csv")
        if corrupt is not None:
            (a / f"graph_{corrupt:04d}.csv").write_text("0,1\nx,0\n")
        argv = ["realdata", "--group-a", str(a), "--group-b", str(b),
                "--strategy", "oversample", "--reps", "2", "--seed", "3",
                "--out", str(tmp_path / "summary.csv")]
        results = {TestWorkerCount._run(monkeypatch, capsys, cpus, argv)
                   for cpus in (1, 2, 3)}
        assert len(results) == 1
        ((code, stdout, stderr),) = results
        assert code == 2 and stdout == ""
        assert stderr.startswith(expected) and stderr.count("\n") == 1
        assert not (tmp_path / "summary.csv").exists()


class TestEntropySeed:
    """Without --seed the drawn seed is written to stderr, and only there;
    re-running with it reproduces stdout byte for byte."""

    @pytest.mark.parametrize("command, extra", [("test", ["--splits", "3"]),
                                                ("realdata", ["--reps", "4"])],
                             ids=["test", "realdata"])
    def test_printed_seed_reproduces_run(self, command, extra, group_dirs, capsys):
        a, b = group_dirs
        args = [command, "--group-a", str(a), "--group-b", str(b),
                "--method", "both", *extra]
        assert main(args) == 0
        first = capsys.readouterr()
        seed = re.fullmatch(r"graphtest: seed (\d+) \(from OS entropy\)\n", first.err)
        assert seed is not None
        assert main([*args, "--seed", seed[1]]) == 0
        again = capsys.readouterr()
        assert again.out == first.out
        assert again.err == ""


def _write_scaled_groups(tmp_path, scale):
    """Equal 4-graph groups from the synthetic design, weights times scale."""
    a, b = make_synthetic_groups(n=10, size_a=4, size_b=4, seed=78)
    dirs = []
    for label, sample in (("a", a), ("b", b)):
        directory = tmp_path / f"{label}_{scale:g}"
        directory.mkdir()
        for k, graph in enumerate(sample.graphs):
            save_adjacency_csv(validate_adjacency(graph.dense() * scale),
                               directory / f"s{k}.csv")
        dirs.append(directory)
    return dirs


class TestExtremeScale:
    """Weights ×1e170 once overflowed every product T_ij into NA; the
    statistics are now computed on power-of-two rescaled half sums."""

    def _test_records(self, dirs, capsys):
        a, b = dirs
        assert main(["test", "--group-a", str(a), "--group-b", str(b),
                     "--method", "both", "--seed", "7", "--splits", "3"]) == 0
        return [json.loads(line) for line in
                capsys.readouterr().out.strip().split("\n")]

    def test_test_scaled_1e170_is_valid(self, tmp_path, capsys):
        plain = self._test_records(_write_scaled_groups(tmp_path, 1.0), capsys)
        huge = self._test_records(_write_scaled_groups(tmp_path, 1e170), capsys)
        assert [r["method"] for r in huge] == [r["method"] for r in plain]
        for want, got in zip(plain, huge):
            assert got["na_reason"] is None and math.isfinite(got["statistic"])
            if got["method"] == "tn":
                assert got["statistic"] == pytest.approx(want["statistic"], rel=1e-12)
                assert got["reject"] == want["reject"]

    def test_realdata_scaled_1e170_is_valid(self, tmp_path, capsys):
        outputs = []
        for scale in (1.0, 1e170):
            a, b = _write_scaled_groups(tmp_path, scale)
            assert main(["realdata", "--group-a", str(a), "--group-b", str(b),
                         "--reps", "3", "--seed", "3"]) == 0
            outputs.append(capsys.readouterr().out.strip().split("\n")[1:])
        plain, huge = ([row.split(",") for row in rows] for rows in outputs)
        assert [row[2] for row in huge] == ["tn", "tfro"]
        for want, got in zip(plain, huge):
            assert all(math.isfinite(float(v)) for v in got[3:8]) and got[-1] == "0"
        assert [float(v) for v in huge[0][3:8]] == pytest.approx(
            [float(v) for v in plain[0][3:8]], rel=1e-5)


class TestNonFiniteStatistic:
    """Finite weights of opposite sign near the float64 limit overflow
    D = G - H: the CLI reports NA, never a NaN statistic or a traceback."""

    @pytest.fixture
    def huge_dirs(self, tmp_path):
        full = np.ones((6, 6)) - np.eye(6)
        dirs = []
        for label, sign in (("a", 1.0), ("b", -1.0)):
            directory = tmp_path / label
            directory.mkdir()
            for k in range(4):
                save_adjacency_csv(validate_adjacency(full * sign * 1e308),
                                   directory / f"s{k}.csv")
            dirs.append(directory)
        return dirs

    def test_test_prints_no_nan(self, huge_dirs, monkeypatch, capsys):
        """One split in process, and three on one or two usable CPUs: every
        record is NA, none is NaN."""
        a, b = huge_dirs
        argv = ["test", "--group-a", str(a), "--group-b", str(b),
                "--method", "both", "--seed", "7"]
        for cpus, splits in ((None, 1), (1, 3), (2, 3)):
            if cpus is not None:
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: set(range(cpus)),
                                    raising=False)
            code = main([*argv, "--splits", str(splits)])
            assert code == 0
            out = capsys.readouterr().out
            assert "NaN" not in out
            lines = out.strip().split("\n")
            assert len(lines) == 2 * splits
            for line in lines:
                record = json.loads(line)
                assert record["statistic"] is None
                assert record["na_reason"] == "non_finite"

    def test_realdata_all_na_exit_2(self, huge_dirs, monkeypatch, capsys):
        a, b = huge_dirs
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            code = main(["realdata", "--group-a", str(a), "--group-b", str(b),
                         "--reps", "3", "--seed", "3"])
            assert code == 2
            assert capsys.readouterr().err == (
                "all-na: all 3 repetitions produced undefined statistics\n")


class TestUsageAndHelp:
    @pytest.mark.parametrize("taus", ["nan", "inf", "0.2,nan", "0.2,-inf", "0.1,-0.5"])
    def test_bad_taus_exit_1(self, taus, capsys):
        assert main(["realdata", "--group-a", "a", "--group-b", "b",
                     "--taus", taus]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage-error: ") and err.count("\n") == 1
        assert "thresholds must be finite non-negative reals" in err

    @pytest.mark.parametrize("taus", ["0.2,0.2", "0.1,0.3,0.10", "0,-0"])
    def test_repeated_taus_exit_1(self, taus, capsys):
        assert main(["realdata", "--group-a", "a", "--group-b", "b",
                     "--taus", taus]) == 1
        assert capsys.readouterr().err == (
            "usage-error: argument --taus: thresholds must not repeat: "
            f"{taus!r}\n")

    @pytest.mark.parametrize("flag, value, line", [
        ("--seed", "abc", "argument --seed: seed must be an unsigned 64-bit int, got abc"),
        ("--seed", "18446744073709551616", "argument --seed: seed must be an "
         "unsigned 64-bit int, got 18446744073709551616"),
        ("--taus", "abc", "argument --taus: thresholds must be comma-separated reals: 'abc'"),
    ])
    def test_bad_value_line(self, flag, value, line, capsys):
        assert main(["realdata", "--group-a", "a", "--group-b", "b",
                     f"{flag}={value}"]) == 1
        assert capsys.readouterr() == ("", f"usage-error: {line}\n")

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["test", "--bogus"]) == 1
        assert "usage-error" in capsys.readouterr().err

    def test_missing_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    def test_bad_alpha_exit_1(self, capsys):
        assert main(["test", "--group-a", "x", "--group-b", "y",
                     "--alpha", "2.0"]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("generate", "test", "theory", "simulate", "realdata"):
            assert name in out

    def test_subcommand_help_documents_flags(self, capsys):
        assert main(["realdata", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--group-a", "--group-b", "--strategy", "--reps", "--taus",
                     "--method", "--alpha", "--seed", "--out"):
            assert flag in out

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--threads", "1"),
        ("test", "--threads", "1"),
        ("theory", "--threads", "1"),
        ("realdata", "--threads", "1"),
        ("simulate", "--output-format", "json"),
        ("realdata", "--output-format", "json"),
        ("theory", "--seed", "1"),
    ])
    def test_removed_flags_exit_1(self, command, flag, value, capsys):
        """Flags a subcommand never read are gone, not silently accepted."""
        required = {
            "generate": ["--model", "m.json", "--m", "2", "--out", "o"],
            "test": ["--group-a", "a", "--group-b", "b"],
            "theory": ["--config", "m.json", "--m", "2"],
            "simulate": ["--config", "e.json", "--out", "r.csv"],
            "realdata": ["--group-a", "a", "--group-b", "b"],
        }[command]
        assert main([command, *required, flag, value]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_negative_threads_exit_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "x.json"),
                     "--out", str(tmp_path / "r.csv"), "--threads", "-1"]) == 1
        assert "usage-error" in capsys.readouterr().err
