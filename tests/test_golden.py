"""Byte-level regression guard: fixed-seed outputs must keep their digests.

Each case produces the exact bytes a user would see (a report file, the
CSVs written by ``generate``, stdout of ``test``, ``theory`` or
``realdata``, or a sampled weight matrix) and compares their SHA-256 with a digest recorded from an earlier
version of the package.  A refactor that changes any number, any summation
order, or any random-stream use shows up here as a digest mismatch.

The digests depend on numpy's Beta/uniform generators and float
formatting, so a numpy upgrade that changes its streams changes them too.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from graphtest.cli import main
from graphtest.graphs import save_adjacency_csv
from graphtest.models import MeanMatrix, sample_graph_from_means
from graphtest.realdata import make_synthetic_groups
from graphtest.rng import substream

DIGESTS = {
    "simulate-beta":
        "6f821ac97d71ee198a7551f5bbf46e8b90924fec73fcb3f6c3d4f25fc45f65e6",
    "simulate-bernoulli":
        "1798bc6cd2f7ede741e41d77cd3c0490195f935ed1a8e9c0c9b37c80a5d35bd1",
    "realdata-taus":
        "d847811547714068a9a4bcaf7b3617c4123f981f6ff884adfe8fb962a1e7d181",
    "generate-csv":
        "2c65bff9d80f49b2934a0b4494f3a8e671c6dd73fe9a71bc4c617f99a90451de",
    "generate-bernoulli":
        "897ac61341d3f283d8676ef02ac8dc08f847ef4bac22bd96777f80c24293708e",
    "test-stdout":
        "63cba22f6bcd0b18f5d7c68a921ebb2969edc7489d7026fb34bef7e6fab05a12",
    "means-beta":
        "b080fec1f6b2d4ed8196cef9e1ce028eb2174086a90b6cf94b537710307a61e1",
    "means-bernoulli":
        "37b63ea731e88103bb6d1250d8b4d0626ce53c4dcb48a0f3111649e85a571dcc",
    "theory-beta":
        "5ad8210c355a8e83ae392b847f0a9d605a293c4bd3d5fc9ec982fd6b706e00b6",
    "theory-bernoulli":
        "993f8d54d94c368b4bcade1dce719b5673c0efc243b84df997f364377a84a658",
    "test-csv":
        "029b0680693711467da5a975a6f33491c62c1f5e99bdf4ad8531204f629474b6",
    "theory-csv":
        "67c2771ad5501053b5d849ed1df9d0081ed2ec2dfe3da86a275bec08948b64ea",
    "realdata-stdout":
        "d847811547714068a9a4bcaf7b3617c4123f981f6ff884adfe8fb962a1e7d181",
}

DESIGNS = {
    "beta": {"family": "beta", "within": [2, 3], "between": [1, 3]},
    "bernoulli": {"family": "bernoulli", "within": 0.3, "between": 0.1},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_group(directory, sample, prefix):
    directory.mkdir()
    for k, graph in enumerate(sample.graphs):
        save_adjacency_csv(graph, directory / f"{prefix}{k:02d}.csv")


def _simulate(tmp_path, family) -> bytes:
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "schema": 1, "design": DESIGNS[family],
        "n_grid": [6, 12], "m_grid": [2, 4], "epsilon_grid": [0.0, 0.3],
        "replications": 6, "alpha": 0.05, "master_seed": 11,
        "methods": ["tn", "tfro"],
    }))
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--threads", "1"]) == 0
    return out.read_bytes()


def _realdata(tmp_path, capsys, to_stdout=False) -> bytes:
    """The ``realdata`` report, written to ``--out`` or to stdout."""
    a, b = make_synthetic_groups(n=12, size_a=5, size_b=8, seed=31)
    _write_group(tmp_path / "a", a, "a")
    _write_group(tmp_path / "b", b, "b")
    out = tmp_path / "summary.csv"
    capsys.readouterr()
    assert main(["realdata", "--group-a", str(tmp_path / "a"),
                 "--group-b", str(tmp_path / "b"), "--strategy", "oversample",
                 "--reps", "8", "--seed", "5", "--method", "both",
                 "--taus", "0.2,0.5,0.9",
                 *([] if to_stdout else ["--out", str(out)])]) == 0
    return capsys.readouterr().out.encode() if to_stdout else out.read_bytes()


def _generate(tmp_path, family) -> bytes:
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema": 1, "n": 8, "epsilon": 0.4,
                                 **DESIGNS[family]}))
    out = tmp_path / "out"
    assert main(["generate", "--model", str(model), "--m", "3", "--seed", "9",
                 "--shifted", "--out", str(out)]) == 0
    return b"".join(p.name.encode() + p.read_bytes()
                    for p in sorted(out.glob("*.csv")))


def _test_stdout(tmp_path, capsys, fmt="json") -> bytes:
    a, b = make_synthetic_groups(n=10, size_a=5, size_b=5, seed=41)
    _write_group(tmp_path / "a", a, "a")
    _write_group(tmp_path / "b", b, "b")
    capsys.readouterr()
    assert main(["test", "--group-a", str(tmp_path / "a"),
                 "--group-b", str(tmp_path / "b"), "--method", "both",
                 "--splits", "3", "--seed", "6", "--drop-last",
                 "--output-format", fmt]) == 0
    return capsys.readouterr().out.encode()


def _theory(tmp_path, capsys, family, fmt="json") -> bytes:
    """``theory`` output for a shifted model; the Bernoulli one also carries
    the ``bernoulli_condition`` block."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema": 1, "n": 20, "epsilon": 0.2,
                                 **DESIGNS[family]}))
    capsys.readouterr()
    assert main(["theory", "--config", str(model), "--m", "6",
                 "--output-format", fmt]) == 0
    return capsys.readouterr().out.encode()


def _means(family) -> bytes:
    """One draw from an inhomogeneous mean matrix (distinct Beta shapes on
    every pair)."""
    n = 10
    rows, cols = np.triu_indices(n, 1)
    mu = np.zeros((n, n))
    mu[rows, cols] = np.random.default_rng(17).uniform(0.1, 0.9, size=rows.size)
    mu += mu.T
    mean = MeanMatrix(mu, 0.5 * mu * (1.0 - mu))
    return sample_graph_from_means(mean, family, substream(13, 0)).dense().tobytes()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_unchanged(name, tmp_path, capsys):
    if name.startswith("simulate-"):
        data = _simulate(tmp_path, name.split("-", 1)[1])
    elif name == "realdata-taus":
        data = _realdata(tmp_path, capsys)
    elif name == "realdata-stdout":
        data = _realdata(tmp_path, capsys, to_stdout=True)
    elif name == "generate-csv":
        data = _generate(tmp_path, "beta")
    elif name == "generate-bernoulli":
        data = _generate(tmp_path, "bernoulli")
    elif name == "test-stdout":
        data = _test_stdout(tmp_path, capsys)
    elif name == "test-csv":
        data = _test_stdout(tmp_path, capsys, "csv")
    elif name == "theory-csv":
        data = _theory(tmp_path, capsys, "bernoulli", "csv")
    elif name.startswith("theory-"):
        data = _theory(tmp_path, capsys, name.split("-", 1)[1])
    else:
        data = _means(name.split("-", 1)[1])
    assert _sha(data) == DIGESTS[name]
