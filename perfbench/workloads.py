"""The benchmark's workloads: what each one runs through the CLI, and why.

Every workload is one ``graphtest`` subcommand on inputs that the benchmark
writes from the workload seed before anything is timed.  The program only
ever sees those files (an experiment JSON, or two directories of adjacency
CSVs) plus its argv.

This module also holds the correctness checks on the reports: a structural
check that holds for any seed, and the SHA-256 digests of the reports at
``DEFAULT_SEED`` (``golden.json``), recorded from the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20210128
ALPHA = 0.05
METHODS = ("tn", "tfro")

SIMULATE_HEADER = ["n", "m", "epsilon", "method", "rejections", "na",
                   "replications", "rate", "lambda"]
REALDATA_HEADER = ["strategy", "tau", "method", "min", "q1", "median", "q3",
                   "max", "na_count"]

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                  # "simulate" or "realdata"
    reps: dict[str, int]          # size -> replications (simulate) or --reps
    design: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    threads: int = 1
    taus: tuple[float, ...] = ()

    def cells(self) -> list[tuple[int, int, float]]:
        """Cell order of ``simulate.ExperimentConfig.cells``."""
        return [(n, m, eps) for n in self.grids["n_grid"]
                for m in self.grids["m_grid"]
                for eps in self.grids["epsilon_grid"]]

    def tests(self, size: str) -> int:
        """Two-sample tests per invocation: one group pair on one split,
        with every method evaluated on it."""
        if self.command == "simulate":
            return len(self.cells()) * self.reps[size]
        return self.reps[size] * (1 + len(self.taus))


WORKLOADS = {w.name: w for w in (
    # The paper's headline power grid.  Beta sampling in `models` is most of
    # the CPU, it is the only workload that goes through the process pool,
    # and cells are handed out in ascending-n order, so the costliest cells
    # start last and can leave a worker idle at the tail.
    Workload(
        name="sim-beta-grid",
        why="paper's headline Beta power grid on the 2-worker pool: "
            "sampling-bound, and the only workload that exercises cell scheduling",
        command="simulate",
        reps={"full": 6, "tiny": 1},
        design={"family": "beta", "within": [2, 3], "between": [1, 3]},
        grids={"n_grid": [10, 30, 50, 100, 200, 300], "m_grid": [2, 4, 14],
               "epsilon_grid": [0.3, 0.5, 0.7]},
        threads=2,
    ),
    # Cheap thresholded-uniform draws: time splits about evenly between the
    # `twosample` kernel and dense n x n matrix building in `models`.  One
    # worker, so kernel and data-layout gains show without scheduling
    # effects.  Covers both size (epsilon 0) and power (epsilon 0.02).
    Workload(
        name="sim-bern-large",
        why="large sparse Bernoulli graphs on one worker: kernel and matrix "
            "layout cost without sampling or pool scheduling dominating",
        command="simulate",
        reps={"full": 16, "tiny": 1},
        design={"family": "bernoulli", "within": 0.05, "between": 0.01},
        grids={"n_grid": [200, 300], "m_grid": [4, 14],
               "epsilon_grid": [0.0, 0.02]},
        threads=1,
    ),
    # Real-data use of the statistic: no sampling and no pool, but CSV
    # loading, equalization, thresholding and the kernel at large m (70
    # graphs per group) on weighted and binarized inputs, with edge density
    # from 66% (tau 0.2) down to 1.7% (tau 0.8).
    Workload(
        name="realdata-sweep",
        why="CSV loading, equalize and a threshold sweep at 70 graphs per "
            "group: the kernel at large m, with no sampling and no pool",
        command="realdata",
        reps={"full": 30, "tiny": 2},
        taus=(0.2, 0.4, 0.6, 0.8),
    ),
)}


@dataclass(frozen=True)
class Job:
    """Inputs of one workload at one seed, written to disk."""

    workload: Workload
    size: str
    seed: int
    threads: int
    config: Path | None = None          # simulate
    group_a: Path | None = None         # realdata
    group_b: Path | None = None

    @property
    def reps(self) -> int:
        return self.workload.reps[self.size]

    @property
    def tests(self) -> int:
        return self.workload.tests(self.size)

    def argv(self, out: Path) -> list[str]:
        """The ``graphtest`` argv that writes its report to ``out``."""
        if self.workload.command == "simulate":
            return ["simulate", "--config", str(self.config), "--out", str(out),
                    "--seed", str(self.seed), "--threads", str(self.threads)]
        return ["realdata", "--group-a", str(self.group_a),
                "--group-b", str(self.group_b), "--strategy", "oversample",
                "--method", "both",
                "--taus", ",".join(f"{t:g}" for t in self.workload.taus),
                "--reps", str(self.reps), "--seed", str(self.seed),
                "--out", str(out)]

    def to_json(self) -> dict:
        w = self.workload
        return {"workload": w.name, "command": w.command, "size": self.size,
                "seed": self.seed, "threads": self.threads, "reps": self.reps,
                "taus": list(w.taus), "alpha": ALPHA, "methods": list(METHODS),
                "config": str(self.config) if self.config else None,
                "group_a": str(self.group_a) if self.group_a else None,
                "group_b": str(self.group_b) if self.group_b else None}


def prepare(workload: Workload, size: str, seed: int, threads: int,
            workdir: Path) -> Job:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.command == "simulate":
        doc = {"schema": 1, "design": workload.design, **workload.grids,
               "replications": workload.reps[size], "alpha": ALPHA,
               "master_seed": seed, "methods": list(METHODS)}
        config = workdir / f"experiment-{workload.name}-{size}-{seed}.json"
        config.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return Job(workload, size, seed, threads, config=config)

    # Imported here so that only the realdata workload loads the package
    # into the benchmark's own process.
    from graphtest.graphs import save_adjacency_csv
    from graphtest.realdata import make_synthetic_groups

    base = workdir / f"groups-{seed}"
    dirs = (base / "a", base / "b")
    if not all(d.is_dir() for d in dirs):
        for directory, sample in zip(dirs, make_synthetic_groups(seed=seed)):
            directory.mkdir(parents=True)
            for k, graph in enumerate(sample.graphs):
                save_adjacency_csv(graph, directory / f"graph_{k:04d}.csv")
    return Job(workload, size, seed, threads, group_a=dirs[0], group_b=dirs[1])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digest(workload: str, size: str) -> str | None:
    """Recorded report digest at ``DEFAULT_SEED``, or None if none recorded."""
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {}).get(size)


def check_report(job: Job, data: bytes) -> list[str]:
    """Structural problems with one report; empty when it is well formed.

    These hold for every seed, so they gate runs whose digest is unknown.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        return [f"report is not UTF-8: {err}"]
    if not text.endswith("\n") or "\r" in text:
        return ["report must end in a newline and use LF line endings"]
    rows = list(csv.reader(io.StringIO(text)))
    if job.workload.command == "simulate":
        return _check_simulate(job, rows)
    return _check_realdata(job, rows)


def _check_simulate(job: Job, rows: list[list[str]]) -> list[str]:
    if not rows or rows[0] != SIMULATE_HEADER:
        return [f"bad header {rows[:1]}"]
    expected = [(n, m, eps, method) for n, m, eps in job.workload.cells()
                for method in METHODS]
    if len(rows) - 1 != len(expected):
        return [f"{len(rows) - 1} rows, expected {len(expected)}"]
    problems = []
    for row, (n, m, eps, method) in zip(rows[1:], expected):
        try:
            rejects, nas, reps = int(row[4]), int(row[5]), int(row[6])
            valid = reps - nas
            rate = "NA" if valid == 0 else f"{rejects / valid:.4f}"
            lam_ok = row[8] == "NA" or (math.isfinite(float(row[8]))
                                        and float(row[8]) >= 0)
        except (ValueError, IndexError):
            problems.append(f"unparsable row {row}")
            continue
        if (row[:4] != [str(n), str(m), f"{eps:g}", method]
                or reps != job.reps or not 0 <= rejects <= valid
                or nas < 0 or row[7] != rate or not lam_ok):
            problems.append(f"inconsistent row {row}")
    return problems


def _check_realdata(job: Job, rows: list[list[str]]) -> list[str]:
    if not rows or rows[0] != REALDATA_HEADER:
        return [f"bad header {rows[:1]}"]
    taus = [""] + [f"{t:g}" for t in job.workload.taus]
    expected = [(tau, method) for tau in taus for method in METHODS]
    if len(rows) - 1 != len(expected):
        return [f"{len(rows) - 1} rows, expected {len(expected)}"]
    problems = []
    for row, (tau, method) in zip(rows[1:], expected):
        try:
            na = int(row[8])
            summary = None if row[3:8] == ["NA"] * 5 else [float(v) for v in row[3:8]]
        except (ValueError, IndexError):
            problems.append(f"unparsable row {row}")
            continue
        ordered = summary is None or (all(map(math.isfinite, summary))
                                      and summary == sorted(summary))
        if (row[:3] != ["oversample_smaller", tau, method] or not ordered
                or not 0 <= na <= job.reps or (summary is None) != (na == job.reps)):
            problems.append(f"inconsistent row {row}")
    return problems
