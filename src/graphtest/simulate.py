"""Replicated Monte Carlo experiments over a grid of designs.

An :class:`ExperimentConfig` crosses a two-block design template with grids
of node counts, group sizes, and shifts.  Every (cell, replicate) derives
its own random stream from the master seed, so reports are bit-identical
regardless of how many workers run the cells.

:func:`graphtest.pool.run` cuts the cells into replicate chunks, a
replicate of cell (n, m) costing ``m * n * (n - 1)`` pair draws.  Chunks
return integer tallies, which are summed per cell and reported in cell
order.

Per replicate: draw the first group from the unshifted model and the second
from the shifted one (a zero shift is the null), draw a fresh random
partition, evaluate the requested statistics, and tally decisions.
A Bernoulli cell within :func:`~graphtest.twosample.order_free`'s bound
draws and counts its rows in draw order, never scattered into pair order;
its statistics are exact integer sums, so they keep their bits.  Beta
cells, and cells past the bound, are sampled in pair order.
Replicates whose statistic is NA are excluded from the rejection-rate
denominator and counted separately.

An experiment document is read and its objects checked by the JSON
boundary in :mod:`graphtest.models`; this module parses its grids into an
:class:`ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pool
from .diagnostics import lambda_from_moments, two_block_moments
from .errors import ConfigError, DegenerateModelError
from .graphs import write_csv
from .models import (
    TwoBlockModel,
    bernoulli_draw_order,
    json_design,
    json_object,
    json_value,
    read_json,
    sample_population,
)
from .rng import check_integer, check_seed, substream
from .twosample import METHODS, order_free, random_partition, run_methods, run_on_edges

REPORT_HEADER = ("n", "m", "epsilon", "method", "rejections", "na",
                 "replications", "rate", "lambda")


def _no_repeats(name: str, values) -> None:
    """Repeated grid values would run and report the same cell twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} repeats {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for one experiment."""

    family: str
    within: tuple[float, float] | float
    between: tuple[float, float] | float
    n_grid: tuple[int, ...]
    m_grid: tuple[int, ...]
    epsilon_grid: tuple[float, ...]
    replications: int
    alpha: float
    master_seed: int
    methods: tuple[str, ...] = ("tn", "tfro")

    def __post_init__(self):
        for name, grid in (("n_grid", self.n_grid), ("m_grid", self.m_grid),
                           ("epsilon_grid", self.epsilon_grid)):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            _no_repeats(name, grid)
        for m in self.m_grid:
            if check_integer(m, "group size") < 2 or m % 2 != 0:
                raise ConfigError(f"group sizes must be even and >= 2, got m={m}")
        if check_integer(self.replications, "replications") < 1:
            raise ConfigError(f"replications must be at least 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_seed(self.master_seed)
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}, expected subset of {METHODS}")
        _no_repeats("methods", self.methods)
        # Validate the design template (family included) against every grid
        # point up front so a bad cell fails at config time, not mid-run.
        for n in self.n_grid:
            for epsilon in self.epsilon_grid:
                self.cell_model(n, epsilon)
        # As in TwoBlockModel: -0.0 becomes 0.0, which the report prints as "0".
        object.__setattr__(self, "epsilon_grid", tuple(e + 0 for e in self.epsilon_grid))

    def cell_model(self, n: int, epsilon: float) -> TwoBlockModel:
        return TwoBlockModel(
            n=n, family=self.family, within=self.within,
            between=self.between, epsilon=epsilon,
        )

    def cells(self) -> list[tuple[int, int, int, float]]:
        """Deterministic cell order: index plus (n, m, epsilon)."""
        grid = [
            (n, m, epsilon)
            for n in self.n_grid
            for m in self.m_grid
            for epsilon in self.epsilon_grid
        ]
        return [(idx, n, m, eps) for idx, (n, m, eps) in enumerate(grid)]


@dataclass(frozen=True)
class CellResult:
    """Tally for one (n, m, epsilon, method) cell.

    ``rejection_rate`` is rejections over non-NA replicates, or None when
    every replicate was NA.  ``lambda_theoretical`` is the model pair's
    noncentrality (None when degenerate).
    """

    n: int
    m: int
    epsilon: float
    method: str
    reject_count: int
    na_count: int
    replications: int
    rejection_rate: float | None
    lambda_theoretical: float | None


@dataclass(frozen=True)
class SimulationReport:
    master_seed: int
    alpha: float
    cells: tuple[CellResult, ...]


def _run_chunk(config: ExperimentConfig, cell: tuple[int, int, int, float],
               start: int, stop: int):
    """Replicates ``start..stop-1`` of one cell.  Returns the cell's lambda
    (computed only when ``start == 0``, else None) and one
    ``(rejections, nas)`` tally per requested method."""
    cell_index, n, m, epsilon = cell
    model = config.cell_model(n, epsilon)
    lam = None
    if start == 0:
        try:
            lam = lambda_from_moments(two_block_moments(model, m))
        except DegenerateModelError:
            pass
    rejects = [0] * len(config.methods)
    nas = [0] * len(config.methods)
    # Draw-order rows stay raw arrays: a GraphSample claims pair_layout order.
    draw, test = ((bernoulli_draw_order, run_on_edges)
                  if model.family == "bernoulli" and order_free(m, n * (n - 1) // 2)
                  else (sample_population, run_methods))
    for r in range(start, stop):
        rng = substream(config.master_seed, cell_index, r)
        group_g = draw(model, False, m, rng)
        group_h = draw(model, True, m, rng)
        partition = random_partition(m, rng)
        results = test(config.methods, group_g, group_h, partition, config.alpha)
        for i, result in enumerate(results):
            nas[i] += result.is_na
            rejects[i] += result.reject is True
    return lam, tuple(zip(rejects, nas))


def _cell_results(config: ExperimentConfig, n: int, m: int, epsilon: float,
                  lam: float | None, tallies) -> tuple[CellResult, ...]:
    out = []
    for method, (rejects, nas) in zip(config.methods, tallies):
        valid = config.replications - nas
        out.append(CellResult(
            n=n, m=m, epsilon=epsilon, method=method,
            reject_count=rejects, na_count=nas,
            replications=config.replications,
            rejection_rate=rejects / valid if valid > 0 else None,
            lambda_theoretical=lam,
        ))
    return tuple(out)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> SimulationReport:
    """Run every grid cell on ``threads`` worker processes (0 = one per
    usable CPU, never more than there are chunks).

    :func:`graphtest.pool.run` cuts the cells into replicate chunks for
    ``threads``; ``threads == 1`` runs the same chunks in this process.
    The cell's lambda comes from its first chunk, and the integer tallies of
    its chunks are summed and reported in :meth:`ExperimentConfig.cells`
    order.  Every replicate's stream is keyed by (master seed, cell index,
    replicate), so the report is identical for any thread count."""
    if threads < 0:
        raise ValueError(f"threads must be non-negative, got {threads}")
    threads = threads or pool.usable_cpus()
    cells = config.cells()
    costs = [m * n * (n - 1) for _, n, m, _ in cells]
    runs = pool.run(_run_chunk, config, cells, costs, config.replications, threads)
    report = []
    for (_, n, m, eps), chunks in zip(cells, runs):
        tallies = [tuple(map(sum, zip(*method)))
                   for method in zip(*(tally for _, tally in chunks))]
        report += _cell_results(config, n, m, eps, chunks[0][0], tallies)
    return SimulationReport(master_seed=config.master_seed, alpha=config.alpha,
                            cells=tuple(report))


def emit_report(report: SimulationReport, path) -> None:
    """Write the report as CSV (UTF-8, LF endings, rates at 4 decimals)."""
    write_csv(REPORT_HEADER, ([
        cell.n, cell.m, f"{cell.epsilon:g}", cell.method,
        cell.reject_count, cell.na_count, cell.replications,
        "NA" if cell.rejection_rate is None else f"{cell.rejection_rate:.4f}",
        "NA" if cell.lambda_theoretical is None else f"{cell.lambda_theoretical:.6g}",
    ] for cell in report.cells), path)


def _experiment_from_json(doc) -> ExperimentConfig:
    """Parse an experiment document.

    Shape: ``{"schema": 1, "design": {"family", "within", "between"},
    "n_grid": [...], "m_grid": [...], "epsilon_grid": [...],
    "replications": int, "alpha": float, "master_seed": int,
    "methods": ["tn", "tfro"]}``, ``methods`` optional.
    """
    doc = json_object(doc, "experiment", {"design", "n_grid", "m_grid", "epsilon_grid",
                                          "replications", "alpha", "master_seed"},
                      {"methods"})

    def grid(key, kind):
        return tuple(json_value(v, f"{key} entry", kind)
                     for v in json_value(doc[key], key, list))

    return ExperimentConfig(
        # family, within, between: the design is parsed before the grids.
        *json_design(json_object(doc["design"], "design",
                                 {"family", "within", "between"}, schema=False)),
        n_grid=grid("n_grid", int),
        m_grid=grid("m_grid", int),
        epsilon_grid=grid("epsilon_grid", float),
        replications=json_value(doc["replications"], "replications", int),
        alpha=json_value(doc["alpha"], "alpha", float),
        master_seed=json_value(doc["master_seed"], "master_seed", int),
        methods=tuple(json_value(doc.get("methods", list(METHODS)), "methods",
                                 list)),
    )


def load_experiment_json(path) -> ExperimentConfig:
    return _experiment_from_json(read_json(path))
