"""Replicated Monte Carlo experiments over a grid of designs.

An :class:`ExperimentConfig` crosses a two-block design template with grids
of node counts, group sizes, and shifts.  Every (cell, replicate) derives
its own random stream from the master seed, so reports are bit-identical
regardless of how many workers run the cells.

Work is planned as replicate chunks ``(cell_index, start, stop)``: a
replicate costs ``m * n * (n - 1)`` pair draws, each cell is cut into the
fewest equal chunks that keep a chunk within a quarter of one worker's
share, and the chunks are handed out costliest first (Graham's
longest-processing-time rule), so no large cell starts last and leaves a
worker idle.  Chunks return integer tallies, which are summed per cell and
reported in cell order.

Per replicate: draw the first group from the unshifted model and the second
from the shifted one (a zero shift is the null), draw a fresh random
partition, evaluate the requested statistics, and tally decisions.
Replicates whose statistic is NA are excluded from the rejection-rate
denominator and counted separately.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .diagnostics import lambda_from_moments, two_block_moments
from .errors import ConfigError, DegenerateModelError, GraphTestError
from .models import FAMILIES, TwoBlockModel, model_from_json, sample_population
from .pool import map_tasks, usable_cpus
from .rng import check_seed, substream
from .twosample import METHODS, random_partition, run_methods

REPORT_HEADER = ("n", "m", "epsilon", "method", "rejections", "na",
                 "replications", "rate", "lambda")


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
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        for name, grid in (("n_grid", self.n_grid), ("m_grid", self.m_grid),
                           ("epsilon_grid", self.epsilon_grid)):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
        for m in self.m_grid:
            if m < 2 or m % 2 != 0:
                raise ConfigError(f"group sizes must be even and >= 2, got m={m}")
        if self.replications < 1:
            raise ConfigError(f"replications must be at least 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_seed(self.master_seed)
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}, expected subset of {METHODS}")
        # Validate the design template against every grid point up front so a
        # bad cell fails at config time, not mid-run.
        for n in self.n_grid:
            for epsilon in self.epsilon_grid:
                self.cell_model(n, epsilon)

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
    try:
        for r in range(start, stop):
            rng = substream(config.master_seed, cell_index, r)
            group_g = sample_population(model, False, m, rng)
            group_h = sample_population(model, True, m, rng)
            partition = random_partition(m, rng)
            results = run_methods(config.methods, group_g, group_h, partition,
                                  config.alpha)
            for i, result in enumerate(results):
                nas[i] += result.is_na
                rejects[i] += result.reject is True
    except GraphTestError as err:
        raise GraphTestError(
            f"cell n={n} m={m} epsilon={epsilon:g} failed: {err}"
        ) from err
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


def run_cell(
    config: ExperimentConfig, n: int, m: int, epsilon: float, cell_index: int
) -> tuple[CellResult, ...]:
    """Run one grid cell; returns one tally per requested method."""
    lam, tallies = _run_chunk(config, (cell_index, n, m, epsilon), 0,
                              config.replications)
    return _cell_results(config, n, m, epsilon, lam, tallies)


def plan_chunks(config: ExperimentConfig, workers: int) -> list[tuple[int, int, int]]:
    """Replicate chunks ``(cell_index, start, stop)`` covering every
    (cell, replicate) exactly once, costliest first.

    A replicate of cell (n, m) costs ``m * n * (n - 1)``.  Each cell is cut
    into the fewest near-equal chunks (sizes differ by at most one) whose
    cost stays within ``1 / (4 * workers)`` of the total work, or into
    single replicates when one replicate alone exceeds that.  Ties in cost
    keep ``(cell_index, start)`` order."""
    reps = config.replications
    unit = {idx: m * n * (n - 1) for idx, n, m, _ in config.cells()}
    total = reps * sum(unit.values())
    plan = []
    for idx, cost in unit.items():
        per_chunk = min(reps, max(1, total // (4 * workers * cost)))
        count = -(-reps // per_chunk)
        bounds = [reps * i // count for i in range(count + 1)]
        plan += [(idx, a, b) for a, b in zip(bounds, bounds[1:])]
    return sorted(plan, key=lambda c: (-(c[2] - c[1]) * unit[c[0]], c[0], c[1]))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> SimulationReport:
    """Run every grid cell on ``threads`` worker processes (0 = one per
    usable CPU, never more than there are chunks).

    The work is the :func:`plan_chunks` plan for ``threads``, handed out
    costliest chunk first; ``threads == 1`` runs the same plan in this
    process.  Chunk tallies are integers summed per cell and reported in
    :meth:`ExperimentConfig.cells` order, and every replicate's stream is
    keyed by (master seed, cell index, replicate), so the report is
    identical for any thread count."""
    if threads < 0:
        raise ValueError(f"threads must be non-negative, got {threads}")
    threads = threads or usable_cpus()
    cells = config.cells()
    plan = plan_chunks(config, threads)
    tasks = [(cells[idx], start, stop) for idx, start, stop in plan]
    results = map_tasks(_run_chunk, config, tasks, threads)

    lams = {}
    tallies = {idx: [(0, 0)] * len(config.methods) for idx, *_ in cells}
    for (idx, start, _), (lam, chunk) in zip(plan, results):
        if start == 0:
            lams[idx] = lam
        tallies[idx] = [(r0 + r1, na0 + na1)
                        for (r0, na0), (r1, na1) in zip(tallies[idx], chunk)]
    report = tuple(result for idx, n, m, eps in cells
                   for result in _cell_results(config, n, m, eps, lams[idx],
                                               tallies[idx]))
    return SimulationReport(master_seed=config.master_seed, alpha=config.alpha,
                            cells=report)


def emit_report(report: SimulationReport, path) -> None:
    """Write the report as CSV (UTF-8, LF endings, rates at 4 decimals)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for cell in report.cells:
            rate = "NA" if cell.rejection_rate is None else f"{cell.rejection_rate:.4f}"
            lam = "NA" if cell.lambda_theoretical is None else f"{cell.lambda_theoretical:.6g}"
            writer.writerow([
                cell.n, cell.m, f"{cell.epsilon:g}", cell.method,
                cell.reject_count, cell.na_count, cell.replications, rate, lam,
            ])


CONFIG_KEYS = {"schema", "design", "n_grid", "m_grid", "epsilon_grid",
               "replications", "alpha", "master_seed", "methods"}
DESIGN_KEYS = {"family", "within", "between"}


def experiment_from_json(doc: dict) -> ExperimentConfig:
    """Parse an experiment document.

    Shape: ``{"schema": 1, "design": {"family", "within", "between"},
    "n_grid": [...], "m_grid": [...], "epsilon_grid": [...],
    "replications": int, "alpha": float, "master_seed": int,
    "methods": ["tn", "tfro"]}``.  Unknown keys are rejected.
    """
    if not isinstance(doc, dict):
        raise ConfigError("experiment document must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
    if doc.get("schema") != 1:
        raise ConfigError("experiment document must declare \"schema\": 1")
    missing = CONFIG_KEYS - {"methods", "schema"} - set(doc)
    if missing:
        raise ConfigError(f"experiment document missing keys: {sorted(missing)}")

    design = doc["design"]
    if not isinstance(design, dict):
        raise ConfigError("design must be a JSON object")
    unknown = set(design) - DESIGN_KEYS
    if unknown:
        raise ConfigError(f"unknown design keys: {sorted(unknown)}")
    # Reuse the model-document validation for the parameter shapes; the
    # template has no fixed n or epsilon, so probe with placeholders.
    probe = dict(design)
    probe.update(schema=1, n=2, epsilon=0.0)
    template = model_from_json(probe)

    methods = tuple(doc.get("methods", ("tn", "tfro")))
    return ExperimentConfig(
        family=template.family,
        within=template.within,
        between=template.between,
        n_grid=tuple(int(n) for n in doc["n_grid"]),
        m_grid=tuple(int(m) for m in doc["m_grid"]),
        epsilon_grid=tuple(float(e) for e in doc["epsilon_grid"]),
        replications=int(doc["replications"]),
        alpha=float(doc["alpha"]),
        master_seed=int(doc["master_seed"]),
        methods=methods,
    )


def load_experiment_json(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return experiment_from_json(doc)
