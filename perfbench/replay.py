"""Traced replay of one workload through graphtest's public functions.

Usage: python3 replay.py JOB_JSON REPORT_OUT SPANS_OUT

Runs in a fresh interpreter, like the CLI invocation it mirrors.  It redoes
the CLI's work step by step with public functions only (``substream``,
``sample_population``, ``random_partition``, ``run_method``, ``equalize``,
``threshold_binarize``, ``five_number_summary``, ...), records a span
around each call, and rebuilds the CLI's report from its own tallies.  The
benchmark then requires that report to equal the CLI's byte for byte.  If
the program's API changes, the replay fails loudly instead of timing
something else.

Prints one JSON line: the import time of ``graphtest.cli`` and the wall
time of the replayed work.  Spans go to SPANS_OUT when the replay ends.
"""

import time

_IMPORT_START = time.monotonic()
import graphtest.cli  # noqa: E402  (its import time is the cli layer's cost)
_IMPORT_END = time.monotonic()

import csv  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from graphtest import diagnostics, graphs, models, realdata, rng, simulate, twosample  # noqa: E402
from graphtest.errors import DegenerateModelError  # noqa: E402
from spans import Tracer  # noqa: E402


def _run_methods(tracer, job, group_g, group_h, partition, test):
    """Every configured method on one split; one span per method."""
    edge_values = 2 * group_g.m * group_g.n * (group_g.n - 1) // 2
    results = {}
    for method in job["methods"]:
        with tracer.span(f"twosample.run_method.{method}", test=test,
                         edge_values=edge_values) as record:
            result = twosample.run_method(method, group_g, group_h, partition,
                                          job["alpha"])
            record["na"] = int(result.is_na)
        results[method] = result
    return results


def replay_cell(task):
    """One grid cell, as ``simulate.run_cell`` does it.  Runs in a worker."""
    config, index, n, m, epsilon, methods, parent = task
    tracer = Tracer(parent)
    job = {"methods": methods, "alpha": config.alpha}
    pairs = n * (n - 1) // 2
    with tracer.span("simulate.cell", test=str(index)):
        model = config.cell_model(n, epsilon)
        with tracer.span("diagnostics.lambda", test=str(index)):
            try:
                lam = diagnostics.lambda_from_moments(
                    diagnostics.two_block_moments(model, m))
            except DegenerateModelError:
                lam = None
        rejects = {method: 0 for method in methods}
        nas = {method: 0 for method in methods}
        # Names are rebound in the program's order, so arrays are freed in
        # the same order: the allocator's reuse of memory, and with it the
        # page-fault count, then matches the CLI's.
        for r in range(config.replications):
            test = f"{index}:{r}"
            with tracer.span("rng.substream", test=test):
                stream = rng.substream(config.master_seed, index, r)
            with tracer.span("models.sample_population", test=test, draws=m * pairs):
                group_g = models.sample_population(model, False, m, stream)
            with tracer.span("models.sample_population", test=test, draws=m * pairs):
                group_h = models.sample_population(model, True, m, stream)
            with tracer.span("twosample.random_partition", test=test):
                partition = twosample.random_partition(m, stream)
            for method, result in _run_methods(tracer, job, group_g, group_h,
                                               partition, test).items():
                if result.is_na:
                    nas[method] += 1
                elif result.reject:
                    rejects[method] += 1
    cells = []
    for method in methods:
        valid = config.replications - nas[method]
        cells.append(simulate.CellResult(
            n=n, m=m, epsilon=epsilon, method=method,
            reject_count=rejects[method], na_count=nas[method],
            replications=config.replications,
            rejection_rate=rejects[method] / valid if valid > 0 else None,
            lambda_theoretical=lam))
    return cells, tracer.spans


def replay_simulate(tracer, job, out):
    config = simulate.load_experiment_json(job["config"])
    methods = tuple(job["methods"])
    with tracer.span("simulate.run_experiment") as run:
        tasks = [(config, idx, n, m, eps, methods, run["id"])
                 for idx, n, m, eps in config.cells()]
        # The same pool type and hand-out order as simulate.run_experiment,
        # so the scheduling figures describe the program's own schedule.
        if job["threads"] == 1 or len(tasks) == 1:
            results = [replay_cell(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=job["threads"]) as pool:
                results = list(pool.map(replay_cell, tasks))
    cells = []
    for cell_results, spans in results:
        cells.extend(cell_results)
        tracer.spans.extend(spans)
    report = simulate.SimulationReport(master_seed=config.master_seed,
                                       alpha=config.alpha, cells=tuple(cells))
    with tracer.span("simulate.emit_report"):
        simulate.emit_report(report, out)
    return config


def measure_floor(tracer, config):
    """Raw numpy draws of the same size and parameters as each cell's
    ``sample_population`` calls: the sampling floor, timed once per cell."""
    stream = np.random.default_rng(0)
    for _, n, m, epsilon in config.cells():
        model = config.cell_model(n, epsilon)
        half = n // 2
        n_between = half * half
        n_within = n * (n - 1) // 2 - n_between
        for shifted in (False, True):
            within, between = model.params(shifted)
            with tracer.span("models.floor", draws=m * (n_within + n_between)):
                if model.family == "beta":
                    stream.beta(*within, size=m * n_within)
                    stream.beta(*between, size=m * n_between)
                else:
                    stream.random(m * (n_within + n_between))


def _load_group(tracer, directory):
    """``realdata.load_group``, one traced ``load_adjacency_csv`` per file."""
    paths = sorted(p for p in Path(directory).iterdir() if p.suffix == ".csv")
    sizes = [p.stat().st_size for p in paths]
    with tracer.span("realdata.load_group"):
        loaded = []
        for path, size in zip(paths, sizes):
            with tracer.span("graphs.load_adjacency_csv", bytes=size):
                loaded.append(graphs.load_adjacency_csv(path))
        return graphs.GraphSample(tuple(loaded))


def _repeated(tracer, job, sample_a, sample_b, plan, label):
    """``realdata.repeated_tests``: per method (summary, NA count), or None
    when every result of every method is NA."""
    per_method = {method: [] for method in job["methods"]}
    for rep in range(plan.repetitions):
        test = f"{label}:{rep}"
        with tracer.span("rng.substream", test=test):
            stream = rng.substream(plan.seed, rep)
        with tracer.span("realdata.equalize", test=test):
            eq_a, eq_b = realdata.equalize(sample_a, sample_b, plan.strategy, stream)
        with tracer.span("twosample.random_partition", test=test):
            partition = twosample.random_partition(eq_a.m, stream)
        for method, result in _run_methods(tracer, job, eq_a, eq_b, partition,
                                           test).items():
            per_method[method].append(result)
    if all(r.is_na for results in per_method.values() for r in results):
        return None
    out = {}
    for method, results in per_method.items():
        valid = [r.statistic for r in results if not r.is_na]
        summary = None
        if valid:
            with tracer.span("graphs.five_number_summary", test=label):
                summary = graphs.five_number_summary(valid)
        out[method] = (summary, len(results) - len(valid))
    return out


def _row(tau, method, summary, na_count):
    fields = ["NA"] * 5 if summary is None else [f"{v:.6g}" for v in summary.as_tuple()]
    return ["oversample_smaller", tau, method, *fields, str(na_count)]


def _binarize(tracer, sample, tau, label):
    binarized = []
    for graph in sample.graphs:
        with tracer.span("graphs.threshold_binarize", test=label):
            binarized.append(graphs.threshold_binarize(graph, tau))
    return graphs.GraphSample(tuple(binarized))


def replay_realdata(tracer, job, out):
    sample_a = _load_group(tracer, job["group_a"])
    sample_b = _load_group(tracer, job["group_b"])
    plan = realdata.ResamplingPlan(strategy="oversample_smaller",
                                   repetitions=job["reps"], seed=job["seed"])
    runs = _repeated(tracer, job, sample_a, sample_b, plan, "weighted")
    if runs is None:
        raise RuntimeError("every weighted repetition was NA")
    rows = [_row("", method, *runs[method]) for method in job["methods"]]
    for tau in job["taus"]:
        label = f"{tau:g}"
        # Rebinding bin_a and bin_b frees the previous threshold's graphs in
        # the program's order (see replay_cell).
        bin_a = _binarize(tracer, sample_a, tau, label)
        bin_b = _binarize(tracer, sample_b, tau, label)
        runs = _repeated(tracer, job, bin_a, bin_b, plan, label)
        for method in job["methods"]:
            summary, na_count = (None, plan.repetitions) if runs is None else runs[method]
            rows.append(_row(label, method, summary, na_count))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(graphtest.cli.REALDATA_HEADER)
        writer.writerows(rows)


def main(argv):
    job_path, report_out, spans_out = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    with tracer.span("replay") as root:
        if job["command"] == "simulate":
            config = replay_simulate(tracer, job, report_out)
        else:
            replay_realdata(tracer, job, report_out)
    if job["command"] == "simulate":
        measure_floor(tracer, config)
    Path(spans_out).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({"import_s": _IMPORT_END - _IMPORT_START,
                      "wall_s": root["end"] - root["start"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
