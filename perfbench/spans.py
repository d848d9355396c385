"""Trace spans kept in memory, and the per-layer metrics computed from them.

A span records its name, start, end, parent span and test id.  Times come
from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is one clock for
every process on the machine, so spans recorded in pool workers line up
with spans recorded in the process that submitted the work.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks of one process."""

    def __init__(self, parent: str | None = None):
        self.spans: list[dict] = []
        self._stack = [parent]
        self._prefix = f"{os.getpid()}:"

    @contextmanager
    def span(self, name: str, test: str | None = None, **counts):
        record = {"id": self._prefix + str(len(self.spans)), "name": name,
                  "parent": self._stack[-1], "test": test, **counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part of its interval that children cover.

    Children may overlap (cells running on several workers), so the covered
    part is the length of the union of the children's clipped intervals.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = duration(span) - covered
    return out


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of p99.9/p99/p90/p50 that has at
    least ten samples beyond it; the median when there are fewer than 20."""
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one replay, named after the program's modules.

    Layers a workload does not exercise report 0.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    selfs = self_times(spans)

    def busy(name):
        return sum(duration(s) for s in by_name[name])

    def total(name, key):
        return sum(s[key] for s in by_name[name])

    def per_call(name):
        durations = [duration(s) for s in by_name[name]]
        pct, value = tail(durations) if durations else (0.0, 0.0)
        return {f"{name}.calls": len(durations),
                f"{name}.busy_s": sum(durations),
                f"{name}.p50_ms": percentile(durations, 50) * 1e3 if durations else 0.0,
                f"{name}.tail_ms": value * 1e3,
                f"{name}.tail_pct": pct}

    out: dict[str, float] = {}
    sample = "models.sample_population"
    out.update(per_call(sample))
    draws = total(sample, "draws")
    out[f"{sample}.ns_per_draw"] = busy(sample) * 1e9 / draws if draws else 0.0
    floor_draws = total("models.floor", "draws")
    floor = busy("models.floor") * 1e9 / floor_draws if floor_draws else 0.0
    out["models.floor_ns_per_draw"] = floor
    out["models.floor_ratio"] = out[f"{sample}.ns_per_draw"] / floor if floor else 0.0

    kernel_names = [f"twosample.run_method.{m}" for m in ("tn", "tfro")]
    for name in kernel_names:
        out.update(per_call(name))
    edge_values = sum(total(name, "edge_values") for name in kernel_names)
    out["twosample.input_bytes"] = edge_values * 8
    out["twosample.ns_per_edge_value"] = (
        sum(busy(name) for name in kernel_names) * 1e9 / edge_values
        if edge_values else 0.0)
    out["twosample.random_partition.busy_s"] = busy("twosample.random_partition")
    out["twosample.na_count"] = sum(total(name, "na") for name in kernel_names)

    for name in ("rng.substream", "diagnostics.lambda",
                 "graphs.threshold_binarize", "realdata.equalize"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.busy_s"] = busy(name)

    cells = [duration(s) for s in by_name["simulate.cell"]]
    runs = by_name["simulate.run_experiment"]
    out["simulate.cell.busy_s"] = sum(cells)
    out["simulate.cell.self_s"] = sum(selfs[s["id"]] for s in by_name["simulate.cell"])
    out["simulate.critical_cell_s"] = max(cells, default=0.0)
    out["simulate.pool_efficiency"] = (
        sum(cells) / (workers * sum(duration(s) for s in runs)) if runs else 0.0)
    out["simulate.emit_report.busy_s"] = busy("simulate.emit_report")

    load = "graphs.load_adjacency_csv"
    out[f"{load}.calls"] = len(by_name[load])
    out[f"{load}.busy_s"] = busy(load)
    out[f"{load}.mb_per_s"] = (total(load, "bytes") / 1e6 / busy(load)
                               if by_name[load] else 0.0)
    out["graphs.five_number_summary.busy_s"] = busy("graphs.five_number_summary")
    out["realdata.load_group.busy_s"] = busy("realdata.load_group")
    out["realdata.load_group.self_s"] = sum(
        selfs[s["id"]] for s in by_name["realdata.load_group"])
    out["trace.spans"] = len(spans)
    return out
