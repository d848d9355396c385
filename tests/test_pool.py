"""Tests for the shared worker pool and its chunk planner."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from graphtest import pool
from graphtest.errors import GraphTestError
from graphtest.pool import _plan, run


def _pid_and_square(_, x, start, stop):
    return os.getpid(), x * x


def _shared_plus(base, x, start, stop):
    return base + x


def _fail_at(bad, x, start, stop):
    if x in bad:
        raise GraphTestError(f"task {x} failed")
    return x


def _chunk(_, unit, start, stop):
    return unit, start, stop


def _never_called(*args):
    raise AssertionError("no chunk to run")


class TestMapTasks:
    """:func:`graphtest.pool.run` maps its chunks onto worker processes; a
    unit run once (``reps == 1``) is one chunk, one task."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_task_order(self, workers):
        results = run(_pid_and_square, None, range(9), [1] * 9, 1, workers)
        assert [square for [(_, square)] in results] == [x * x for x in range(9)]

    def test_one_worker_or_one_task_runs_in_process(self):
        parent = os.getpid()
        for units, workers in (([1, 2], 1), ([3], 4)):
            results = run(_pid_and_square, None, units, [1] * len(units), 1,
                          workers)
            assert {pid for [(pid, _)] in results} == {parent}

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="counts forked worker processes")
    def test_workers_capped_by_tasks(self):
        pids = {pid for [(pid, _)] in run(_pid_and_square, None, [1, 2], [1, 1],
                                          1, 8)}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_value_reaches_tasks(self, workers):
        assert run(_shared_plus, 10, [1, 2, 3], [1, 1, 1], 1,
                   workers) == [[11], [12], [13]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failure_in_order_raises_and_workers_are_joined(self, workers):
        with pytest.raises(GraphTestError, match="task 2 failed"):
            run(_fail_at, (2, 5), range(7), [1] * 7, 1, workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run(_pid_and_square, None, [1], [1], 1, workers)

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert pool.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool.usable_cpus() == 1


class TestRun:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_unit_chunks_come_back_in_start_order(self, workers):
        """Units costing 1 and 3 per repetition are cut unevenly and planned
        costliest first, yet each unit's chunks come back by ``start``."""
        chunks = _plan([1, 3], 7, workers)
        assert chunks != sorted(chunks)
        results = run(_chunk, None, ["cheap", "dear"], [1, 3], 7, workers)
        assert [{name for name, _, _ in done} for done in results] == [
            {"cheap"}, {"dear"}]
        assert [(unit, start, stop) for unit, done in enumerate(results)
                for _, start, stop in done] == sorted(chunks)
        for done in results:
            assert done[0][1] == 0 and done[-1][2] == 7
            assert all(a[2] == b[1] for a, b in zip(done, done[1:]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_repetitions_gives_empty_lists(self, workers):
        assert run(_never_called, None, ["a", "b"], [1, 1], 0, workers) == [[], []]
        assert run(_never_called, None, [], [], 0, workers) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unit_objects_reach_fn_unchanged(self, workers):
        units = [("a", 1.5), {"key": [1, 2]}, None]
        results = run(_chunk, None, units, [1, 1, 1], 2, workers)
        for unit, chunks in zip(units, results):
            assert [got for got, _, _ in chunks] == [unit] * len(chunks)
            assert all(type(got) is type(unit) for got, _, _ in chunks)


class TestPlan:
    def test_equal_passes_cut_evenly_in_pass_order(self):
        """Five passes of 30 repetitions on two workers (a weighted pass and
        four thresholds): two chunks of 15 per pass, in (pass, start) order."""
        assert _plan([1] * 5, 30, 2) == [(unit, start, start + 15)
                                          for unit in range(5)
                                          for start in (0, 15)]
