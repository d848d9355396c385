"""Tests for the shared worker pool and its chunk planner."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from graphtest import pool
from graphtest.errors import GraphTestError
from graphtest.pool import map_tasks, plan


def _pid_and_square(_, x):
    return os.getpid(), x * x


def _shared_plus(base, x):
    return base + x


def _fail_at(_, x, bad):
    if x in bad:
        raise GraphTestError(f"task {x} failed")
    return x


class TestMapTasks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_task_order(self, workers):
        results = map_tasks(_pid_and_square, None, [(x,) for x in range(9)],
                            workers)
        assert [square for _, square in results] == [x * x for x in range(9)]

    def test_one_worker_or_one_task_runs_in_process(self):
        parent = os.getpid()
        for tasks, workers in (([(1,), (2,)], 1), ([(3,)], 4)):
            results = map_tasks(_pid_and_square, None, tasks, workers)
            assert {pid for pid, _ in results} == {parent}

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="counts forked worker processes")
    def test_workers_capped_by_tasks(self):
        pids = {pid for pid, _ in map_tasks(_pid_and_square, None, [(1,), (2,)], 8)}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_value_reaches_tasks(self, workers):
        assert map_tasks(_shared_plus, 10, [(1,), (2,), (3,)],
                         workers) == [11, 12, 13]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failure_in_order_raises_and_workers_are_joined(self, workers):
        with pytest.raises(GraphTestError, match="task 2 failed"):
            map_tasks(_fail_at, None, [(x, (2, 5)) for x in range(7)], workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            map_tasks(_pid_and_square, None, [(1,)], workers)

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert pool.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool.usable_cpus() == 1


class TestPlan:
    def test_equal_passes_cut_evenly_in_pass_order(self):
        """Five passes of 30 repetitions on two workers (a weighted pass and
        four thresholds): two chunks of 15 per pass, in (pass, start) order."""
        assert plan([1] * 5, 30, 2) == [(unit, start, start + 15)
                                         for unit in range(5)
                                         for start in (0, 15)]
