"""Tests for the shared worker pool and its chunk planner."""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtest import pool
from graphtest.errors import GraphTestError
from graphtest.pool import _plan, run, stream

from oracles import sorted_join


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


def _mark_and_wait(directory, unit, start, stop):
    """Leave a file named after the unit, then take a while."""
    (Path(directory) / str(unit)).touch()
    time.sleep(0.05)
    return unit


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
        """Units costing 1 and 3 per repetition are cut into chunks of two
        sizes and planned costliest first, and ``run`` joins each unit's
        chunks by ``start`` without sorting them."""
        chunks = _plan([1, 3], 7, workers)
        assert any(len({stop - start for u, start, stop in chunks if u == unit}) == 2
                   for unit in (0, 1))
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


@settings(max_examples=300, deadline=None)
@given(costs=st.lists(st.integers(1, 10**6), max_size=8), reps=st.integers(0, 600),
       workers=st.integers(1, 8))
def test_plan_cuts_each_unit_in_start_order(costs, reps, workers):
    """Every repetition is planned once; a unit's chunk sizes differ by at
    most one, the larger first; chunks are costliest first; and each unit's
    chunks come in ``start`` order, so ``run`` at one worker equals the
    sort-based join."""
    chunks = _plan(costs, reps, workers)
    assert sorted((unit, r) for unit, start, stop in chunks
                  for r in range(start, stop)) == [
        (unit, r) for unit in range(len(costs)) for r in range(reps)]
    keys = [(-(stop - start) * costs[unit], unit, start) for unit, start, stop in chunks]
    assert keys == sorted(keys)
    for unit in range(len(costs)):
        own = [(start, stop) for u, start, stop in chunks if u == unit]
        sizes = [stop - start for start, stop in own]
        assert bool(own) == (reps > 0)
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert [start for start, _ in own] == [0, *(stop for _, stop in own)][:len(own)]
    units = range(len(costs))
    assert run(_chunk, None, units, costs, reps, 1) == sorted_join(
        _chunk, None, units, costs, reps, 1)


class TestStream:
    """:func:`graphtest.pool.stream` yields each chunk's value in plan order,
    and stops every worker however its consumer ends."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_values_arrive_in_plan_order(self, workers):
        units = ["cheap", "dear"]
        chunks = _plan([1, 3], 7, workers)
        got = list(stream(_chunk, None, units, [1, 3], 7, workers))
        assert got == [(unit, start, stop, (units[unit], start, stop))
                       for unit, start, stop in chunks]
        assert multiprocessing.active_children() == []

    def test_in_process_chunks_run_as_consumed(self, tmp_path):
        chunks = stream(_mark_and_wait, tmp_path, range(4), [1] * 4, 1, 1)
        assert next(chunks)[3] == 0
        assert sorted(os.listdir(tmp_path)) == ["0"]
        chunks.close()
        assert sorted(os.listdir(tmp_path)) == ["0"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failure_in_plan_order_raises(self, workers):
        """Unit 5 costs most, so it is planned first and its failure wins
        over that of unit 1; the chunks planned before a failure are
        yielded first."""
        costs = [1, 1, 1, 1, 1, 3, 1]
        assert _plan(costs, 1, workers)[0] == (5, 0, 1)
        seen = []
        with pytest.raises(GraphTestError, match="task 5 failed"):
            for unit, _, _, _ in stream(_fail_at, (1, 5), range(7), costs, 1, workers):
                seen.append(unit)
        assert seen == []
        costs[5] = 1
        with pytest.raises(GraphTestError, match="task 1 failed"):
            for unit, _, _, _ in stream(_fail_at, (1, 5), range(7), costs, 1, workers):
                seen.append(unit)
        assert seen == [0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_consumer_error_cancels_pending_chunks(self, tmp_path, workers):
        """A consumer that raises at the first value leaves no worker behind,
        and the chunks that had not started never run."""
        units = range(40)

        def consume():
            for _ in stream(_mark_and_wait, tmp_path, units, [1] * 40, 1, workers):
                raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            consume()
        assert multiprocessing.active_children() == []
        ran = len(os.listdir(tmp_path))
        assert 1 <= ran < len(units) // 2
        time.sleep(0.2)
        assert len(os.listdir(tmp_path)) == ran
