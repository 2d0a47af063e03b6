"""The one process-pool primitive (``repro.parallel``) and its two callers.

Covers the paths the runners' own tests do not reach: the fallback when
the pool cannot start, error propagation with cancellation of pending
tasks, and the fork hygiene that keeps worker spans apart from the
caller's trace while leaving the in-process path's trace alone.
"""

import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from repro import parallel
from repro.library.jobs import CharacterizationJob, JobOutput
from repro.library.runner import BuildRunner
from repro.library.store import TableLibrary
from repro.parallel import run_tasks
from repro.scenarios import RunLedger, Scenario, SweepSpec, SweepRunner
from repro.scenarios import register, unregister
from repro.telemetry import get_registry, get_tracer, span

TICK = "stub_parallel_tick"

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="pool tasks defined in a test module need the fork start method")


@dataclass(frozen=True)
class TickJob(CharacterizationJob):
    """A cheap picklable job whose every solve ticks a counter."""

    widths: Tuple[float, ...] = (1.0, 2.0, 3.0)
    lengths: Tuple[float, ...] = (10.0, 20.0)
    frequency: float = 1e9
    layer: str = "M1"

    kind = "tick"

    def axis_names(self):
        return ("width", "length")

    def axes(self):
        return (self.widths, self.lengths)

    def outputs(self):
        return (JobOutput("tick_l", "loop_inductance"),)

    def builder_spec(self):
        return {"builder": "parallel-tick"}

    def table_metadata(self):
        return {"frequency": self.frequency}

    def solve_point(self, point):
        get_registry().inc(TICK)
        width, length = point
        return (width * length,)


def _toy_run(params, session):
    get_registry().inc("loop_solve")
    return {"y": params["X"] * 3.0}


def _task(kind: str, marker: str = ""):
    """Pool task: ``boom`` raises, ``mark`` sleeps then leaves a file."""
    if kind == "boom":
        raise RuntimeError("task failed")
    if kind == "mark":
        time.sleep(0.2)
        Path(marker).touch()
    with span("task"):
        get_registry().inc(TICK)
    return kind


def _no_pool(*args, **kwargs):
    raise OSError("no semaphores here")


@pytest.fixture(autouse=True)
def clean_telemetry():
    get_registry().reset()
    get_tracer().reset()
    yield
    get_registry().reset()
    get_tracer().reset()


@pytest.fixture
def toy_scenario():
    register(Scenario(name="test-parallel-toy", figure="test",
                      description="toy", defaults={"X": 1.0},
                      run=_toy_run))
    try:
        yield
    finally:
        unregister("test-parallel-toy")


class TestPoolStartFallback:
    def test_build_falls_back_in_process(self, tmp_path, monkeypatch):
        job = TickJob()
        key = job.table_key("tick_l")
        pooled = BuildRunner(tmp_path / "pool", workers=2,
                             chunk_size=2).build([job])
        assert pooled.worker_metrics.counter(TICK) == 6
        assert get_registry().counter_value(TICK) == 0

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        stats = BuildRunner(tmp_path / "fallback", workers=2,
                            chunk_size=2).build([job])
        np.testing.assert_array_equal(
            TableLibrary(tmp_path / "pool", create=False).get(key).values,
            TableLibrary(tmp_path / "fallback",
                         create=False).get(key).values)
        assert stats.points_solved == 6
        assert len(stats.chunk_wall_times) == 3
        # The chunks ran here: counted once, in this process, and never
        # again as worker metrics.
        assert get_registry().counter_value(TICK) == 6
        assert stats.worker_metrics is None
        assert stats.worker_spans == []
        assert stats.jobs[0].combined_metrics().counter(TICK) == 6

    def test_sweep_falls_back_in_process(self, toy_scenario, tmp_path,
                                         monkeypatch):
        spec = SweepSpec("test-parallel-toy", grid={"X": [1.0, 2.0, 3.0]})

        def rows(report):
            return [(r["params"], r["status"], r["metrics"])
                    for r in report.points]

        pooled = SweepRunner(spec, ledger=RunLedger(tmp_path / "a"),
                             workers=2).run()
        assert get_registry().counter_value("loop_solve") == 0
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        fallback = SweepRunner(spec, ledger=RunLedger(tmp_path / "b"),
                               workers=2).run()
        assert rows(fallback) == rows(pooled)
        assert fallback.completed == 3
        assert pooled.solver_call_count == fallback.solver_call_count == 3
        assert get_registry().counter_value("loop_solve") == 3
        assert all(r["wall"] >= 0.0 for r in fallback.points)


class TestErrors:
    def test_task_error_propagates_and_cancels_pending(self, tmp_path):
        n = 12
        markers = [str(tmp_path / f"m{i}") for i in range(n)]
        folded = []
        with pytest.raises(RuntimeError, match="task failed"):
            run_tasks(_task, [("boom",)] + [("mark", m) for m in markers],
                      workers=2, fold=folded.append)
        # Only tasks already handed to a worker finish; the rest were
        # cancelled (without cancellation the pool shutdown runs all).
        started = sum(Path(m).exists() for m in markers)
        assert started < n

    def test_in_process_error_stops_remaining_tasks(self, tmp_path):
        marker = tmp_path / "after"
        with pytest.raises(RuntimeError, match="task failed"):
            run_tasks(_task, [("boom",), ("mark", str(marker))],
                      workers=1, fold=lambda result: None)
        assert not marker.exists()

    def test_fold_error_propagates(self):
        def fold(result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tasks(_task, [("ok",)] * 4, workers=2, fold=fold)


class TestForkHygiene:
    def test_in_process_path_keeps_caller_trace(self):
        tracer = get_tracer()
        results = []
        with span("finished-root"):
            pass
        with span("caller") as caller:
            run_tasks(_task, [("ok",), ("ok",)], workers=1,
                      fold=results.append)
            assert tracer.current is caller
        roots = tracer.drain()
        assert [r.name for r in roots] == ["finished-root", "caller"]
        assert [c.name for c in roots[1].children] == ["task", "task"]
        assert [r.value for r in results] == ["ok", "ok"]
        assert all(not r.in_worker and r.spans == [] for r in results)
        assert [r.metrics.counter(TICK) for r in results] == [1, 1]
        assert get_registry().counter_value(TICK) == 2

    def test_pool_task_ships_only_its_own_spans(self):
        tracer = get_tracer()
        results = []
        with span("finished-root"):
            pass
        with span("caller") as caller:
            run_tasks(_task, [("ok",), ("ok",)], workers=2,
                      fold=results.append)
            assert tracer.current is caller
        # Each worker dropped the inherited open span and finished root.
        for result in results:
            assert result.in_worker
            assert [s["name"] for s in result.spans] == ["task"]
            assert result.metrics.counter(TICK) == 1
        assert get_registry().counter_value(TICK) == 0
        assert [r.name for r in tracer.drain()] == ["finished-root",
                                                    "caller"]
