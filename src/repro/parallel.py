"""The one process-pool primitive: fan tasks out, fold results back.

Both places that fan work out -- the library build (one chunk of grid
points per task, :mod:`repro.library.runner`) and sweep campaigns (one
scenario point per task, :mod:`repro.scenarios.sweep`) -- go through
:func:`run_tasks`.  It owns what every such fan-out needs:

* **Fork hygiene.**  A forked worker inherits the parent's completed
  span roots and, when the fork happened inside an open span, its
  open-span stack.  Each pool task drops both before it starts, so the
  spans it ships back are exactly its own work.
* **Telemetry shipping.**  Counters tick in whichever process does the
  work.  Each task measures the registry *delta* over its own run and,
  in a pool worker, drains its span trees; both ride back on the
  :class:`TaskResult`.  The caller decides where to fold them -- the
  parent registry is never touched, so "this process performed zero
  solves" assertions keep meaning exactly that.
* **Fold loop.**  Every task is submitted up front; results are handed
  to ``fold`` as they land (``FIRST_COMPLETED``).  If a task or the
  fold raises, every still-pending task is cancelled and the error
  propagates.
* **Fallback.**  ``workers <= 1``, or a pool that cannot start (no
  ``fork``/semaphores in a constrained environment), runs the same tasks
  in-process, in order.  In-process tasks leave the caller's tracer
  alone: their spans nest under whatever span the caller has open.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Sequence

from repro.telemetry.registry import MetricsSnapshot, get_registry
from repro.telemetry.spans import get_tracer

__all__ = ["TaskResult", "run_tasks"]


@dataclass(frozen=True)
class TaskResult:
    """One finished task: its return value plus what the run measured."""

    value: Any
    #: Wall seconds of the task body.
    wall_time: float
    #: Registry delta accumulated while the task ran.
    metrics: MetricsSnapshot
    #: True when a pool worker ran the task.  In-process, the task's
    #: counters already ticked in the caller's registry.
    in_worker: bool
    #: Span trees the task produced in a pool worker (serialized dicts);
    #: empty in-process, where the spans stay in the caller's tracer.
    spans: List[dict] = field(default_factory=list)


def _measure(fn: Callable[..., Any], args: Sequence[Any],
             in_worker: bool) -> TaskResult:
    registry = get_registry()
    tracer = get_tracer()
    if in_worker:
        tracer.clear_stack()
        tracer.reset()
    start = registry.snapshot()
    t0 = time.perf_counter()
    value = fn(*args)
    wall = time.perf_counter() - t0
    return TaskResult(
        value=value,
        wall_time=wall,
        metrics=registry.snapshot().minus(start),
        in_worker=in_worker,
        spans=[sp.to_dict() for sp in tracer.drain()] if in_worker else [],
    )


def _pool_task(fn: Callable[..., Any], args: Sequence[Any]) -> TaskResult:
    """Module-level pool entry point (picklable)."""
    return _measure(fn, args, in_worker=True)


def run_tasks(
    fn: Callable[..., Any],
    arg_tuples: Iterable[Sequence[Any]],
    *,
    workers: int,
    fold: Callable[[TaskResult], None],
) -> None:
    """Run ``fn(*args)`` for every tuple, calling ``fold`` on each result.

    *fn* must be a module-level (picklable) function.  With
    ``workers > 1`` the tasks run on a process pool of that size and
    fold in completion order; otherwise -- or when the pool cannot
    start -- they run in-process and fold in input order.
    """
    executor = None
    if workers > 1:
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):
            pass  # no pool in this environment: run in-process
    if executor is None:
        for args in arg_tuples:
            fold(_measure(fn, args, in_worker=False))
        return
    with executor:
        pending = {executor.submit(_pool_task, fn, args)
                   for args in arg_tuples}
        try:
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    fold(future.result())
        except BaseException:
            for future in pending:
                future.cancel()
            raise
