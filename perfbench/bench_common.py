"""Shared pieces of the pipeline benchmark: paths, kit, statistics, set-up.

Every workload runs in a fresh process started by ``run.py``.  Set-up
(the cold design-kit build, plus server start or ledger preparation)
runs in further fresh processes spawned from here, so its time is
measured from a clean interpreter to "ready", the way a user pays it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for kits, ledgers and logs; deleted after every run.
WORK_ROOT = ROOT / ".perfbench-work"

#: The design kit every workload builds cold during set-up.  The loop
#: grid covers every segment length the workloads generate (8 um to
#: 8.2 mm) so no lookup extrapolates; the characterization frequency is
#: the significant frequency of the 50 ps buffer edge the extractor
#: queries (6.4 GHz).
KIT_WIDTHS_UM = (6.0, 8.0, 10.0, 12.0, 14.0)
KIT_LENGTHS_UM = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                  2048.0, 4096.0, 8192.0)
KIT_SPACINGS_UM = (0.5, 1.0, 1.5)
KIT_CAP_GRID = (80, 60)
BUFFER_RISE_S = 50e-12

#: Rows written into the ledger before a sweep workload starts.
LEDGER_SEED_ROWS = {"full": 1000, "smoke": 50}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"full": 2, "smoke": 1}

#: End-to-end metrics of an untraced run, each with its unit.  An
#: "operation" is one RC-vs-RLC comparison (skew-*), one ``/extract``
#: request (serve-mixed) or one new campaign point (sweep-ledger).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of a traced run, each with its unit.
PER_LAYER = (
    ("clocktree.extract_s", "s"),
    ("clocktree.segment_rlc_calls", "count"),
    ("clocktree.build_netlist_s", "s"),
    ("clocktree.measure_s", "s"),
    ("tables.lookup_s", "s"),
    ("tables.lookups", "count"),
    ("tables.extrapolated", "count"),
    ("circuit.lint_s", "s"),
    ("circuit.lint_inductors", "count"),
    ("circuit.assemble_s", "s"),
    ("circuit.factor_s", "s"),
    ("circuit.transient_s", "s"),
    ("circuit.steps", "count"),
    ("circuit.dense_systems", "count"),
    ("circuit.sparse_systems", "count"),
    ("circuit.dense_unknowns_max", "count"),
    ("peec.loop_solves", "count"),
    ("peec.loop_solve_s", "s"),
    ("peec.lp_assemble_s", "s"),
    ("peec.lp_pairs_evaluated", "count"),
    ("peec.lp_memo_hit_ratio", "ratio"),
    ("rc.capacitance_build_s", "s"),
    ("library.build_s", "s"),
    ("library.points_solved", "count"),
    ("library.pool_busy_ratio", "ratio"),
    ("library.attach_s", "s"),
    ("library.open_s", "s"),
    ("library.lp_pairs_evaluated", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("loadgen.lag_ms_max", "ms"),
    ("scenarios.ledger_record_s", "s"),
    ("scenarios.ledger_find_s", "s"),
    ("scenarios.run_metadata_s", "s"),
    ("scenarios.point_s", "s"),
    ("scenarios.pool_idle_s", "s"),
    ("scenarios.resume_pts_per_s", "pt/s"),
    ("trace_overhead_pct", "%"),
    ("untraced_s", "s"),
    ("traced_wall_s", "s"),
)


class CheckFailed(Exception):
    """An output check or cache-state invariant did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with *message* unless *condition*."""
    if not condition:
        raise CheckFailed(message)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def kit_frequency() -> float:
    """The frequency the extractor queries for the benchmark's buffer."""
    from repro.core.frequency import significant_frequency

    return significant_frequency(BUFFER_RISE_S)


def kit_config():
    """The CPW wire configuration of every benchmark tree and request."""
    from repro.experiments.htree_skew import default_htree

    return default_htree().config


def kit_jobs():
    """Characterization jobs of the benchmark kit (loop L/R + C)."""
    from repro.constants import um
    from repro.library import standard_clocktree_jobs

    return standard_clocktree_jobs(
        kit_config(),
        frequency=kit_frequency(),
        widths=[um(w) for w in KIT_WIDTHS_UM],
        lengths=[um(x) for x in KIT_LENGTHS_UM],
        spacings=[um(s) for s in KIT_SPACINGS_UM],
        capacitance_grid=KIT_CAP_GRID,
    )


def build_kit(kit_dir: Path, workers: int):
    """Build the kit cold into *kit_dir* with a *workers* process pool."""
    from repro.library import BuildRunner

    runner = BuildRunner(kit_dir, workers=workers, parallel=workers > 1)
    return runner.build(kit_jobs())


def check_kit_frequency(kit_dir: Path) -> None:
    """Check the kit's loop tables sit at the extractor's frequency.

    A kit characterized at another frequency gives the extractor no
    tables, and it then falls back to direct field solves silently.
    """
    from repro.library.store import open_library

    want = kit_frequency()
    found = [e.frequency for e in open_library(kit_dir, create=False).entries()
             if e.quantity == "loop_inductance"]
    check(bool(found), f"kit {kit_dir} has no loop-inductance table")
    check(all(f is not None and abs(f - want) <= 1e-9 * want for f in found),
          f"kit frequencies {found} differ from the extractor's {want}")


def seed_ledger(ledger_dir: Path, rows: int) -> None:
    """Fill a new run ledger with *rows* completed ``htree-skew`` runs.

    Written in the ledger's on-disk layout in one pass: recording the
    rows one at a time through :meth:`RunLedger.record` would cost
    seconds per hundred rows and swamp the set-up time being measured.
    """
    import hashlib

    from repro.ioutil import atomic_write_text
    from repro.scenarios.ledger import (
        LEDGER_SCHEMA_VERSION,
        LedgerEntry,
        RunLedger,
    )

    ledger = RunLedger(ledger_dir)
    check(len(ledger) == 0, f"ledger {ledger_dir} is not empty")
    entries = []
    for i in range(rows):
        run_key = hashlib.sha256(f"perfbench-seed-{i}".encode()).hexdigest()
        entry = LedgerEntry(
            run_id=f"{run_key[:12]}-01", run_key=run_key,
            scenario="htree-skew", status="completed", git_sha="seed",
            host="perfbench", started_at=1.0e9 + i, duration=0.4,
        )
        record = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "run_id": entry.run_id, "run_key": run_key,
            "scenario": entry.scenario, "status": entry.status,
            "error": None, "params": {"LEVELS": 2, "SEED_ROW": i},
            "kit_manifest_sha": "", "metrics": {"skew_rc_ps": 1.0},
            "duration": entry.duration, "started_at": entry.started_at,
            "meta": {"git_sha": "seed", "host": "perfbench"},
        }
        run_dir = ledger.run_dir(entry.run_id)
        run_dir.mkdir(parents=True)
        (run_dir / "run.json").write_text(json.dumps(record))
        entries.append(entry.to_dict())
    atomic_write_text(ledger.index_path, json.dumps(
        {"schema_version": LEDGER_SCHEMA_VERSION, "entries": entries},
        indent=1))
    check(len(ledger) == rows, "seeded ledger has the wrong length")


def build_stats_summary(stats, wall: float, workers: int) -> dict:
    """Library-layer numbers of one kit build, from its BuildStats."""
    chunks = stats.chunk_wall_times
    worker_metrics = stats.worker_metrics
    counters = dict(worker_metrics.counters) if worker_metrics else {}
    cap_s = sum(j.wall_time for j in stats.jobs if j.kind == "total_cap")
    return {
        "build_s": wall,
        "points_solved": stats.points_solved,
        "pool_busy_ratio": (sum(chunks) / (workers * wall)
                            if wall > 0 and workers > 0 else 0.0),
        "capacitance_build_s": cap_s,
        "counters": counters,
    }


# ----------------------------------------------------------------------
# set-up in fresh processes
# ----------------------------------------------------------------------
def spawn_setup_child(kit_dir: Path, ledger_dir: Optional[Path] = None,
                      ledger_rows: int = 0) -> float:
    """Run ``setup_child.py`` once; return its seconds to ready.

    The clock starts before the interpreter is spawned and stops when
    the child prints its READY line, so interpreter start and imports
    count, as they do for a user.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"),
           "--kit", str(kit_dir)]
    if ledger_dir is not None:
        cmd += ["--ledger", str(ledger_dir), "--ledger-rows", str(ledger_rows)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=str(ROOT))
    ready_at = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                ready_at = time.perf_counter()
    finally:
        proc.stdout.close()
        if ready_at is None:
            proc.terminate()
        code = proc.wait(timeout=120)
    check(code == 0 and ready_at is not None,
          f"set-up child failed with exit code {code}")
    return ready_at - t0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With so few samples that this
    percentile would not lie above the median, the maximum is returned
    as percentile 100 instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k <= (n - 1) / 2:
        return float(ordered[-1]), 100.0
    return float(ordered[k]), 100.0 * k / (n - 1)


def peak_rss_mb() -> float:
    """Peak resident set of this process [MB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process [MB] (Linux VmHWM)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


class PoolPeakRss:
    """Largest peak resident set of this process's pool workers [MB].

    While the ``with`` block runs, a thread reads the VmHWM of every
    live ``multiprocessing`` child (the pool workers) from ``/proc``
    (Linux) every 50 ms.  Other children are left out: set-up children
    have exited by then, and a ``subprocess`` child between fork and
    exec shares this process's memory and would report its peak.  A
    worker that exits between two reads loses at most its last 50 ms.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            for child in multiprocessing.active_children():
                try:
                    self.mb = max(self.mb, proc_peak_rss_mb(child.pid))
                except (OSError, CheckFailed):
                    pass  # exited since the list was taken

    def __enter__(self) -> "PoolPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def run_meta() -> dict:
    """Provenance recorded next to every result."""
    import numpy
    import scipy

    from repro.quality.regress import git_sha

    return {
        "cpu_count": nproc(),
        # A benchmark checkout need not be a git repository; do not let
        # git search the directories above it.
        "git_sha": git_sha() if (ROOT / ".git").exists() else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "host": platform.node(),
    }


class WorkDir:
    """A per-run scratch directory under :data:`WORK_ROOT`, always removed."""

    def __init__(self, name: str):
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def setup_in_process(kit_dir: Path) -> dict:
    """The traced run's set-up: one cold kit build in this process.

    Returns the library-layer numbers (build, pool, capacitance solve,
    attach).  The pool's workers run the field solves, so their counts
    come from the worker snapshots the build ships back.
    """
    from repro.clocktree.extractor import ClocktreeRLCExtractor

    workers = nproc()
    t0 = time.perf_counter()
    stats = build_kit(kit_dir, workers)
    summary = build_stats_summary(stats, time.perf_counter() - t0, workers)
    t1 = time.perf_counter()
    ClocktreeRLCExtractor(kit_config(), frequency=kit_frequency(),
                          library=kit_dir)
    summary["attach_s"] = time.perf_counter() - t1
    check_kit_frequency(kit_dir)
    return summary


def layer_metrics(tracer, delta, traced_wall: float, untraced_wall: float,
                  setup: dict, extra: Optional[dict] = None) -> dict:
    """Every per-layer metric of a traced run (0 where a layer was idle).

    *tracer* holds the wrappers' self times and counts, *delta* the
    registry counters moved during the traced pass, *setup* the
    library-layer numbers of the kit build; *extra* supplies the
    serve/sweep metrics only those workloads can compute.
    """
    from repro.telemetry import (
        LOOP_SOLVE,
        LP_MEMO_HIT,
        LP_MEMO_MISS,
        LP_PAIR_EVAL,
        SOLVER_FACTOR_DENSE,
        SOLVER_FACTOR_SPARSE,
        TABLE_LOOKUP_EXTRAPOLATED,
    )
    from repro.telemetry.registry import TRANSIENT_STEPS

    s, calls, values = tracer.self_s, tracer.calls, tracer.values
    counters = delta.counters
    memo_total = counters.get(LP_MEMO_HIT, 0) + counters.get(LP_MEMO_MISS, 0)
    build_counters = setup.get("counters", {})
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({
        "clocktree.extract_s": s["clocktree.extract"],
        "clocktree.segment_rlc_calls": calls["clocktree.extract"],
        "clocktree.build_netlist_s": s["clocktree.build_netlist"],
        "clocktree.measure_s": s["clocktree.measure"],
        "tables.lookup_s": s["tables.lookup"],
        "tables.lookups": calls["tables.lookup"],
        "tables.extrapolated": counters.get(TABLE_LOOKUP_EXTRAPOLATED, 0),
        "circuit.lint_s": s["circuit.lint"],
        "circuit.lint_inductors": values["circuit.lint_inductors"],
        "circuit.assemble_s": s["circuit.assemble"],
        "circuit.factor_s": s["circuit.factor"],
        "circuit.transient_s": s["circuit.transient"],
        "circuit.steps": counters.get(TRANSIENT_STEPS, 0),
        "circuit.dense_systems": counters.get(SOLVER_FACTOR_DENSE, 0),
        "circuit.sparse_systems": counters.get(SOLVER_FACTOR_SPARSE, 0),
        "circuit.dense_unknowns_max": values["circuit.dense_unknowns_max"],
        "peec.loop_solves": counters.get(LOOP_SOLVE, 0),
        "peec.loop_solve_s": s["peec.loop_solve"],
        "peec.lp_assemble_s": s["peec.lp_assemble"],
        "peec.lp_pairs_evaluated": counters.get(LP_PAIR_EVAL, 0),
        "peec.lp_memo_hit_ratio": (counters.get(LP_MEMO_HIT, 0) / memo_total
                                   if memo_total else 0.0),
        "rc.capacitance_build_s": setup["capacitance_build_s"],
        "library.build_s": setup["build_s"],
        "library.points_solved": setup["points_solved"],
        "library.pool_busy_ratio": setup["pool_busy_ratio"],
        "library.attach_s": setup["attach_s"],
        "library.open_s": s["library.open"],
        "library.lp_pairs_evaluated": build_counters.get(LP_PAIR_EVAL, 0),
        "scenarios.ledger_record_s": s["scenarios.ledger_record"],
        "scenarios.ledger_find_s": s["scenarios.ledger_find"],
        "scenarios.run_metadata_s": s["scenarios.run_metadata"],
        "scenarios.point_s": s["scenarios.point"],
        "trace_overhead_pct": (100.0 * (traced_wall - untraced_wall)
                               / untraced_wall),
        "untraced_s": traced_wall - tracer.covered_s(),
        "traced_wall_s": traced_wall,
    })
    out.update(extra or {})
    return {k: float(v) for k, v in out.items()}
