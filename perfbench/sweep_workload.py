"""sweep-ledger: Monte-Carlo campaigns recorded into a well-used run ledger.

Each campaign sweeps the ``htree-skew`` scenario over seeded draws of
root length and asymmetry with no kit attached, so every point extracts
by direct PEEC loop solves, simulates both netlists and appends one run
to the ledger, which set-up pre-seeds with 1,000 completed runs.  New
campaigns run on a pool of ``nproc`` workers for most of the measured
time; the identical campaigns are then re-issued, and every point must
be replayed from the ledger without a single solver call.

The traced run uses ``workers=1``: calls made inside forked workers are
invisible to wrappers installed in this process.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

import bench_common as bc

CAMPAIGN_POINTS = {"full": 12, "smoke": 2}
#: Share of ``--seconds`` spent issuing new campaigns; the rest re-issues.
COLD_SHARE = 0.7
MC_AXES = {"TOTAL_LENGTH": "uniform(3e-3,5e-3)",
           "ASYMMETRY": "uniform(1.2,1.8)"}


def campaign_spec(seed: int, index: int, points: int):
    from repro.scenarios.sweep import MonteCarloAxis, SweepSpec

    return SweepSpec(
        scenario="htree-skew",
        mc={name: MonteCarloAxis.parse(text) for name, text in MC_AXES.items()},
        samples=points,
        seed=seed * 1000 + index,
    )


def run_campaign(spec, ledger_dir: Path, workers: int):
    """One campaign; returns (wall seconds, CampaignReport)."""
    from repro.scenarios.ledger import RunLedger
    from repro.scenarios.sweep import SweepRunner

    runner = SweepRunner(spec, ledger=RunLedger(ledger_dir), workers=workers)
    t0 = time.perf_counter()
    report = runner.run()
    return time.perf_counter() - t0, report


def check_cold(report, points: int) -> None:
    bc.check(report.total == points and report.completed == points
             and report.failed_count == 0 and report.skipped_count == 0,
             f"new campaign: {report.completed}/{points} completed, "
             f"{report.failed_count} failed, {report.skipped_count} skipped")


def check_resume(report, points: int) -> None:
    bc.check(report.completed == points and report.skipped_count == points
             and report.failed_count == 0,
             f"re-issued campaign: {report.skipped_count}/{points} replayed, "
             f"{report.failed_count} failed")
    bc.check(report.solver_call_count == 0,
             f"re-issued campaign made {report.solver_call_count} solver calls")


def check_ledger(ledger_dir: Path, expected: int) -> None:
    from repro.scenarios.ledger import RunLedger

    rows = len(RunLedger(ledger_dir, create=False))
    bc.check(rows == expected,
             f"ledger holds {rows} runs, expected {expected}")


def _warm_up(work: Path) -> None:
    """One point in-process on a throwaway ledger: lazy imports, first calls.

    Pool workers fork from this process, so they inherit what it loaded.
    """
    _, report = run_campaign(campaign_spec(-1, 0, 1), work / "warmup", 1)
    check_cold(report, 1)


def _cold_and_resume(ctx, ledger_dir: Path, workers: int):
    """New campaigns for ``COLD_SHARE`` of the run (at least two), then
    re-issues of them for the rest."""
    points = CAMPAIGN_POINTS[ctx.size]
    cold: List[Tuple[float, object]] = []
    specs = []
    t_start = time.perf_counter()
    while (len(cold) < 2
           or time.perf_counter() - t_start < COLD_SHARE * ctx.seconds):
        spec = campaign_spec(ctx.seed, len(cold), points)
        ctx.attempted += points
        wall, report = run_campaign(spec, ledger_dir, workers)
        ctx.failed += report.failed_count
        check_cold(report, points)
        cold.append((wall, report))
        specs.append(spec)
    resumed: List[float] = []
    while (len(resumed) < len(specs)
           or time.perf_counter() - t_start < ctx.seconds):
        wall, report = run_campaign(specs[len(resumed) % len(specs)],
                                    ledger_dir, workers)
        check_resume(report, points)
        resumed.append(wall)
    return cold, resumed


def run_timed(ctx) -> None:
    rows = bc.LEDGER_SEED_ROWS[ctx.size]
    setup_times = []
    for rep in range(bc.SETUP_REPS[ctx.size]):
        ledger_dir = ctx.work / f"ledger{rep}"
        seconds = bc.spawn_setup_child(ctx.work / f"kit{rep}", ledger_dir,
                                       rows)
        setup_times.append(seconds)
    ctx.metric("setup_s", bc.median(setup_times))
    ctx.detail("setup_s_samples", setup_times)

    _warm_up(ctx.work)
    workers = bc.nproc()
    with bc.PoolPeakRss() as pool_rss:
        cold, resumed = _cold_and_resume(ctx, ledger_dir, workers)
    bc.check(workers == 1 or pool_rss.mb > 0,
             "no pool worker was seen while the campaigns ran")
    points = CAMPAIGN_POINTS[ctx.size]
    check_ledger(ledger_dir, rows + points * len(cold))

    point_walls = [row["wall"] for _, report in cold for row in report.points]
    value, pct = bc.tail(point_walls)
    cold_rate = len(point_walls) / sum(wall for wall, _ in cold)
    ctx.metric("op_p50_ms", bc.median(point_walls) * 1e3)
    ctx.metric("op_tail_ms", value * 1e3)
    ctx.metric("ops_per_s", cold_rate)
    ctx.metric("ok_share", (ctx.attempted - ctx.failed) / ctx.attempted)
    # The points (solves, transients, ledger records) run in the pool
    # workers; this process only warms up and collects results.
    ctx.metric("peak_rss_mb", pool_rss.mb if workers > 1
               else bc.peak_rss_mb())
    ctx.detail("sweep", {
        "peak_rss_mb_self": bc.peak_rss_mb(),
        "peak_rss_mb_workers": pool_rss.mb,
        "sweep_cold_pts_per_s": cold_rate,
        "sweep_resume_pts_per_s": bc.median([points / w for w in resumed]),
        "workers": workers, "points_per_campaign": points,
        "cold_campaigns": len(cold), "resumed_campaigns": len(resumed),
        "seeded_rows": rows, "tail_percentile": pct,
    })


def run_traced(ctx) -> None:
    from layers import LayerTracer
    from repro.telemetry import get_registry

    rows = bc.LEDGER_SEED_ROWS[ctx.size]
    points = CAMPAIGN_POINTS[ctx.size]
    setup = bc.setup_in_process(ctx.work / "kit")
    ledger_dir = ctx.work / "ledger"
    bc.seed_ledger(ledger_dir, rows)
    _warm_up(ctx.work)

    def one_pass(index: int):
        spec = campaign_spec(ctx.seed, index, points)
        ctx.attempted += points
        cold_wall, cold = run_campaign(spec, ledger_dir, 1)
        ctx.failed += cold.failed_count
        check_cold(cold, points)
        resume_wall, resumed = run_campaign(spec, ledger_dir, 1)
        check_resume(resumed, points)
        return cold_wall, cold, resume_wall

    # Untraced, traced, untraced (new campaigns each time); the traced
    # pass is compared with the last one, which is as warm as it is.
    one_pass(0)
    tracer = LayerTracer()
    registry = get_registry()
    start = registry.snapshot()
    with tracer.installed():
        cold_wall, cold, resume_wall = one_pass(1)
    delta = registry.snapshot().minus(start)
    untraced_cold, _, untraced_resume = one_pass(2)
    check_ledger(ledger_dir, rows + 3 * points)
    missing = tracer.require_calls((
        "scenarios.point", "scenarios.ledger_record", "scenarios.ledger_find",
        "scenarios.run_metadata", "peec.loop_solve", "peec.lp_assemble",
        "clocktree.extract", "circuit.lint", "circuit.factor",
        "circuit.transient"))
    bc.check(not missing, f"wrapped layers recorded no calls: {missing}")

    extra = {
        "scenarios.pool_idle_s": cold_wall - sum(r["wall"] for r in cold.points),
        "scenarios.resume_pts_per_s": points / untraced_resume,
    }
    metrics = bc.layer_metrics(tracer, delta, cold_wall + resume_wall,
                               untraced_cold + untraced_resume, setup, extra)
    bc.check(abs(tracer.covered_s() - tracer.root_s)
             <= 1e-6 * metrics["traced_wall_s"],
             "per-layer self times do not add up to the wrapped wall time")
    for name, value in metrics.items():
        ctx.metric(name, value)
    ctx.detail("path", "workers=1 (forked workers are invisible to wrappers)")
