"""Chip-scale transient economics: the sparse MNA path (PR 7).

The sparse backend exists for one reason: a dense MNA matrix stops
being *feasible* a few thousand unknowns in (10^5 squared doubles is
80 GB before the first flop), while an extracted clocktree's matrix
holds a handful of entries per row.  These benchmarks measure that
claim on constant-RLC H-tree netlists and record it into
``BENCH_transient.json`` at the repo root:

1. **Crossover curve** (CI): dense vs sparse wall time for a 100-step
   transient at ladder sizes spanning the ``auto`` cutoff; sparse must
   win by >= 2x at the largest CI size.
2. **Sparse throughput** (CI): steps/sec on a ~12.5k-unknown tree --
   far beyond where dense is sensible, cheap for sparse.
3. **Chip scale** (``-m slow``): a >= 10^5-unknown H-tree integrated
   200 steps in single-digit seconds.
4. **Dense frontier** (``-m slow``): at the largest size dense can
   still stomach, sparse beats it >= 20x.

The netlists come from the *real* extraction flow -- the segment RLC
hook is overridden with constant per-length values so no field solves
run and the benchmark times the circuit layer alone.
"""

import time
from pathlib import Path

import pytest
from conftest import record_bench, report

from repro.circuit.backend import DENSE_SIZE_CUTOFF
from repro.circuit.transient import transient_analysis
from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor, SegmentRLC
from repro.clocktree.htree import HTree
from repro.constants import GHz, fF, ps, um

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_transient.json"

#: 200 steps, the paper-style skew-simulation horizon.
CHIP_STEPS = 200


class ConstantRLCExtractor(ClocktreeRLCExtractor):
    """Extraction flow with fixed per-length RLC (no field solves).

    Values are in the ballpark of the paper's coplanar waveguide
    (25 ohm/mm, 0.5 nH/mm, 0.1 pF/mm) -- the netlist topology and
    matrix structure are real, only the table lookups are shorted out.
    """

    def segment_rlc_for(self, segment):
        mm = segment.length / 1e-3
        return SegmentRLC(
            length=segment.length,
            resistance=25.0 * mm,
            inductance=0.5e-9 * mm,
            capacitance=0.1e-12 * mm,
        )


def _assembled(levels: int, sections: int):
    """Assembled RLC netlist of a *levels*-deep H-tree."""
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    buffer = ClockBuffer(
        drive_resistance=15.0, input_capacitance=fF(30),
        supply=1.8, rise_time=ps(50),
    )
    htree = HTree.generate(
        levels=levels, root_length=um(4000), config=config,
        buffer=buffer, sink_capacitance=fF(50),
    )
    extractor = ConstantRLCExtractor(config, frequency=GHz(6.4))
    netlist = extractor.build_netlist(
        htree, include_inductance=True, sections=sections,
    )
    return netlist.circuit.assemble()


def _time_transient(assembled, solver: str, steps: int) -> float:
    t0 = time.perf_counter()
    transient_analysis(
        assembled, t_stop=ps(1) * steps, dt=ps(1),
        diagnostics=False, solver=solver,
    )
    return time.perf_counter() - t0


def _record(update: dict) -> dict:
    return record_bench(RESULTS_PATH, update)


def test_sparse_vs_dense_crossover():
    """Dense vs sparse wall time across the auto-selection cutoff."""
    steps = 100
    rows, records = [], []
    for levels, sections in [(3, 4), (4, 8), (5, 8)]:
        assembled = _assembled(levels, sections)
        t_dense = _time_transient(assembled, "dense", steps)
        t_sparse = _time_transient(assembled, "sparse", steps)
        speedup = t_dense / t_sparse if t_sparse > 0 else float("inf")
        records.append({
            "unknowns": assembled.size,
            "nnz": assembled.stamps.nnz,
            "dense_seconds": round(t_dense, 4),
            "sparse_seconds": round(t_sparse, 4),
            "speedup": round(speedup, 2),
        })
        rows.append([
            str(assembled.size), f"{t_dense:.3f} s", f"{t_sparse:.3f} s",
            f"{speedup:.1f}x",
        ])
    report(
        f"dense vs sparse, {steps}-step transient "
        f"(auto cutoff at {DENSE_SIZE_CUTOFF} unknowns)",
        rows,
        header=["unknowns", "dense", "sparse", "sparse speedup"],
    )
    _record({"crossover": {
        "steps": steps,
        "points": records,
        "largest_speedup": records[-1]["speedup"],
    }})
    assert records[-1]["speedup"] >= 2.0, (
        f"sparse only {records[-1]['speedup']:.1f}x dense at "
        f"{records[-1]['unknowns']} unknowns"
    )


def test_sparse_throughput_ci_scale():
    """Sparse steps/sec on a tree already far beyond sensible dense."""
    assembled = _assembled(7, 16)
    seconds = _time_transient(assembled, "sparse", CHIP_STEPS)
    steps_per_second = CHIP_STEPS / seconds
    report(
        f"sparse transient at {assembled.size} unknowns",
        [
            ["unknowns", str(assembled.size)],
            ["structural nnz", str(assembled.stamps.nnz)],
            [f"{CHIP_STEPS} steps", f"{seconds:.3f} s"],
            ["throughput", f"{steps_per_second:.0f} steps/s"],
        ],
    )
    _record({"scale_ci": {
        "unknowns": assembled.size,
        "nnz": assembled.stamps.nnz,
        "steps": CHIP_STEPS,
        "seconds": round(seconds, 4),
        "steps_per_second": round(steps_per_second, 1),
    }})
    assert steps_per_second > 20.0, (
        f"sparse transient crawled: {steps_per_second:.1f} steps/s "
        f"at {assembled.size} unknowns"
    )


@pytest.mark.slow
def test_chip_scale_transient():
    """>= 10^5 unknowns, 200 steps, single-digit seconds via sparse."""
    assembled = _assembled(10, 16)
    assert assembled.size >= 100_000
    seconds = _time_transient(assembled, "sparse", CHIP_STEPS)
    steps_per_second = CHIP_STEPS / seconds
    report(
        f"chip-scale sparse transient ({assembled.size} unknowns)",
        [
            ["unknowns", str(assembled.size)],
            ["structural nnz", str(assembled.stamps.nnz)],
            [f"{CHIP_STEPS} steps", f"{seconds:.2f} s"],
            ["throughput", f"{steps_per_second:.0f} steps/s"],
        ],
    )
    _record({"chip": {
        "unknowns": assembled.size,
        "nnz": assembled.stamps.nnz,
        "steps": CHIP_STEPS,
        "seconds": round(seconds, 3),
        "steps_per_second": round(steps_per_second, 1),
    }})
    assert seconds < 30.0, (
        f"chip-scale transient took {seconds:.1f} s; the sparse path "
        f"must keep 10^5 unknowns in interactive territory"
    )


@pytest.mark.slow
def test_sparse_beats_dense_20x_at_dense_frontier():
    """At the largest dense-feasible size, sparse wins >= 20x."""
    assembled = _assembled(6, 16)  # ~6.2k unknowns: minutes of dense LU
    t_dense = _time_transient(assembled, "dense", CHIP_STEPS)
    t_sparse = _time_transient(assembled, "sparse", CHIP_STEPS)
    ratio = t_dense / t_sparse if t_sparse > 0 else float("inf")
    report(
        f"dense frontier ({assembled.size} unknowns, {CHIP_STEPS} steps)",
        [
            ["dense", f"{t_dense:.2f} s", "1.0x"],
            ["sparse", f"{t_sparse:.3f} s", f"{ratio:.0f}x"],
        ],
        header=["backend", "wall time", "speedup"],
    )
    _record({"dense_frontier": {
        "unknowns": assembled.size,
        "steps": CHIP_STEPS,
        "dense_seconds": round(t_dense, 3),
        "sparse_seconds": round(t_sparse, 4),
        "speedup": round(ratio, 1),
    }})
    assert ratio >= 20.0, (
        f"sparse only {ratio:.1f}x dense at {assembled.size} unknowns"
    )
