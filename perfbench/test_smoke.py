"""Smoke tests of the benchmark itself: the same code path at toy size.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_common as bc  # noqa: E402
from layers import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace), "--size", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(workload, trace, seconds=2.0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(bc.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(bc.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("skew-mid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    value, pct = bc.tail(values)
    assert value == 90 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 89 / 99)
    assert bc.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wrong_skew_fails_the_reference_check():
    import skew_workload as sw

    class Side:
        health = type("H", (), {"clean": True})()

    class Fake:
        rc_skew, rlc_skew = 1.0e-11, 1.2e-11
        skew_discrepancy_percent = 16.7
        comparison = type("C", (), {"rc": Side(), "rlc": Side()})()
        htree = type("T", (), {"num_sinks": 4})()

    key = sw.reference_key(2, 4500.0, 1.5)
    good = {key: {"rc_skew_s": 1.0e-11, "rlc_skew_s": 1.2e-11}}
    sw.check_result(Fake(), 2, 4500.0, 1.5, good)
    bad = {key: {"rc_skew_s": 1.0e-11, "rlc_skew_s": 1.3e-11}}
    with pytest.raises(bc.CheckFailed):
        sw.check_result(Fake(), 2, 4500.0, 1.5, bad)


def test_tracer_patches_import_sites_and_splits_self_time():
    import repro.circuit.transient as transient_mod
    import repro.clocktree.skew as skew_mod

    original = skew_mod.transient_analysis
    tracer = LayerTracer()
    with tracer.installed():
        assert skew_mod.transient_analysis is not original
        assert transient_mod.transient_analysis is skew_mod.transient_analysis
        from repro.circuit.netlist import Circuit

        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1.0)
        circuit.add_capacitor("C1", "b", "0", 1e-12)
        skew_mod.transient_analysis(circuit, t_stop=1e-11, dt=1e-12)
    assert skew_mod.transient_analysis is original
    assert tracer.calls["circuit.transient"] == 1
    assert tracer.calls["circuit.factor"] >= 1
    assert tracer.calls["circuit.assemble"] == 1
    assert tracer.covered_s() == pytest.approx(tracer.root_s)
