"""Pipeline benchmark: kit -> table lookup -> netlist -> lint -> MNA -> measure.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skew-deep --seed 1 --seconds 24 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``skew-deep`` / ``skew-mid`` -- RC-vs-RLC H-tree skew comparisons on
  seeded level-8 / level-7 trees against a warm kit;
* ``serve-mixed`` -- an open-loop seeded ``/extract`` stream against a
  ``repro serve`` subprocess, half of the requests repeats;
* ``sweep-ledger`` -- seeded Monte-Carlo ``htree-skew`` campaigns into a
  ledger pre-seeded with 1,000 runs, then re-issued (resume).

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that attributes time to the
program's layers (see ``layers.py``).  ``--size smoke`` runs a seconds-
long version of the same code path and checks.

Every run ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; earlier lines give per-metric details and provenance.  The
exit code is non-zero when an output check or a cache-state invariant
fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from typing import Dict

import bench_common as bc

WORKLOADS = ("skew-deep", "skew-mid", "serve-mixed", "sweep-ledger")


class Context:
    """What a workload gets: its inputs, and where it puts results."""

    def __init__(self, args: argparse.Namespace, work):
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.size: str = args.size
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, object] = {}

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def detail(self, name: str, value: object) -> None:
        self.details[name] = value


def _workload_module(name: str):
    if name.startswith("skew-"):
        import skew_workload as module
    elif name == "serve-mixed":
        import serve_workload as module
    else:
        import sweep_workload as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (bc.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {bc.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bc.SRC))
    # Terminated from outside: unwind, so the daemon is stopped and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    units = dict(bc.PER_LAYER if args.trace else bc.END_TO_END)
    with bc.WorkDir(args.workload) as work:
        ctx = Context(args, work)
        module = _workload_module(args.workload)
        correct = True
        try:
            (module.run_traced if args.trace else module.run_timed)(ctx)
        except bc.CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 -- any crash is a failed run
            correct = False
            traceback.print_exc()
        missing = sorted(set(units) - set(ctx.metrics))
        if correct and missing:
            correct = False
            print(f"CHECK FAILED: metrics not measured: {missing}",
                  file=sys.stderr)

    ctx.details["meta"] = bc.run_meta()
    ctx.details["workload"] = args.workload
    ctx.details["size"] = args.size
    ctx.details["trace"] = args.trace
    print("detail " + json.dumps(ctx.details, sort_keys=True, default=str))
    for name in units:
        if name in ctx.metrics:
            print(f"metric {name} = {ctx.metrics[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed if ctx.attempted else 1,
        "metrics": {name: {"value": ctx.metrics[name], "unit": units[name]}
                    for name in units if name in ctx.metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
