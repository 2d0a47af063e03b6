"""One benchmark set-up in a fresh interpreter; prints ``READY`` when done.

Builds the design kit cold (empty Lp memo: this process has solved
nothing yet) with an ``nproc`` process pool, attaches an extractor to it
and checks that its tables sit at the extractor's frequency, then -- for
the sweep workload -- prepares the pre-seeded run ledger.  The parent measures
from spawn to the READY line.

Run by ``bench_common.spawn_setup_child``; standalone use::

    PYTHONPATH=src python3 perfbench/setup_child.py --kit .perfbench-work/kit
"""

from __future__ import annotations

import argparse
from pathlib import Path

import bench_common as bc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kit", required=True, type=Path)
    parser.add_argument("--ledger", type=Path, default=None)
    parser.add_argument("--ledger-rows", type=int, default=0)
    args = parser.parse_args()

    from repro.clocktree.extractor import ClocktreeRLCExtractor

    bc.build_kit(args.kit, bc.nproc())
    extractor = ClocktreeRLCExtractor(
        bc.kit_config(), frequency=bc.kit_frequency(), library=args.kit)
    bc.check(extractor.inductance_table is not None
             and extractor.resistance_table is not None
             and extractor.capacitance_table is not None,
             "the extractor found no tables in the fresh kit")
    bc.check_kit_frequency(args.kit)
    if args.ledger is not None:
        bc.seed_ledger(args.ledger, args.ledger_rows)
    print("READY", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
