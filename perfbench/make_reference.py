"""Regenerate ``reference.json``: the skews every skew workload must match.

Builds the benchmark kit, runs the RC-vs-RLC comparison on every tree
the skew workloads can draw (each level x root length x asymmetry) and
stores both skews.  Run from the repository root when the kit or the
tree grid changes on purpose::

    python3 perfbench/make_reference.py

It refuses to write a tree whose skew discrepancy is not above the
paper's 10 %, since the workloads check that claim on every tree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench_common as bc


def main() -> int:
    sys.path.insert(0, str(bc.SRC))
    import skew_workload as sw

    levels = sorted({sw.WARMUP_LEVEL} | {
        n for sizes in sw.LEVELS.values() for n in sizes.values()})
    skews = {}
    with tempfile.TemporaryDirectory(dir=str(bc.ROOT)) as tmp:
        kit = Path(tmp) / "kit"
        bc.build_kit(kit, bc.nproc())
        for level in levels:
            for root_um in sw.ROOT_LENGTHS_UM:
                for asymmetry in sw.ASYMMETRIES:
                    seconds, result = sw.compare(level, root_um, asymmetry, kit)
                    key = sw.reference_key(level, root_um, asymmetry)
                    gap = result.skew_discrepancy_percent
                    print(f"{key:>14}: rc {result.rc_skew:.6e} s  "
                          f"rlc {result.rlc_skew:.6e} s  gap {gap:5.2f} %  "
                          f"({seconds:.1f} s)", flush=True)
                    if gap <= sw.MIN_DISCREPANCY_PERCENT:
                        print(f"tree {key} does not show the > 10 % gap",
                              file=sys.stderr)
                        return 1
                    skews[key] = {"rc_skew_s": result.rc_skew,
                                  "rlc_skew_s": result.rlc_skew}
                    del result
    sw.REFERENCE_PATH.write_text(json.dumps({"skew": skews}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
