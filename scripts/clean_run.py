#!/usr/bin/env python3
"""Clean closed-loop run followed by an offline audit of its artifacts.

Prints per-interval summaries (levels band, block sizes), then re-verifies the
written chain and historian dumps without touching the simulation state.
"""

import argparse
import sys
from pathlib import Path

from histchain.audit import audit_directory
from histchain.config import SimConfig
from histchain.sim import Simulation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--minutes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--outdir", type=Path, default=Path("artifacts/clean"))
    args = parser.parse_args(argv)

    sim = Simulation(SimConfig(seed=args.seed))
    sim.run(args.minutes)
    sim.write_artifacts(args.outdir)

    chain = sim.chain_module.chain
    print(f"ran {args.minutes} intervals, seed {args.seed}")
    print(f"chain: {len(chain)} blocks (genesis included)")
    for pos, block in enumerate(chain.blocks[1:], start=1):
        print(f"  block {pos}: {len(block.indexes)} indexes, "
              f"hash {block.block_hash.hex[:16]}..")
    for i, node in sim.nodes.items():
        print(f"historian{i}: {len(node.historian)} records")
    print(f"alarms: {len(sim.events.alarms())}")

    report = audit_directory(args.outdir)
    print(f"offline audit: {len(report.findings)} checks, {report.flagged_count} flagged, "
          f"{len(report.uncovered)} uncovered")
    if not report.all_intact:
        print("AUDIT FAILED")
        return 1
    print(f"artifacts in {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
