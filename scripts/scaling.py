#!/usr/bin/env python3
"""Scaling record: wall time, peak RSS and event count of one seeded run, and
the time to audit its artifacts, as simulated minutes grow.

    python3 scripts/scaling.py                        # m = 10, 160, 640, 1440
    python3 scripts/scaling.py --minutes 10 160 --out /tmp/scaling.json

Each run of `Simulation(SimConfig(seed=42)).run(m)` is made in a fresh Python
process, so one run's heap never inflates the next one's peak RSS. `wall_s`
covers `run` alone: no import, no set-up, no artifact writing. The process
then writes the artifacts to a temporary directory, and `audit_s` is the time
`audit_directory` takes on them.

Every size is run REPEATS times, the sizes interleaved (all sizes once, then
again), so a drift of the host's speed spreads over every size instead of
landing on one. A row records the median `wall_s` and `audit_s` with their
[min, max] over the repeats, and the median peak RSS. The host block names
the `cryptography` version too, since its X25519 and Ed25519 calls are most of
every run's time. The table goes to BENCH_scaling.json at the repo root unless
--out says otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import cryptography

import histchain

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_MINUTES = (10, 160, 640, 1440)
SEED = 42
REPEATS = 3

CHILD_CODE = """\
import json, resource, sys, tempfile
from time import perf_counter
from histchain.audit import audit_directory
from histchain.config import SimConfig
from histchain.sim import Simulation
sim = Simulation(SimConfig(seed={seed}))
start = perf_counter()
sim.run({minutes})
wall = perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with tempfile.TemporaryDirectory() as outdir:
    sim.write_artifacts(outdir)
    start = perf_counter()
    audit_directory(outdir)
    audit = perf_counter() - start
json.dump({{"minutes": {minutes}, "wall_s": round(wall, 3), "audit_s": round(audit, 4),
           "peak_rss_mb": round(peak_kb / 1024, 1), "events": len(sim.events)}},
          sys.stdout)
"""


def measure(minutes: int) -> dict:
    """One run of `minutes` intervals in a child interpreter."""
    env = dict(os.environ)
    src = str(Path(histchain.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD_CODE.format(seed=SEED, minutes=minutes)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def summarize(minutes: int, rows: list[dict]) -> dict:
    """One size's row: the median of each time with its [min, max], and the
    median peak RSS; every run of a size logs the same events."""
    (events,) = {row["events"] for row in rows}
    summary = {"minutes": minutes}
    for key in ("wall_s", "audit_s"):
        values = [row[key] for row in rows]
        summary[key] = statistics.median(values)
        summary[f"{key}_range"] = [min(values), max(values)]
    summary["peak_rss_mb"] = statistics.median(row["peak_rss_mb"] for row in rows)
    summary["events"] = events
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--minutes", type=int, nargs="+", default=list(DEFAULT_MINUTES))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    args = parser.parse_args(argv)

    samples = {minutes: [] for minutes in args.minutes}
    for repeat in range(REPEATS):
        for minutes in args.minutes:
            row = measure(minutes)
            print(f"m={minutes} ({repeat + 1}/{REPEATS}): {row['wall_s']} s, "
                  f"{row['peak_rss_mb']} MB peak RSS, {row['events']} events, "
                  f"audit {row['audit_s']} s", flush=True)
            samples[minutes].append(row)
    runs = [summarize(minutes, rows) for minutes, rows in samples.items()]
    record = {
        "run": f"Simulation(SimConfig(seed={SEED})).run(m), {REPEATS} fresh processes "
               "per m, sizes interleaved; each time is the median [min, max] of its "
               "runs; audit_s: audit_directory on that run's artifacts",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "cryptography": cryptography.__version__},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
