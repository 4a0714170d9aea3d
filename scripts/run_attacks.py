#!/usr/bin/env python3
"""Run all three adversary scenarios and print their reports.

Artifacts (event logs, chain dumps, historian dumps, scenario reports) land in
one subdirectory per scenario under --outdir.
"""

import argparse
import sys
from pathlib import Path

from histchain.attacks import run_scenario_a, run_scenario_b, run_scenario_c


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("artifacts/attacks"))
    args = parser.parse_args(argv)

    runners = [
        ("A_historian_tamper", run_scenario_a),
        ("B_mitm_plc_storage", run_scenario_b),
        ("B_mitm_passive", lambda **kw: run_scenario_b(passive=True, **kw)),
        ("C_mitm_storage_chain", run_scenario_c),
    ]
    all_passed = True
    for name, runner in runners:
        outdir = args.outdir / name
        report = runner(outdir=outdir)
        all_passed &= report.passed
        print(f"=== {report.scenario_id} (seed {report.seed}): "
              f"{'PASS' if report.passed else 'FAIL'}")
        for assertion in report.assertions:
            mark = "ok " if assertion.passed else "FAIL"
            detail = f"  [{assertion.detail}]" if assertion.detail else ""
            print(f"  {mark} {assertion.name}{detail}")
        for key, value in report.notes:
            print(f"      {key}: {value}")
        alarms = [line for line in report.event_lines if "\tALARM\t" in line]
        print(f"      alarms raised: {len(alarms)}; artifacts: {outdir}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
