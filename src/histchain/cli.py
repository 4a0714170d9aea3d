"""Command line entry points: run, audit, dump-chain, dump-historian."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attacks import run_scenario_a, run_scenario_b, run_scenario_c
from .audit import audit_directory
from .config import ConfigError, load_config
from .ledger import DumpFormatError
from .sim import Simulation

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histchain",
        description="Two-tank control-system simulator with a hash-chained "
                    "historian ledger and attack scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the simulation and write artifacts")
    run.add_argument("--seed", type=int, default=None, help="run seed (default 42)")
    run.add_argument("--minutes", type=int, default=10,
                     help="simulated minutes / intervals (default 10)")
    run.add_argument("--nodes", type=int, default=None,
                     help="number of storage nodes (default 6)")
    run.add_argument("--replication-factor", type=int, default=None,
                     help="copies per vector, origin included (default 3)")
    run.add_argument("--scenario", choices=["A", "B", "C"], default=None,
                     help="attack scenario to run instead of a clean loop")
    run.add_argument("--trace-wire", action="store_true",
                     help="dump every delivered frame as hex")
    run.add_argument("--config", type=Path, default=None,
                     help="flat key=value config file")
    run.add_argument("--out", type=Path, default=Path("artifacts"),
                     help="artifact directory (default ./artifacts)")

    audit = sub.add_parser("audit", help="re-verify artifacts from a prior run")
    audit.add_argument("artifacts", type=Path, help="artifact directory")

    dump_chain_cmd = sub.add_parser("dump-chain", help="print a run's chain dump")
    dump_chain_cmd.add_argument("artifacts", type=Path, nargs="?",
                                default=Path("artifacts"))

    dump_hist = sub.add_parser("dump-historian", help="print one node's records")
    dump_hist.add_argument("node", type=int)
    dump_hist.add_argument("artifacts", type=Path, nargs="?", default=Path("artifacts"))
    return parser


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.nodes is not None:
        overrides["n_storage_nodes"] = args.nodes
    if args.replication_factor is not None:
        overrides["replication_factor"] = args.replication_factor
    if args.trace_wire:
        overrides["trace_wire"] = True
    return overrides


def _cmd_run(args) -> int:
    overrides = _flag_overrides(args)
    cfg = load_config(args.config, **overrides)
    if args.scenario is None:
        sim = Simulation(cfg)
        sim.run(args.minutes)
        paths = sim.write_artifacts(args.out)
        alarms = len(sim.events.alarms())
        print(f"ran {args.minutes} intervals, chain length {len(sim.chain_module.chain)}, "
              f"{alarms} alarms; artifacts in {args.out}")
        return 0
    runner = {"A": run_scenario_a, "B": run_scenario_b, "C": run_scenario_c}[args.scenario]
    if args.config is None and not overrides:
        report = runner(outdir=args.out)  # scenario default seed
    else:
        report = runner(cfg, outdir=args.out)
    for assertion in report.assertions:
        status = "PASS" if assertion.passed else "FAIL"
        print(f"{assertion.name}: {status}" + (f" ({assertion.detail})" if assertion.detail else ""))
    print(f"scenario {report.scenario_id}: {'PASS' if report.passed else 'FAIL'}; "
          f"report in {args.out}/scenario_report.txt")
    return 0 if report.passed else 1


def _cmd_audit(args) -> int:
    report = audit_directory(args.artifacts)
    sys.stdout.write(report.to_text())
    if report.chain_issue is not None:
        print("audit: chain verification FAILED")
        return 1
    flagged = report.flagged()
    print(f"audit: {len(report.findings)} checks, {len(flagged)} flagged, "
          f"{len(report.uncovered)} uncovered records")
    return 0 if not flagged else 1


def _cmd_dump_chain(args) -> int:
    path = args.artifacts / "chain.txt"
    if not path.is_file():
        print(f"no chain dump at {path}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(path.read_text(encoding="utf-8"))
    return 0


def _cmd_dump_historian(args) -> int:
    path = args.artifacts / f"historian{args.node}.txt"
    if not path.is_file():
        print(f"no historian dump at {path}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(path.read_text(encoding="utf-8"))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "dump-chain":
            return _cmd_dump_chain(args)
        if args.command == "dump-historian":
            return _cmd_dump_historian(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, DumpFormatError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
