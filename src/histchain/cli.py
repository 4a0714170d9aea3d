"""Command line entry points: run, audit, dump-chain, dump-historian."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .attacks import SCENARIOS
from .audit import audit_directory
from .config import ConfigError, SimConfig, fmt_minute, load_config
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

    # A flag that sets a SimConfig field has it as dest and defaults to None.
    run = sub.add_parser("run", help="run the simulation and write artifacts")
    run.add_argument("--seed", type=int, default=None, help="run seed (default 42)")
    run.add_argument("--minutes", type=int, default=None,
                     help="simulated minutes / intervals of a clean run (default 10, "
                          "at least 1); a scenario runs its own fixed length")
    run.add_argument("--nodes", dest="n_storage_nodes", metavar="NODES", type=int,
                     default=None, help="number of storage nodes (default 6)")
    run.add_argument("--replication-factor", type=int, default=None,
                     help="copies per vector, origin included (default 3)")
    run.add_argument("--scenario", choices=list(SCENARIOS), default=None,
                     help="attack scenario to run instead of a clean loop")
    run.add_argument("--trace-wire", action="store_const", const=True, default=None,
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


def _cmd_run(args) -> int:
    if args.scenario is not None and args.minutes is not None:
        raise ConfigError("--minutes does not apply to --scenario, "
                          "which runs its own fixed length")
    if args.minutes is not None and args.minutes < 1:
        raise ConfigError(f"--minutes must be at least 1, got {args.minutes}")
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)
                 if getattr(args, f.name, None) is not None}
    if args.scenario is not None:
        runner, minutes, seed = SCENARIOS[args.scenario]
        # A scenario's own seed, unless --seed or --config names one.
        if args.seed is None and args.config is None:
            overrides["seed"] = seed
    else:
        minutes = 10 if args.minutes is None else args.minutes
    cfg = load_config(args.config, **overrides)
    try:
        cfg.interval_start(minutes - 1)
    except OverflowError:
        raise ConfigError(f"start_time {fmt_minute(cfg.start_time)} leaves no room for "
                          f"a run of {minutes} intervals before year 10000") from None
    if args.scenario is None:
        sim = Simulation(cfg)
        sim.run(minutes)
        sim.write_artifacts(args.out)
        alarms = len(sim.events.alarms())
        print(f"ran {minutes} intervals, chain length {len(sim.chain_module.chain)}, "
              f"{alarms} alarms; artifacts in {args.out}")
        return 0
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
    print(f"audit: {len(report.findings)} checks, {report.flagged_count} flagged, "
          f"{len(report.uncovered)} uncovered records")
    return 0 if report.all_intact else 1


def _print_artifact(path: Path) -> int:
    if not path.is_file():
        print(f"no dump at {path}", file=sys.stderr)
        return USAGE_ERROR
    # The file's own bytes: no decoding to fail and no line ends translated.
    sys.stdout.flush()
    sys.stdout.buffer.write(path.read_bytes())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "audit":
            code = _cmd_audit(args)
        elif args.command == "dump-chain":
            code = _print_artifact(args.artifacts / "chain.txt")
        else:
            code = _print_artifact(args.artifacts / f"historian{args.node}.txt")
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader went away; the artifact is fine. Point stdout at devnull
        # so the interpreter's flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, DumpFormatError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
