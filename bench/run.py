#!/usr/bin/env python3
"""histchain benchmark: run one workload closed loop and print its metrics.

    python3 bench/run.py --workload clean_loop --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
units. --trace 1 runs each unit twice with the same seed, untraced and then
traced, and reports the per-layer metrics. Units repeat until the next one
would overrun --seconds, and at least MIN_UNITS times. Both modes check every
operation. The last line of standard output is one JSON object; earlier
lines hold the run record and each metric by name with its unit.

End-to-end timings are scaled to a reference host speed. A shared host's
speed drifts by tens of percent within minutes, so a fixed stdlib-only
calibration loop runs between units (and between set-up starts), and each
time is multiplied by REFERENCE_CAL_S over the mean of the calibrations just
before and after it. The run record keeps the unscaled medians.

The program is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("clean_loop", "attack_storm", "offline_audit")
SETUP_REPS = 7
MIN_UNITS = 3
# Timings are reported at the speed where calibration_s() takes this long.
REFERENCE_CAL_S = 0.2
_CAL_FMT = "%Y-%m-%dT%H:%M"
_CAL_STAMPS = [datetime(2020, 12, 23, 17, 26) + timedelta(minutes=i) for i in range(200)]

# Entry points a traced unit of each workload must reach; a miss fails the run.
SIM_SPANS = {
    "storage.at_time", "storage.validate_cycle", "storage.register",
    "storage.handle_log", "storage.serve_replica", "ledger.verify_chain",
    "ledger.make_block", "envelope.seal", "envelope.open",
    "envelope.vector_digest", "envelope.parse_canonical", "wire.send",
    "wire.pump", "wire.round_trip", "minter.collect", "minter.close_interval",
    "plant.step", "plant.read_sensor", "plant.plc_control", "sim.tick_loop",
    "sim.write_artifacts",
}
AUDIT_SPANS = {
    "audit.audit_artifacts", "ledger.parse_chain_dump", "ledger.verify_chain",
    "storage.historian_load", "storage.at_time", "envelope.parse_canonical",
    "envelope.vector_digest",
}
REACH = {
    "clean_loop": SIM_SPANS | AUDIT_SPANS,
    "attack_storm": SIM_SPANS | {"storage.recover", "attacks.scenario"},
    "offline_audit": AUDIT_SPANS,
}

SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from histchain import SimConfig, Simulation
Simulation(SimConfig(seed={seed}))
if {setdir!r}:
    import synth
    synth.generate({seed}, {minutes}).write({setdir!r})
"""


def import_program():
    if not (SRC / "histchain" / "__init__.py").is_file():
        sys.exit(f"bench: no histchain sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import histchain
    if not Path(histchain.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: histchain imported from {histchain.__file__}, not {SRC}")


def calibration_s() -> float:
    """Host time of a fixed stdlib-only loop shaped like the program's hot
    paths: integer arithmetic, string keys, dict stores, SHA-256 and minute
    formatting. It calls nothing in src/."""
    start = perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    table = {}
    for i in range(40_000):
        key = f"{i % 97}|{i}"
        table[key] = hashlib.sha256(key.encode()).hexdigest()
    for j in range(250):
        target = _CAL_STAMPS[j % len(_CAL_STAMPS)].strftime(_CAL_FMT)
        sum(1 for other in _CAL_STAMPS if other.strftime(_CAL_FMT) == target)
    return perf_counter() - start


def at_reference_speed(times: list[float], calibrations: list[float]) -> list[float]:
    """Scale each time by REFERENCE_CAL_S over the mean of the calibrations
    taken just before and just after it."""
    return [t * 2 * REFERENCE_CAL_S / (before + after)
            for t, before, after in zip(times, calibrations, calibrations[1:])]


def measure_setup(seed: int, setdir: Path | None) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-ups (import, first Simulation, and for
    offline_audit generating and writing the input set), with calibrations."""
    import workloads
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), seed=seed,
                             setdir=str(setdir) if setdir else "",
                             minutes=workloads.AUDIT_MINUTES)
    times, calibrations = [], [calibration_s()]
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(perf_counter() - start)
        calibrations.append(calibration_s())
    return times, calibrations


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_record(args, n_units: int, raw: dict) -> dict:
    import cryptography
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "histchain").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "cryptography": cryptography.__version__,
        "git_commit": commit, "source_sha256": source.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": n_units, "setup_reps": SETUP_REPS,
        "reference_cal_s": REFERENCE_CAL_S, **raw,
    }


def make_unit_fn(workload: str, seed: int, workdir: Path):
    """Returns the unit function of a unit seed, and the problems (None when
    fine) of operations checked before timing: the fingerprint pins."""
    import synth
    import workloads
    if workload == "offline_audit":
        aset = synth.generate(seed, workloads.AUDIT_MINUTES)
        setdir = aset.write(workdir / "set")
        return (lambda _: workloads.audit_unit(aset, setdir)), []
    pin_problem = workloads.check_pin(workload, workdir / "pin")
    unit = workloads.clean_unit if workload == "clean_loop" else workloads.attack_unit
    return (lambda s: unit(s, workdir / "unit")), [pin_problem]


def end_to_end(units, walls: list[float], setup_s: list[float],
               attempted: int, failed: int) -> dict:
    """Timings are medians of reference-speed times (see at_reference_speed)."""
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "sim_min_per_s": statistics.median(u.sim_minutes / w for u, w in zip(units, walls)),
        "audit_checks_per_s": statistics.median(u.checks / w for u, w in zip(units, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(names, tracer, plain, traced, calibrations) -> dict:
    n = len(traced)
    calls, self_ns, counts = tracer.calls(), tracer.self_ns(), tracer.counts
    intervals = [s * 1e3 for u in plain for s in u.interval_s]
    scaled = at_reference_speed([u.wall_s for pair in zip(plain, traced) for u in pair],
                                calibrations)
    derived = {
        "ledger.reverify_ratio": (counts["ledger.blocks_verified"]
                                  / max(len(tracer.distinct_blocks), 1)),
        "minter.indexes_per_block": counts["minter.indexes"] / max(counts["minter.blocks"], 1),
        "sim.interval_ms_p50": percentile(intervals, 50),
        "sim.interval_ms_p90": percentile(intervals, 90),
        "attacks.detect_intervals_max": max(
            (d for u in plain + traced for d in u.detect_delays), default=0),
        "trace_overhead": statistics.median(
            t / p for p, t in zip(scaled[0::2], scaled[1::2])),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls[name.removesuffix(".calls")] / n
        elif name.endswith(".self_ms"):
            out[name] = self_ns[name.removesuffix(".self_ms")] / n / 1e6
        else:
            out[name] = counts[name] / n
    return out


def run_workload(args) -> int:
    import_program()
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = None
        if not args.trace:
            setdir = workdir / "setup" if args.workload == "offline_audit" else None
            setup = measure_setup(args.seed, setdir)
        unit_fn, pre_checks = make_unit_fn(args.workload, args.seed, workdir)
        seeds = workloads.unit_seeds(args.workload, args.seed)
        deadline = perf_counter() + args.seconds
        plain, traced = [], []
        tracer = tracing.Tracer()
        round_s = 0.0
        gc.collect()
        calibrations = [calibration_s()]
        # Stop before a round would overrun the budget, after MIN_UNITS rounds.
        while len(plain) < MIN_UNITS or perf_counter() + round_s <= deadline:
            seed = next(seeds)
            began = perf_counter()
            plain.append(unit_fn(seed))
            gc.collect()
            calibrations.append(calibration_s())
            if args.trace:
                with tracer:
                    traced.append(unit_fn(seed))
                gc.collect()
                calibrations.append(calibration_s())
            round_s = perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = plain + traced
    problems = [p for p in pre_checks if p]
    attempted = len(pre_checks) + sum(u.attempted for u in units)
    failed = len(problems) + sum(u.failed for u in units)
    notes = problems + [note for u in units for note in u.failures]
    if args.trace:
        missed = sorted(REACH[args.workload] - set(tracer.calls()))
        notes += [f"traced units never reached {name}" for name in missed]
        metrics = per_layer([m["name"] for m in declared], tracer, plain, traced, calibrations)
    else:
        missed = []
        walls = at_reference_speed([u.wall_s for u in plain], calibrations)
        metrics = end_to_end(plain, walls, at_reference_speed(*setup), attempted, failed)

    units_spec = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units_spec):
        sys.exit(f"bench: computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    for note in notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)
    raw = {"calibration_s_median": statistics.median(calibrations)}
    if not args.trace:
        raw["raw_wall_s_median"] = statistics.median(u.wall_s for u in plain)
        raw["raw_setup_s_median"] = statistics.median(setup[0])
    print(json.dumps({"run_record": run_record(args, len(plain), raw)}))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units_spec[name]}")
    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_spec[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one at a time, both modes."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                summary["correct"] = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the default-seed artifact hashes and exit")
    args = parser.parse_args()
    if args.write_pins:
        import_program()
        import workloads
        workdir = ROOT / ".bench_work" / f"pins-{os.getpid()}"
        try:
            workloads.write_pins(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
