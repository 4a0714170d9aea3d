"""The three benchmark workloads, each cut into units of fixed work.

A run repeats its workload's unit, closed loop, until its time budget is
spent; every unit takes its own seed drawn from the workload seed.

* clean_loop: one Simulation.run(CLEAN_MINUTES), interval by interval, then
  write_artifacts. The chain grows every interval, so the validator cycle
  (verify_chain plus one Historian.at_time per held index) dominates.
* attack_storm: EPISODES_PER_BATCH short episodes that rotate clean, MITM and
  at-rest attacks, then scenarios A, B and C once each. Chains stay short, so
  sealing and opening envelopes dominate, and only this workload drives the
  rejection, coverage-gap and recovery paths.
* offline_audit: audit_directory over a synthetic AUDIT_MINUTES-minute set
  with seeded edits. This is the independent oracle, and it calls at_time
  quadratically.

Correctness is counted per operation; see each unit for what one operation is.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from time import perf_counter

import synth
from histchain import attacks, audit
from histchain import events as ev
from histchain.config import SimConfig, fmt_minute
from histchain.sim import PLC_SENSOR_NAMES, PLC_TARGET_NODE, Simulation
from histchain.wire import INDEX, MEASUREMENT

DEFAULT_SEED = 42
CLEAN_MINUTES = 60
PIN_CLEAN_MINUTES = 20
EPISODES_PER_BATCH = 30
ROTATION = ("clean", "mitm_plc", "at_rest", "mitm_chain")
EPISODE_INTERVALS = 2 * len(ROTATION)
AUDIT_MINUTES = 240

PINS_PATH = Path(__file__).with_name("pins.json")
PINNED_FILES = ("chain", "historian")
SENSOR_OF_ORIGIN = {int(node.removeprefix("node")): PLC_SENSOR_NAMES[plc]
                    for plc, node in PLC_TARGET_NODE.items()}


@dataclass
class Unit:
    """What one unit did, and how many of its operations failed."""

    wall_s: float
    sim_minutes: int
    checks: int
    interval_s: list[float] = field(default_factory=list)
    detect_delays: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def unit_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(31)


def run_intervals(sim: Simulation, n: int, before=None, after=None) -> list[float]:
    """Closed loop: one Simulation.run(1) call per interval, each timed."""
    latencies = []
    for _ in range(n):
        start = perf_counter()
        sim.run(1, before, after)
        latencies.append(perf_counter() - start)
    return latencies


def validator_duties(sim: Simulation) -> tuple[int, int]:
    """(index checks over every cycle run so far, index checks in the last cycle).

    Each cycle, every holder re-checks every index of the chain that lists it,
    so a block minted at interval j is checked in intervals j .. end.
    """
    total = last = 0
    for block in sim.chain_module.chain.blocks[1:]:
        interval = (block.minted_at - sim.cfg.start_time) // timedelta(minutes=1)
        holders = sum(len(ix.replica_ids) for ix in block.indexes)
        total += holders * (sim.intervals_run - interval)
        last += holders
    return total, last


def alarm_intervals(sim: Simulation) -> dict[int, list[ev.EventRecord]]:
    by_interval: dict[int, list] = {}
    for record in sim.events.alarms():
        by_interval.setdefault(record.tick // sim.cfg.interval_ticks, []).append(record)
    return by_interval


def artifact_digests(paths: dict[str, Path]) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in sorted(paths.items()) if key.startswith(PINNED_FILES)}


# -- clean_loop ---------------------------------------------------------------


def clean_unit(seed: int, workdir: Path) -> Unit:
    sim = Simulation(SimConfig(seed=seed))
    start = perf_counter()
    latencies = run_intervals(sim, CLEAN_MINUTES)
    sim.write_artifacts(workdir)
    wall = perf_counter() - start

    checks, last_cycle = validator_duties(sim)
    unit = Unit(wall, CLEAN_MINUTES, checks, latencies)
    alarms = alarm_intervals(sim)
    minted = Counter(block.minted_at for block in sim.chain_module.chain.blocks[1:])
    for k in range(CLEAN_MINUTES):
        unit.op(k not in alarms and minted[sim.interval_ts(k)] == 1,
                f"clean_loop seed {seed} interval {k}: alarm or no single block")
    report = audit.audit_directory(workdir)
    unit.op(report.all_intact and len(report.findings) == last_cycle,
            f"clean_loop seed {seed} audit: {len(report.flagged())} flagged, "
            f"{len(report.findings)} checks for {last_cycle} duties")
    return unit


def clean_pin_artifacts(workdir: Path) -> dict[str, str]:
    sim = Simulation(SimConfig(seed=DEFAULT_SEED))
    sim.run(PIN_CLEAN_MINUTES)
    return artifact_digests(sim.write_artifacts(workdir))


# -- attack_storm -------------------------------------------------------------


@dataclass
class Tamper:
    interval: int
    node_id: int
    key: tuple[str, str]
    digest_hex: str
    original: tuple[int, ...]


def tamper_covered_record(sim: Simulation, rng: random.Random, interval: int) -> Tamper:
    """At-rest edit of a record whose digest the ledger lists with this node as holder.

    A vector whose index never reached the ledger has no digest to check
    against, so by design no edit of it is detected; such records are skipped.
    """
    held: dict[int, list] = {}
    for block in sim.chain_module.chain.blocks[1:]:
        for ix in block.indexes:
            for node_id in ix.replica_ids:
                held.setdefault(node_id, []).append(ix)
    node_id = rng.choice(sorted(held))
    ix = rng.choice(held[node_id])
    key = (SENSOR_OF_ORIGIN[ix.replica_ids[0]], fmt_minute(ix.captured_at))
    historian = sim.historian(node_id)
    original = historian.get(key).values
    forged = list(original)
    forged[rng.randrange(len(forged))] += 1 + rng.randrange(5)
    historian.tamper(key, forged)
    return Tamper(interval, node_id, key, ix.vector_digest.hex, original)


def attack_episode(seed: int):
    """EPISODE_INTERVALS intervals rotating through ROTATION; returns (sim, tampers, latencies)."""
    sim = Simulation(SimConfig(seed=seed, trace_wire=True))
    rng = random.Random(seed)
    handles: list = []
    tampers: list[Tamper] = []

    def before(sim_, k):
        kind = ROTATION[k % len(ROTATION)]
        if kind == "mitm_plc":
            handles.append(sim_.install_interceptor(
                "plc1", "node1", attacks.flip_body_bytes(MEASUREMENT)))
        elif kind == "mitm_chain":
            handles.append(sim_.install_interceptor(
                "node1", "chain", attacks.flip_body_bytes(INDEX)))

    def after(sim_, k):
        while handles:
            sim_.remove_interceptor(handles.pop())
        if ROTATION[k % len(ROTATION)] == "at_rest":
            tampers.append(tamper_covered_record(sim_, rng, k))

    latencies = run_intervals(sim, EPISODE_INTERVALS, before, after)
    return sim, tampers, latencies


def first_alarm(alarms, start: int, end: int, actor: str, code: str, needle: str = ""):
    """First interval in [start, end) holding the alarm, or None."""
    for k in range(start, end):
        if any(r.actor == actor and r.code == code and needle in r.detail
               for r in alarms.get(k, ())):
            return k
    return None


def expected_alarms(kind: str, k: int, tamper_at: dict[int, Tamper]):
    """(actor, code, detail needle, allowed delay) of each alarm the attack of
    interval k must raise: MITM is caught at once, an at-rest edit by the next
    validator cycle."""
    if kind == "mitm_plc":
        return [("node1", ev.DIGEST_MISMATCH, "", 0)]
    if kind == "mitm_chain":
        return [("chain", ev.INDEX_REJECTED, "", 0), ("node1", ev.COVERAGE_GAP, "", 0)]
    if kind == "at_rest":
        t = tamper_at[k]
        return [(f"node{t.node_id}", ev.FDI_ALARM, t.digest_hex, 1)]
    return []


def recovered_after_alarm(sim: Simulation, t: Tamper) -> bool:
    """FDI_ALARM for the edited digest, then RECOVERED of that record, and the
    original values are back in the store."""
    node = f"node{t.node_id}"
    alarmed = False
    for r in sim.events.records:
        if r.actor != node:
            continue
        if r.code == ev.FDI_ALARM and t.digest_hex in r.detail:
            alarmed = True
        elif alarmed and r.code == ev.RECOVERED and f"{t.key[0]}@{t.key[1]} " in r.detail:
            restored = sim.historian(t.node_id).get(t.key)
            return restored is not None and restored.values == t.original
    return False


def check_episode(unit: Unit, seed: int, sim: Simulation, tampers: list[Tamper]):
    """One operation per interval: its attack, if any, is detected within the
    allowed delay, and the interval raises exactly the alarms expected of it."""
    alarms = alarm_intervals(sim)
    tamper_at = {t.interval: t for t in tampers}
    n = sim.intervals_run
    for k in range(n):
        kind = ROTATION[k % len(ROTATION)]
        ok = True
        expected = Counter()
        for actor, code, needle, limit in expected_alarms(kind, k, tamper_at):
            at = first_alarm(alarms, k, n, actor, code, needle)
            if at is None or at - k > limit:
                ok = False
            else:
                unit.detect_delays.append(at - k)
                expected[(actor, code)] += at == k
        if k - 1 in tamper_at:
            expected[(f"node{tamper_at[k - 1].node_id}", ev.FDI_ALARM)] += 1
        if kind == "at_rest":
            ok = ok and recovered_after_alarm(sim, tamper_at[k])
        actual = Counter((r.actor, r.code) for r in alarms.get(k, ()))
        ok = ok and +actual == +expected
        unit.op(ok, f"attack_storm episode seed {seed} interval {k} ({kind}): "
                    f"alarms {dict(actual)}, expected {dict(+expected)}")


def attack_unit(seed: int, workdir: Path) -> Unit:
    episode_seeds = unit_seeds("attack_storm.episode", seed)
    start = perf_counter()
    episodes = [(s, *attack_episode(s))
                for s in (next(episode_seeds) for _ in range(EPISODES_PER_BATCH))]
    reports = [attacks.run_scenario_a(outdir=workdir / "A"),
               attacks.run_scenario_b(outdir=workdir / "B"),
               attacks.run_scenario_c(outdir=workdir / "C")]
    wall = perf_counter() - start

    unit = Unit(wall, 0, 0)
    for s, sim, tampers, latencies in episodes:
        unit.sim_minutes += sim.intervals_run
        unit.checks += validator_duties(sim)[0]
        unit.interval_s.extend(latencies)
        check_episode(unit, s, sim, tampers)
    for report in reports:
        unit.sim_minutes += report.sim.intervals_run
        unit.op(report.passed, f"scenario {report.scenario_id} failed:\n{report.to_text()}")
    return unit


def attack_pin_artifacts(workdir: Path) -> dict[str, str]:
    sim, _, _ = attack_episode(DEFAULT_SEED)
    return artifact_digests(sim.write_artifacts(workdir))


# -- offline_audit ------------------------------------------------------------


def audit_unit(aset: synth.ArtifactSet, setdir: Path) -> Unit:
    """One operation per ledger index: every holder's verdict must match the
    generator's ground truth."""
    start = perf_counter()
    report = audit.audit_directory(setdir)
    wall = perf_counter() - start

    unit = Unit(wall, aset.minutes, len(report.findings))
    by_index: dict[str, list] = {}
    for f in report.findings:
        by_index.setdefault(f.expected_digest, []).append(f)
    good = 0
    if report.chain_issue is None:
        for digest_hex, findings in by_index.items():
            good += (len(findings) == synth.REPLICATION and all(
                f.verdict == aset.truth.get((f.node_id, digest_hex), audit.INTACT)
                for f in findings))
    unit.attempted = aset.n_indexes
    unit.failed = aset.n_indexes - good
    if unit.failed:
        unit.failures.append(f"offline_audit: {unit.failed} of {aset.n_indexes} ledger "
                             "indexes disagree with the ground truth")
    return unit


# -- fingerprint pins ---------------------------------------------------------

PINNED_RUNS = {"clean_loop": clean_pin_artifacts, "attack_storm": attack_pin_artifacts}


def check_pin(workload: str, workdir: Path) -> str | None:
    """None when the default-seed artifacts hash to the pinned values, else why not."""
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))[workload]
    actual = PINNED_RUNS[workload](workdir)
    if actual != pinned:
        changed = sorted(k for k in set(pinned) | set(actual) if pinned.get(k) != actual.get(k))
        return f"{workload} default-seed artifacts differ from pins.json: {changed}"
    return None


def write_pins(workdir: Path):
    pins = {name: pinned_run(workdir / name) for name, pinned_run in PINNED_RUNS.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
