"""Scripted adversary scenarios driven through store-mutation and wire hooks.

Three scenarios:

* A: an authorized insider rewrites a record at rest inside a Historian; the
  next validator pass must detect exactly that record and restore it from a
  listed replica holder, for any seed and start_time. Its variants corrupt
  the first `corrupt` holders (all of them: an UNRECOVERABLE alarm), or a
  row no ledger index covers (`uncovered`: nothing is flagged).
* B: a man-in-the-middle on the PLC1 -> node1 link flips the reading bytes of
  measurement frames; node1 must reject and store nothing for the attacked
  interval.
* C: the same adversary sits between node1 and the block-minting module; the
  minted block must carry only node2's index and node1's vector becomes a
  ledger coverage gap.

Interceptors touch only the encrypted body region of the payload, never the
frame header, mirroring an attacker who rewrites just the sensor-reading
bytes. A passive variant records traffic without modifying it. Scenario A
sends its Table 1 vectors through Simulation.run with sim.scripted and reads
its minutes, record and holders from that run; B and C put their
interceptors on a link for one interval with `run_with_interceptors`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import events as ev
from .config import SimConfig, fmt_minute
from .envelope import CIPHER_HEADER_LEN, MeasurementVector, vector_digest
from .ledger import dump_chain
from .sim import PLC_SENSOR_NAMES, Simulation, scripted
from .storage import INTACT, TAMPERED_RECOVERED, TAMPERED_UNRECOVERABLE, ValidationFinding
from .wire import INDEX, MEASUREMENT, Frame, pack_envelope, unpack_envelope

# Each scenario passes for any seed; these are the seeds its default report
# was pinned with. At A's seed 17 the 17:27 record lands on nodes [1,6,3] and
# the 17:28 replica reaches node1, the layout README and the tests narrate.
SCENARIO_A_SEED = 17
SCENARIO_B_SEED = 3
SCENARIO_C_SEED = 42

# Scenario A edits node1's Historian; B and C run MITM_MINUTES intervals with
# the adversary on its link during interval MITM_INTERVAL only.
TARGET_NODE = 1
MITM_INTERVAL = 1
MITM_MINUTES = 3

# Per interval of scenario A: the one PLC that sends, and its readings.
TABLE1_ROWS = (
    ("plc1", (2, 5)),
    ("plc1", (6, 7, 7, 6, 7, 7, 6, 7, 7, 6)),
    ("plc2", (4, 4, 5, 4, 5, 3, 6, 3, 6, 3)),
)
# What scenario A's insider writes over its target record.
FORGED_VALUES = (2, 1)


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    scenario_id: str
    sim: Simulation
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[tuple[str, str]] = field(default_factory=list)
    # Scenario A only: every Historian dump right after the at-rest edit, and
    # the target node's validator findings.
    attacked_dumps: dict[int, str] = field(default_factory=dict)
    findings: list[ValidationFinding] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = ""):
        self.assertions.append(Assertion(name, bool(passed), detail))

    def note(self, key: str, value):
        self.notes.append((key, str(value)))

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_text(self) -> str:
        lines = [f"scenario|{self.scenario_id}", f"seed|{self.sim.cfg.seed}",
                 f"result|{'PASS' if self.passed else 'FAIL'}"]
        for a in self.assertions:
            lines.append(f"assert|{a.name}|{'PASS' if a.passed else 'FAIL'}|{a.detail}")
        for key, value in self.notes:
            lines.append(f"note|{key}|{value}")
        for record in self.sim.events.records:
            lines.append(f"event|{record.line()}")
        return "".join(line + "\n" for line in lines)

    def finish(self, outdir) -> ScenarioReport:
        """Write the run's artifacts, any attacked dumps and
        scenario_report.txt to `outdir`; None writes nothing."""
        if outdir is not None:
            outdir = Path(outdir)
            self.sim.write_artifacts(outdir)
            for i, text in self.attacked_dumps.items():
                (outdir / f"historian{i}.tampered.txt").write_text(text, encoding="utf-8")
            (outdir / "scenario_report.txt").write_text(self.to_text(), encoding="utf-8")
        return self


# -- interceptors -------------------------------------------------------------


def flip_body_bytes(msg_type: int):
    """Invert the encrypted body of matching frames' envelopes, past the
    cipher header; frame headers, cipher headers and signatures stay untouched."""
    def interceptor(frame: Frame) -> Frame:
        if frame.msg_type != msg_type:
            return frame
        env = unpack_envelope(frame.payload, "", "")
        head, body = env.ciphertext[:CIPHER_HEADER_LEN], env.ciphertext[CIPHER_HEADER_LEN:]
        env = replace(env, ciphertext=head + bytes(b ^ 0xFF for b in body))
        return replace(frame, payload=pack_envelope(env))
    return interceptor


def run_with_interceptors(sim: Simulation, minutes: int, windows):
    """Run `minutes` plant intervals with each (src, dst, fn) of windows[k] on
    its link from before interval k's boundary until after it; `windows` maps
    an interval index to a list of (src, dst, fn)."""
    def install(sim_, k):
        for src, dst, fn in windows.get(k, ()):
            sim_.install_interceptor(src, dst, fn)

    def remove(sim_, k):
        for src, dst, _ in windows.get(k, ()):
            sim_.remove_interceptor((src, dst))

    sim.run(minutes, install, remove)


# -- scenario A: at-rest manipulation inside a Historian ----------------------


def run_scenario_a(cfg: SimConfig | None = None, corrupt: int = 1,
                   uncovered: bool = False, outdir=None) -> ScenarioReport:
    """Forge interval 1's Sensor 1 record at its first `corrupt` holders in
    ledger order (node1 first), then run node1's validator once; with
    `uncovered`, forge instead a Sensor 9 row that only node1 holds and no
    ledger index covers."""
    if corrupt < 1:
        raise ValueError(f"corrupt must be at least 1, got {corrupt}")
    cfg = cfg or SimConfig(seed=SCENARIO_A_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport("A_historian_tamper", sim)
    sim.run(len(TABLE1_ROWS), scripted(
        [{name: values if name == plc else None for name in sim.plcs}
         for plc, values in TABLE1_ROWS]))
    sent = [MeasurementVector(PLC_SENSOR_NAMES[plc], sim.interval_ts(k), values)
            for k, (plc, values) in enumerate(TABLE1_ROWS)]
    ledger = {ix.vector_digest: ix
              for block in sim.chain_module.chain.blocks for ix in block.indexes}

    node = sim.nodes[TARGET_NODE]
    rows = [(r.sensor_name, r.key[1], r.values) for r in node.historian.records()]
    listed = [v for v in sent if TARGET_NODE in ledger[vector_digest(v)].replica_ids]
    report.check("historian1_holds_expected_rows",
                 node.historian.records() == listed, f"rows={rows}")

    target = sent[1]
    if uncovered:
        target = MeasurementVector("Sensor 9", target.captured_at, target.values)
        node.historian.overwrite(target)
    key = target.key
    ix = ledger.get(vector_digest(target))
    holders = ix.replica_ids if ix else (TARGET_NODE,)
    for i in holders[:corrupt]:
        sim.nodes[i].historian.tamper(key, FORGED_VALUES)
    report.note("ledger_coverage", "covered" if ix else "outside ledger coverage")

    report.attacked_dumps = {i: n.historian.dump() for i, n in sim.nodes.items()}

    findings = report.findings = node.validate_cycle(sim.chain_module.chain)
    flagged = [f for f in findings if f.verdict != INTACT]

    if ix is None:
        report.check("no_detection_outside_coverage",
                     all(f.key != key for f in flagged),
                     "unindexed data has no ledger digest to check against")
    else:
        report.check("detected_exactly_target",
                     [f.key for f in flagged] == [key],
                     f"flagged={[f.key for f in flagged]}")
        if corrupt >= len(holders):
            report.check("unrecoverable_alarmed",
                         bool(flagged) and flagged[0].verdict == TAMPERED_UNRECOVERABLE
                         and len(sim.events.by_code(ev.UNRECOVERABLE, node.name)) > 0)
        else:
            finding = flagged[0] if flagged else None
            report.check("recovered",
                         finding is not None and finding.verdict == TAMPERED_RECOVERED,
                         f"verdict={finding.verdict if finding else None}")
            restored = node.historian.get(key)
            report.check("restored_original_values",
                         restored is not None and restored.values == target.values,
                         f"values={restored.values if restored else None}")
            if finding and finding.recovered_from:
                report.note("recovered_from", f"node{finding.recovered_from}")
        report.check("other_records_intact",
                     all(f.verdict == INTACT for f in findings if f.key != key))
    report.note("detection_latency_cycles", 1)
    return report.finish(outdir)


# -- scenario B: MITM between PLC1 and storage node1 --------------------------


def run_scenario_b(cfg: SimConfig | None = None, passive: bool = False,
                   outdir=None) -> ScenarioReport:
    cfg = cfg or SimConfig(seed=SCENARIO_B_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport(
        "B_mitm_plc_storage" + ("_passive" if passive else ""), sim)
    tapped: list[Frame] = []

    def tap(frame: Frame) -> Frame:
        tapped.append(frame)
        return frame

    fn = tap if passive else flip_body_bytes(MEASUREMENT)
    run_with_interceptors(sim, MITM_MINUTES, {MITM_INTERVAL: [("plc1", "node1", fn)]})

    # node1's STORED events are the rows it registered from plc1; a replica
    # it pulls in the same interval is not one.
    stored = Counter(r.tick // cfg.interval_ticks
                     for r in sim.events.by_code(ev.STORED, "node1"))
    grew = {k: stored[k] for k in range(MITM_MINUTES)}
    mismatch_alarms = sim.events.by_code(ev.DIGEST_MISMATCH, "node1")
    if passive:
        report.check("no_alarms", len(sim.events.alarms()) == 0,
                     f"alarms={len(sim.events.alarms())}")
        report.check("storage_unaffected", all(g >= 1 for g in grew.values()),
                     f"new rows per interval={grew}")
        report.check("transcript_nonempty", len(tapped) > 0)
        report.check("transcript_plaintext_free",
                     all(b"Sensor 1" not in f.payload for f in tapped))
    else:
        report.check("exactly_one_rejection_alarm", len(mismatch_alarms) == 1,
                     f"count={len(mismatch_alarms)}")
        report.check("nothing_stored_during_attack", grew[MITM_INTERVAL] == 0,
                     f"new rows={grew[MITM_INTERVAL]}")
        report.check("storage_resumes_next_interval",
                     grew.get(MITM_INTERVAL + 1, 0) >= 1,
                     f"new rows={grew.get(MITM_INTERVAL + 1)}")
        clean = [k for k in grew if k != MITM_INTERVAL]
        report.check("no_alarms_outside_attack",
                     all(r.tick // cfg.interval_ticks == MITM_INTERVAL
                         for r in sim.events.alarms()),
                     "all alarms fall in the attacked interval")
        report.note("clean_intervals", ",".join(str(k) for k in clean))
    return report.finish(outdir)


# -- scenario C: MITM between storage node1 and the minting module ------------


def run_scenario_c(cfg: SimConfig | None = None, attack_node2_too: bool = False,
                   outdir=None) -> ScenarioReport:
    cfg = cfg or SimConfig(seed=SCENARIO_C_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport("C_mitm_storage_chain", sim)
    senders = ("node1", "node2") if attack_node2_too else ("node1",)
    run_with_interceptors(sim, MITM_MINUTES, {
        MITM_INTERVAL: [(src, "chain", flip_body_bytes(INDEX)) for src in senders]})

    ts = sim.interval_ts(MITM_INTERVAL)
    minute = fmt_minute(ts)
    chain = sim.chain_module.chain
    chain_text = dump_chain(chain)
    attacked_blocks = [b for b in chain.blocks[1:] if b.minted_at == ts]

    rec1 = sim.historian(1).get(("Sensor 1", minute))
    rec2 = sim.historian(2).get(("Sensor 2", minute))
    suppressed_digest = vector_digest(rec1) if rec1 else None
    report.note("suppressed_digest", suppressed_digest)

    if attack_node2_too:
        report.check("no_block_minted", not attacked_blocks,
                     "zero authentic indexes leaves the chain unchanged")
    else:
        report.check("block_minted_with_single_index",
                     len(attacked_blocks) == 1 and len(attacked_blocks[0].indexes) == 1,
                     f"blocks={len(attacked_blocks)}")
        report.check("block_carries_node2_index",
                     bool(attacked_blocks) and rec2 is not None
                     and attacked_blocks[0].indexes[0].vector_digest == vector_digest(rec2))
        report.check("rejection_alarmed",
                     len(sim.events.by_code(ev.INDEX_REJECTED, "chain")) == 1)
        lo = MITM_INTERVAL * cfg.interval_ticks
        hi = lo + cfg.interval_ticks
        report.check("node2_index_accepted_that_interval",
                     any(lo <= r.tick < hi and "node2" in r.detail
                         for r in sim.events.by_code(ev.INDEX_ACCEPTED, "chain")))
    report.check("suppressed_digest_absent_from_chain",
                 suppressed_digest is not None and suppressed_digest not in chain_text)
    report.check("coverage_gap_warned",
                 any(suppressed_digest in r.detail
                     for r in sim.events.by_code(ev.COVERAGE_GAP, "node1")))
    next_minute = fmt_minute(sim.interval_ts(MITM_INTERVAL + 1))
    next_rec = sim.historian(1).get(("Sensor 1", next_minute))
    report.check("next_interval_indexed_normally",
                 next_rec is not None and vector_digest(next_rec) in chain_text,
                 "vector captured after the attack reaches the ledger")
    return report.finish(outdir)


# Each scenario's runner, the intervals it runs and its default seed, by its
# letter: A runs one interval per Table 1 row.
SCENARIOS = {"A": (run_scenario_a, len(TABLE1_ROWS), SCENARIO_A_SEED),
             "B": (run_scenario_b, MITM_MINUTES, SCENARIO_B_SEED),
             "C": (run_scenario_c, MITM_MINUTES, SCENARIO_C_SEED)}
