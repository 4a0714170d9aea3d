"""Scripted adversary scenarios driven through store-mutation and wire hooks.

Three scenarios:

* A: an authorized insider rewrites a record at rest inside a Historian; the
  next validator pass must detect exactly that record and restore it from a
  listed replica holder.
* B: a man-in-the-middle on the PLC1 -> node1 link flips the reading bytes of
  measurement frames; node1 must reject and store nothing for the attacked
  interval.
* C: the same adversary sits between node1 and the block-minting module; the
  minted block must carry only node2's index and node1's vector becomes a
  ledger coverage gap.

Interceptors touch only the encrypted body region of the payload, never the
frame header, mirroring an attacker who rewrites just the sensor-reading
bytes. A passive variant records traffic without modifying it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

from . import events as ev
from .config import SimConfig, fmt_minute, parse_minute
from .envelope import CIPHER_HEADER_LEN
from .ledger import dump_chain
from .sim import Simulation
from .storage import TAMPERED_RECOVERED, TAMPERED_UNRECOVERABLE, HistorianRecord, ValidationFinding
from .wire import INDEX, MEASUREMENT, Frame

# Seeds giving replica layouts that match the documented narratives
# (see tests); any seed works, these keep the default reports stable.
# A: the 17:27 record lands on nodes [1,6,3] and the 17:28 replica reaches node1.
# B: the surviving vector of the attacked interval avoids node1 as a replica.
SCENARIO_A_SEED = 17
SCENARIO_B_SEED = 3
SCENARIO_C_SEED = 42

TABLE1_ROWS = (
    ("Sensor 1", "2020-12-23T17:26", (2, 5)),
    ("Sensor 1", "2020-12-23T17:27", (6, 7, 7, 6, 7, 7, 6, 7, 7, 6)),
    ("Sensor 2", "2020-12-23T17:28", (4, 4, 5, 4, 5, 3, 6, 3, 6, 3)),
)


class ScenarioSetupError(ValueError):
    """Scenario preconditions not met (e.g. target record absent)."""


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    scenario_id: str
    seed: int
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[tuple[str, str]] = field(default_factory=list)
    event_lines: list[str] = field(default_factory=list)
    sim: Simulation | None = None
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
        lines = [f"scenario|{self.scenario_id}", f"seed|{self.seed}",
                 f"result|{'PASS' if self.passed else 'FAIL'}"]
        for a in self.assertions:
            lines.append(f"assert|{a.name}|{'PASS' if a.passed else 'FAIL'}|{a.detail}")
        for key, value in self.notes:
            lines.append(f"note|{key}|{value}")
        for line in self.event_lines:
            lines.append(f"event|{line}")
        return "".join(line + "\n" for line in lines)

    def finalize(self, sim: Simulation):
        self.sim = sim
        self.event_lines = [r.line() for r in sim.events.records]

    def write(self, outdir):
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "scenario_report.txt").write_text(self.to_text(), encoding="utf-8")


# -- interceptors -------------------------------------------------------------


def flip_body_bytes(msg_type: int):
    """Invert the encrypted body of matching frames; headers stay untouched."""
    def interceptor(frame: Frame) -> Frame:
        if frame.msg_type != msg_type:
            return frame
        payload = bytearray(frame.payload)
        (ct_len,) = struct.unpack_from(">I", payload)
        start = 4 + CIPHER_HEADER_LEN
        end = 4 + ct_len
        for i in range(start, end):
            payload[i] ^= 0xFF
        return Frame(frame.version, frame.msg_type, frame.sender_id,
                     frame.recipient_id, bytes(payload))
    return interceptor


class PassiveTap:
    """Eavesdropper: copies every frame and retransmits it unchanged."""

    def __init__(self):
        self.frames: list[Frame] = []

    def __call__(self, frame: Frame) -> Frame:
        self.frames.append(frame)
        return frame


# -- scenario A: at-rest manipulation inside a Historian ----------------------


def run_scenario_a(cfg: SimConfig | None = None,
                   record_key: tuple[str, str] = ("Sensor 1", "2020-12-23T17:27"),
                   forged_values=(2, 1),
                   target_node: int = 1,
                   extra_corrupt_nodes: tuple[int, ...] = (),
                   rogue_record=None,
                   outdir=None) -> ScenarioReport:
    cfg = cfg or SimConfig(seed=SCENARIO_A_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport("A_historian_tamper", cfg.seed)
    sim.run_scripted([
        {"plc1": list(TABLE1_ROWS[0][2]), "plc2": None},
        {"plc1": list(TABLE1_ROWS[1][2]), "plc2": None},
        {"plc1": None, "plc2": list(TABLE1_ROWS[2][2])},
    ])

    node = sim.nodes[target_node]
    if rogue_record is not None:
        # Planted row that no ledger index covers, for the coverage-gap variant.
        name, minute, values = rogue_record
        node.historian.overwrite(
            HistorianRecord(name, tuple(values), parse_minute(minute)))

    key = tuple(record_key)
    if node.historian.get(key) is None:
        raise ScenarioSetupError(f"record {key} not present in historian{target_node}")

    rows = [(r.name, r.key[1], tuple(r.values)) for r in sim.historian(1).records()]
    if target_node == 1 and rogue_record is None:
        report.check("historian1_holds_expected_rows", rows == list(TABLE1_ROWS),
                     f"rows={rows}")

    original = node.historian.tamper(key, forged_values)
    original_digest = original.digest_hex()
    for other in extra_corrupt_nodes:
        if sim.nodes[other].historian.get(key) is not None:
            sim.nodes[other].historian.tamper(key, forged_values)

    holders = set()
    for block in sim.chain_module.chain.blocks:
        for ix in block.indexes:
            if ix.vector_digest.hex == original_digest:
                holders = set(ix.replica_ids)
    covered = target_node in holders
    report.note("ledger_coverage", "covered" if covered else "outside ledger coverage")

    report.attacked_dumps = {i: n.historian.dump() for i, n in sim.nodes.items()}

    findings = report.findings = node.validate_cycle(sim.chain_module.chain)
    flagged = [f for f in findings if f.verdict != "intact"]

    if not covered:
        report.check("no_detection_outside_coverage",
                     all(f.key != key for f in flagged),
                     "unindexed data has no ledger digest to check against")
    else:
        report.check("detected_exactly_target",
                     [f.key for f in flagged] == [key],
                     f"flagged={[f.key for f in flagged]}")
        all_corrupt = holders <= ({target_node} | set(extra_corrupt_nodes))
        if all_corrupt:
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
                         restored is not None and restored.values == original.values,
                         f"values={restored.values if restored else None}")
            if finding and finding.recovered_from:
                report.note("recovered_from", f"node{finding.recovered_from}")
        report.check("other_records_intact",
                     all(f.verdict == "intact" for f in findings if f.key != key))
    report.note("detection_latency_cycles", 1)
    report.finalize(sim)

    if outdir is not None:
        outdir = Path(outdir)
        sim.write_artifacts(outdir)
        for i, text in report.attacked_dumps.items():
            (outdir / f"historian{i}.tampered.txt").write_text(text, encoding="utf-8")
        report.write(outdir)
    return report


# -- scenario B: MITM between PLC1 and storage node1 --------------------------


def run_scenario_b(cfg: SimConfig | None = None, attack_interval: int = 1,
                   minutes: int = 3, passive: bool = False,
                   outdir=None) -> ScenarioReport:
    cfg = cfg or SimConfig(seed=SCENARIO_B_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport(
        "B_mitm_plc_storage" + ("_passive" if passive else ""), cfg.seed)
    tap = PassiveTap()
    state: dict = {"rows_start": {}, "rows_end": {}}

    def before(sim_, k):
        state["rows_start"][k] = len(sim_.historian(1))
        if k == attack_interval:
            fn = tap if passive else flip_body_bytes(MEASUREMENT)
            state["handle"] = sim_.install_interceptor("plc1", "node1", fn)

    def after(sim_, k):
        state["rows_end"][k] = len(sim_.historian(1))
        if k == attack_interval and "handle" in state:
            sim_.remove_interceptor(state.pop("handle"))

    sim.run(minutes, before, after)

    grew = {k: state["rows_end"][k] - state["rows_start"][k] for k in state["rows_end"]}
    mismatch_alarms = sim.events.by_code(ev.DIGEST_MISMATCH, "node1")
    if passive:
        report.check("no_alarms", len(sim.events.alarms()) == 0,
                     f"alarms={len(sim.events.alarms())}")
        report.check("storage_unaffected", all(g >= 1 for g in grew.values()),
                     f"new rows per interval={grew}")
        report.check("transcript_nonempty", len(tap.frames) > 0)
        report.check("transcript_plaintext_free",
                     all(b"Sensor 1" not in f.payload for f in tap.frames))
    else:
        report.check("exactly_one_rejection_alarm", len(mismatch_alarms) == 1,
                     f"count={len(mismatch_alarms)}")
        report.check("nothing_stored_during_attack", grew[attack_interval] == 0,
                     f"new rows={grew[attack_interval]}")
        report.check("storage_resumes_next_interval",
                     grew.get(attack_interval + 1, 0) >= 1,
                     f"new rows={grew.get(attack_interval + 1)}")
        clean = [k for k in grew if k != attack_interval]
        report.check("no_alarms_outside_attack",
                     all(r.tick // cfg.interval_ticks == attack_interval
                         for r in sim.events.alarms()),
                     "all alarms fall in the attacked interval")
        report.note("clean_intervals", ",".join(str(k) for k in clean))
    report.finalize(sim)
    if outdir is not None:
        sim.write_artifacts(outdir)
        report.write(outdir)
    return report


# -- scenario C: MITM between storage node1 and the minting module ------------


def run_scenario_c(cfg: SimConfig | None = None, attack_interval: int = 1,
                   minutes: int = 3, attack_node2_too: bool = False,
                   outdir=None) -> ScenarioReport:
    cfg = cfg or SimConfig(seed=SCENARIO_C_SEED)
    sim = Simulation(cfg)
    report = ScenarioReport("C_mitm_storage_chain", cfg.seed)
    handles: list = []

    def before(sim_, k):
        if k == attack_interval:
            handles.append(sim_.install_interceptor("node1", "chain",
                                                    flip_body_bytes(INDEX)))
            if attack_node2_too:
                handles.append(sim_.install_interceptor("node2", "chain",
                                                        flip_body_bytes(INDEX)))

    def after(sim_, k):
        if k == attack_interval:
            while handles:
                sim_.remove_interceptor(handles.pop())

    sim.run(minutes, before, after)

    ts = sim.interval_ts(attack_interval)
    minute = fmt_minute(ts)
    chain = sim.chain_module.chain
    chain_text = dump_chain(chain)
    attacked_blocks = [b for b in chain.blocks[1:] if b.minted_at == ts]

    rec1 = sim.historian(1).get(("Sensor 1", minute))
    rec2 = sim.historian(2).get(("Sensor 2", minute))
    suppressed_digest = rec1.digest_hex() if rec1 else None
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
                     and attacked_blocks[0].indexes[0].vector_digest.hex
                     == rec2.digest_hex())
        report.check("rejection_alarmed",
                     len(sim.events.by_code(ev.INDEX_REJECTED, "chain")) == 1)
        lo = attack_interval * cfg.interval_ticks
        hi = lo + cfg.interval_ticks
        report.check("node2_index_accepted_that_interval",
                     any(lo <= r.tick < hi and "node2" in r.detail
                         for r in sim.events.by_code(ev.INDEX_ACCEPTED, "chain")))
    report.check("suppressed_digest_absent_from_chain",
                 suppressed_digest is not None and suppressed_digest not in chain_text)
    report.check("coverage_gap_warned",
                 any(suppressed_digest in r.detail
                     for r in sim.events.by_code(ev.COVERAGE_GAP, "node1")))
    next_minute = fmt_minute(sim.interval_ts(attack_interval + 1))
    next_rec = sim.historian(1).get(("Sensor 1", next_minute))
    report.check("next_interval_indexed_normally",
                 next_rec is not None and next_rec.digest_hex() in chain_text,
                 "vector captured after the attack reaches the ledger")
    report.finalize(sim)
    if outdir is not None:
        sim.write_artifacts(outdir)
        report.write(outdir)
    return report
