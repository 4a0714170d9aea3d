"""Attack scenario tests: at-rest tampering, in-transit injection, reports."""

import struct
from datetime import datetime

import pytest

from histchain import events as ev
from histchain.attacks import (
    FORGED_VALUES,
    TABLE1_ROWS,
    ScenarioReport,
    cycles_to_alarm,
    run_plan,
    run_scenario_a,
    run_scenario_b,
    run_scenario_c,
)
from histchain.config import PLC_TARGET_NODE, SimConfig, fmt_minute
from histchain.envelope import SIG_LEN, MeasurementVector, vector_digest
from histchain.events import EventRecord
from histchain.sim import Simulation
from histchain.storage import INTACT
from histchain.wire import Frame

SEEDS = range(20)
LATE_START = datetime(2021, 1, 1, 0, 0)


def test_attack_window_covers_only_its_intervals():
    cfg = SimConfig(seed=42)
    sim = Simulation(cfg)
    seen = []

    def count(frame):
        seen.append(sim.events.tick // cfg.interval_ticks)
        return frame

    windows = {1: [("plc1", "node1", count)], 3: [("plc1", "node1", count)]}
    after = []
    for _ in range(4):
        run_plan(sim, 1, windows)
        after.append(sim.network.links[("plc1", "node1")].interceptor)
    assert seen == [1, 3]
    assert after == [None] * 4
    assert all(link.interceptor is None for link in sim.network.links.values())


def test_wire_bytes_cannot_split_an_event_line(tmp_path):
    """A rejected envelope's claimed-digest text is quoted in its alarm; no
    line break in it may start a line of events.log or of a scenario report."""
    sim = Simulation(SimConfig(seed=42))

    def rewrite_claimed_digest(frame):
        (ct_len,) = struct.unpack_from(">I", frame.payload)
        payload = (frame.payload[:4 + ct_len] + b"\r0\tchain\tINFO\tBLOCK_MINTED\tforged line"
                   + frame.payload[-SIG_LEN:])
        return Frame(frame.version, frame.msg_type, frame.sender_id,
                     frame.recipient_id, payload)

    run_plan(sim, 2, {1: [("plc1", "node1", rewrite_claimed_digest)]})
    records = sim.events.records
    assert any("forged line" in r.detail
               for r in sim.events.by_code(ev.DIGEST_MISMATCH, "node1"))
    lines = sim.write_artifacts(tmp_path)["events"].read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[:4] for line in lines] == [
        [str(r.tick), r.actor, r.severity, r.code] for r in records]
    report_lines = ScenarioReport("X", sim).to_text().splitlines()
    assert report_lines[3:] == [f"event|{line}" for line in lines]


def forged_line(report, sensor_name):
    """The dump line of interval 1's `sensor_name` row with FORGED_VALUES."""
    minute = fmt_minute(report.sim.interval_ts(1))
    return f"{sensor_name}|{minute}|{','.join(map(str, FORGED_VALUES))}\n"


def target_holders(report):
    """The ledger's holders of scenario A's target, interval 1's Sensor 1 row."""
    sim = report.sim
    digest = vector_digest(MeasurementVector(
        "Sensor 1", sim.interval_ts(1), TABLE1_ROWS[1][1]))
    return next(ix.replica_ids for block in sim.chain_module.chain.blocks
                for ix in block.indexes if ix.vector_digest == digest)


def check_first_two_corrupt(report):
    assert report.passed, report.to_text()
    holders = target_holders(report)
    forged = forged_line(report, "Sensor 1")
    assert [forged in report.attacked_dumps[i] for i in holders] == [True, True, False]
    assert ("recovered_from", f"node{holders[2]}") in report.notes


def check_all_corrupt(report):
    assert report.passed, report.to_text()
    forged = forged_line(report, "Sensor 1")
    assert all(forged in report.attacked_dumps[i] for i in target_holders(report))
    assert "unrecoverable_alarmed" in {a.name for a in report.assertions}
    assert report.sim.events.by_code(ev.UNRECOVERABLE, "node1")


def silent_plc_alarms(report):
    """(interval, node, code) of each alarm scenario A raises with no edit
    detected: one MISSING_VECTOR per interval, at the node whose PLC sent
    nothing."""
    return [(k, node, ev.MISSING_VECTOR)
            for k, (sender, _) in enumerate(TABLE1_ROWS)
            for plc, node in PLC_TARGET_NODE.items() if plc != sender]


def interval_alarms(report):
    ticks = report.sim.cfg.interval_ticks
    return [(r.tick // ticks, r.actor, r.code) for r in report.sim.events.alarms()]


def check_uncovered(report):
    assert report.passed, report.to_text()
    assert ("ledger_coverage", "outside ledger coverage") in report.notes
    assert forged_line(report, "Sensor 9") in report.attacked_dumps[1]
    assert all(f.verdict == INTACT for f in report.findings)
    assert interval_alarms(report) == silent_plc_alarms(report)
    assert not any(key == "detection_latency_cycles" for key, _ in report.notes)


class TestScenarioA:
    def test_default_detects_recovers_restores(self):
        report = run_scenario_a()
        assert report.passed, report.to_text()
        names = {a.name for a in report.assertions}
        assert "detected_exactly_target" in names
        assert "restored_original_values" in names
        restored = report.sim.historian(1).get(("Sensor 1", "2020-12-23T17:27"))
        assert restored.values == (6, 7, 7, 6, 7, 7, 6, 7, 7, 6)

    def test_fixture_rows_as_documented(self):
        report = run_scenario_a()
        rows = [(r.sensor_name, r.key[1], r.values) for r in report.sim.historian(1).records()]
        assert rows == [
            ("Sensor 1", "2020-12-23T17:26", (2, 5)),
            ("Sensor 1", "2020-12-23T17:27", (6, 7, 7, 6, 7, 7, 6, 7, 7, 6)),
            ("Sensor 2", "2020-12-23T17:28", (4, 4, 5, 4, 5, 3, 6, 3, 6, 3)),
        ]

    def test_recovery_falls_back_to_third_holder(self):
        # First listed replica holder also corrupted: recovery must come from
        # the remaining one.
        for seed in SEEDS:
            check_first_two_corrupt(run_scenario_a(SimConfig(seed=seed), corrupt=2))

    def test_all_copies_corrupt_unrecoverable(self):
        for seed in SEEDS:
            check_all_corrupt(run_scenario_a(SimConfig(seed=seed), corrupt=3))

    def test_rogue_record_outside_coverage(self):
        for seed in SEEDS:
            check_uncovered(run_scenario_a(SimConfig(seed=seed), uncovered=True))

    @pytest.mark.parametrize("corrupt", [0, -1])
    def test_corrupt_below_one_is_refused(self, corrupt):
        # A negative count would slice holders from the end: -1 forges two.
        with pytest.raises(ValueError, match="corrupt must be at least 1"):
            run_scenario_a(corrupt=corrupt)

    def test_report_bytes_reproducible(self):
        assert run_scenario_a().to_text() == run_scenario_a().to_text()

    @pytest.mark.parametrize("seed", range(20))
    def test_passes_for_any_seed(self, seed):
        report = run_scenario_a(SimConfig(seed=seed))
        assert report.passed, report.to_text()
        assert "historian1_holds_expected_rows" in {a.name for a in report.assertions}

    def test_passes_at_another_start_time(self):
        cfg = SimConfig(seed=3, start_time=LATE_START)
        report = run_scenario_a(cfg)
        assert report.passed, report.to_text()
        assert [f.key for f in report.findings if f.verdict != INTACT] == [
            ("Sensor 1", "2021-01-01T00:01")]
        check_first_two_corrupt(run_scenario_a(cfg, corrupt=2))
        check_all_corrupt(run_scenario_a(cfg, corrupt=3))
        check_uncovered(run_scenario_a(cfg, uncovered=True))

    def test_emits_expected_operator_codes(self):
        report = run_scenario_a()
        log = report.sim.events
        assert log.by_code(ev.CHECK_OK, "node1")
        assert log.by_code(ev.FDI_ALARM, "node1")
        assert log.by_code(ev.RECOVERED, "node1")

    def test_silent_plc_missing_each_interval(self):
        """Each interval one PLC sends nothing, and its node names the
        missing vector in that interval; the edit adds only node1's
        FDI_ALARM, in the validator cycle after the run."""
        report = run_scenario_a()
        last = len(TABLE1_ROWS) - 1
        assert interval_alarms(report) == [*silent_plc_alarms(report),
                                           (last, "node1", ev.FDI_ALARM)]

    @pytest.mark.parametrize("corrupt", [1, 2, 3])
    def test_detection_latency_counts_node1_cycles(self, corrupt):
        """The note is node1's validator cycles from the edit through the
        first FDI_ALARM naming the edited digest, read off the run's events.
        The edit follows the run's last cycles, one per Table 1 row."""
        report = run_scenario_a(corrupt=corrupt)
        sim = report.sim
        digest = vector_digest(MeasurementVector(
            "Sensor 1", sim.interval_ts(1), TABLE1_ROWS[1][1]))
        node1 = [r for r in sim.events.records if r.actor == "node1"]
        alarm = next(i for i, r in enumerate(node1)
                     if r.code == ev.FDI_ALARM and digest in r.detail)
        through_alarm = sum(r.code == ev.CHECK_OK for r in node1[:alarm]) + 1
        latency = through_alarm - len(TABLE1_ROWS)
        assert latency == 1
        assert ("detection_latency_cycles", str(latency)) in report.notes


def test_cycles_to_alarm_counts_each_ended_cycle():
    """A cycle ends in CHECK_OK, CHAIN_INVALID or CHAIN_REWRITTEN; other
    actors' records and alarms for other digests do not count."""
    def rec(actor, code, detail=""):
        return EventRecord(0, actor, "", code, detail)
    records = [rec("node1", ev.CHAIN_REWRITTEN), rec("node1", ev.CHAIN_INVALID),
               rec("node2", ev.CHECK_OK),
               rec("node1", ev.FDI_ALARM, "digest bb"), rec("node1", ev.CHECK_OK),
               rec("node1", ev.FDI_ALARM, "digest aa"), rec("node1", ev.CHECK_OK)]
    assert cycles_to_alarm(records, "node1", "aa") == 4
    assert cycles_to_alarm(records, "node1", "bb") == 3
    assert cycles_to_alarm(records, "node2", "aa") is None


class TestScenarioB:
    def test_default_rejects_and_resumes(self):
        report = run_scenario_b()
        assert report.passed, report.to_text()

    def test_rejection_count_matches_attacked_intervals(self):
        report = run_scenario_b()
        mismatches = report.sim.events.by_code(ev.DIGEST_MISMATCH, "node1")
        assert len(mismatches) == 1

    def test_passive_eavesdropper_sees_no_plaintext(self):
        report = run_scenario_b(passive=True)
        assert report.passed, report.to_text()

    def test_report_bytes_reproducible(self):
        assert run_scenario_b().to_text() == run_scenario_b().to_text()

    def test_emits_expected_operator_codes(self):
        report = run_scenario_b()
        log = report.sim.events
        assert log.by_code(ev.DIGEST_MISMATCH, "node1")
        stored = log.by_code(ev.STORED, "node1")
        assert stored and all(" from plc1; digest=" in r.detail for r in stored)
        assert not log.by_code(ev.MISSING_VECTOR)

    def test_passes_for_any_seed(self):
        """At some of these seeds node1 pulls a replica in the attacked
        interval; that is not a row the attack got stored."""
        failed = [(seed, passive) for seed in range(30) for passive in (False, True)
                  if not run_scenario_b(SimConfig(seed=seed), passive=passive).passed]
        assert failed == []


class TestScenarioC:
    def test_default_minted_block_excludes_attacked_index(self):
        report = run_scenario_c()
        assert report.passed, report.to_text()

    def test_both_links_attacked_no_block(self):
        for seed in SEEDS:
            report = run_scenario_c(SimConfig(seed=seed), attack_node2_too=True)
            assert report.passed, report.to_text()
            assert any(a.name == "no_block_minted" and a.passed for a in report.assertions)

    def test_report_bytes_reproducible(self):
        assert run_scenario_c().to_text() == run_scenario_c().to_text()

    def test_emits_expected_operator_codes(self):
        report = run_scenario_c()
        log = report.sim.events
        assert log.by_code(ev.INDEX_REJECTED, "chain")
        assert log.by_code(ev.BLOCK_MINTED, "chain")
        assert log.by_code(ev.COVERAGE_GAP, "node1")


class TestScenarioArtifacts:
    def test_scenario_a_writes_report_and_tampered_dumps(self, tmp_path):
        run_scenario_a(outdir=tmp_path)
        report_text = (tmp_path / "scenario_report.txt").read_text()
        assert report_text.startswith("scenario|A_historian_tamper\n")
        assert "result|PASS" in report_text
        assert (tmp_path / "historian1.tampered.txt").exists()
        assert (tmp_path / "chain.txt").exists()

    def test_scenario_a_fields_default_empty_on_other_reports(self):
        report = run_scenario_b()
        assert report.findings == []
        assert report.attacked_dumps == {}
