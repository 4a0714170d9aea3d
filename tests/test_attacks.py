"""Attack scenario tests: at-rest tampering, in-transit injection, reports."""

from datetime import datetime

import pytest

from histchain import events as ev
from histchain.attacks import (
    ScenarioSetupError,
    run_scenario_a,
    run_scenario_b,
    run_scenario_c,
    run_with_interceptors,
)
from histchain.config import SimConfig
from histchain.sim import Simulation
from histchain.storage import INTACT


def test_attack_window_covers_only_its_intervals():
    cfg = SimConfig(seed=42)
    sim = Simulation(cfg)
    seen = []

    def count(frame):
        seen.append(sim.events.tick // cfg.interval_ticks)
        return frame

    hooked = []

    def look_at_link(sim_, k):
        hooked.append((k, sim_.network.links[("plc1", "node1")].interceptor))

    run_with_interceptors(sim, 4, {1: [("plc1", "node1", count)],
                                   3: [("plc1", "node1", count)]}, look_at_link)
    assert seen == [1, 3]
    assert hooked == [(k, None) for k in range(4)]
    assert all(link.interceptor is None for link in sim.network.links.values())


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
        report = run_scenario_a(extra_corrupt_nodes=(6,))
        assert report.passed, report.to_text()
        assert ("recovered_from", "node3") in report.notes

    def test_all_copies_corrupt_unrecoverable(self):
        report = run_scenario_a(extra_corrupt_nodes=(6, 3))
        assert report.passed, report.to_text()
        assert any(a.name == "unrecoverable_alarmed" and a.passed
                   for a in report.assertions)

    def test_rogue_record_outside_coverage(self):
        report = run_scenario_a(
            rogue_record=("Sensor 9", "2020-12-23T17:40", (1, 2)),
            record_key=("Sensor 9", "2020-12-23T17:40"),
            forged_values=(8, 8),
        )
        assert ("ledger_coverage", "outside ledger coverage") in report.notes
        assert any(a.name == "no_detection_outside_coverage" and a.passed
                   for a in report.assertions)

    def test_missing_record_is_setup_error(self):
        with pytest.raises(ScenarioSetupError):
            run_scenario_a(record_key=("Sensor 1", "2020-12-23T23:59"))

    def test_report_bytes_reproducible(self):
        assert run_scenario_a().to_text() == run_scenario_a().to_text()

    @pytest.mark.parametrize("seed", range(20))
    def test_passes_for_any_seed(self, seed):
        report = run_scenario_a(SimConfig(seed=seed))
        assert report.passed, report.to_text()
        assert "historian1_holds_expected_rows" in {a.name for a in report.assertions}

    def test_passes_at_another_start_time(self):
        report = run_scenario_a(SimConfig(seed=3, start_time=datetime(2021, 1, 1, 0, 0)))
        assert report.passed, report.to_text()
        assert [f.key for f in report.findings if f.verdict != INTACT] == [
            ("Sensor 1", "2021-01-01T00:01")]

    def test_emits_expected_operator_codes(self):
        report = run_scenario_a()
        log = report.sim.events
        assert log.by_code(ev.CHECK_OK, "node1")
        assert log.by_code(ev.FDI_ALARM, "node1")
        assert log.by_code(ev.RECOVERED, "node1")


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
        assert log.by_code(ev.MSG_AUTHENTIC, "node1")
        assert log.by_code(ev.STORED, "node1")

    def test_passes_for_any_seed(self):
        """At some of these seeds node1 pulls a replica in the attacked
        interval; that is not a row the attack got stored."""
        failed = [seed for seed in range(30)
                  if not run_scenario_b(SimConfig(seed=seed)).passed]
        assert failed == []


class TestScenarioC:
    def test_default_minted_block_excludes_attacked_index(self):
        report = run_scenario_c()
        assert report.passed, report.to_text()

    def test_both_links_attacked_no_block(self):
        report = run_scenario_c(attack_node2_too=True)
        assert report.passed, report.to_text()
        assert any(a.name == "no_block_minted" and a.passed for a in report.assertions)

    def test_report_bytes_reproducible(self):
        assert run_scenario_c().to_text() == run_scenario_c().to_text()

    def test_emits_expected_operator_codes(self):
        report = run_scenario_c()
        log = report.sim.events
        assert log.by_code(ev.INDEX_REJECTED, "chain")
        assert log.by_code(ev.INDEX_ACCEPTED, "chain")
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
