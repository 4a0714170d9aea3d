"""Attack scenario tests: at-rest tampering, in-transit injection, reports."""

import pytest

from histchain import events as ev
from histchain.attacks import (
    ScenarioSetupError,
    TABLE1_ROWS,
    run_scenario_a,
    run_scenario_b,
    run_scenario_c,
)

class TestScenarioA:
    def test_default_detects_recovers_restores(self):
        report = run_scenario_a()
        assert report.passed, report.to_text()
        names = {a.name for a in report.assertions}
        assert "detected_exactly_target" in names
        assert "restored_original_values" in names
        restored = report.sim.historian(1).get(("Sensor 1", "2020-12-23T17:27"))
        assert restored.values == TABLE1_ROWS[1][2]

    def test_fixture_rows_as_documented(self):
        report = run_scenario_a()
        rows = [(r.name, r.key[1], r.values) for r in report.sim.historian(1).records()]
        assert rows == list(TABLE1_ROWS)

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
