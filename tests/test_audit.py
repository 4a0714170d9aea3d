"""Offline audit tests: the standalone oracle over run artifacts."""

import hashlib
from datetime import timedelta

import pytest

from histchain import audit, storage
from histchain.attacks import run_scenario_a, run_scenario_c
from histchain.audit import INTACT, MISMATCH, MISSING, audit_artifacts, audit_directory
from histchain.cli import main
from histchain.config import SimConfig
from histchain.envelope import parse_canonical, vector_digest
from histchain.ledger import (Chain, DumpFormatError, LedgerIndex, dump_chain, make_block,
                              parse_chain_dump)
from histchain.sim import Simulation
from histchain.storage import DuplicateRecordError, Historian
from .helpers import flip_hex_char
from .test_golden import RUN_10_MINUTES_SEED_42


def clean_artifacts(minutes=3, seed=42):
    sim = Simulation(SimConfig(seed=seed))
    sim.run(minutes)
    chain_text = dump_chain(sim.chain_module.chain)
    historians = {i: node.historian.dump() for i, node in sim.nodes.items()}
    return sim, chain_text, historians


class TestCleanRun:
    def test_all_intact_no_uncovered(self):
        _, chain_text, historians = clean_artifacts()
        report = audit_artifacts(chain_text, historians)
        assert report.chain_issue is None
        assert report.all_intact
        assert report.uncovered == []
        assert report.flagged() == []

    def test_text_rendering(self):
        _, chain_text, historians = clean_artifacts(minutes=1)
        text = audit_artifacts(chain_text, historians).to_text()
        assert text.startswith("chain|valid\n")
        assert "finding|node" in text


class TestHandEdits:
    def test_edited_historian_value_flags_exactly_that_record(self):
        _, chain_text, historians = clean_artifacts()
        lines = historians[1].splitlines()
        name, minute, values = lines[0].split("|")
        lines[0] = f"{name}|{minute}|9{values}"
        historians[1] = "\n".join(lines) + "\n"
        report = audit_artifacts(chain_text, historians)
        flagged = report.flagged()
        assert len(flagged) == 1
        assert flagged[0].verdict == MISMATCH
        assert flagged[0].node_id == 1
        assert flagged[0].key == (name, minute)

    def test_deleted_historian_line_flags_missing_or_mismatch(self):
        _, chain_text, historians = clean_artifacts()
        lines = historians[2].splitlines()
        removed = lines.pop(0)
        historians[2] = "\n".join(lines) + ("\n" if lines else "")
        report = audit_artifacts(chain_text, historians)
        flagged = report.flagged()
        assert len(flagged) == 1
        assert flagged[0].node_id == 2
        assert removed.split("|")[1] == flagged[0].key[1]

    def test_edited_chain_hash_reports_first_bad_block(self):
        _, chain_text, historians = clean_artifacts()
        lines = chain_text.splitlines()
        target = next(i for i, l in enumerate(lines) if l.startswith("block|2|"))
        parts = lines[target].split("|")
        parts[3] = flip_hex_char(parts[3])
        lines[target] = "|".join(parts)
        report = audit_artifacts("\n".join(lines) + "\n", historians)
        assert report.chain_issue is not None
        assert report.chain_issue.position == 2
        assert not report.all_intact


def negative_value(line):
    name, minute, values = line.split("|")
    return f"{name}|{minute}|-1,{values.split(',', 1)[1]}"


class TestMalformedLines:
    @pytest.mark.parametrize("edit", [negative_value, lambda line: "garbage",
                                      lambda line: "\udcff\udcfe"],
                             ids=["negative_value", "garbage", "not_utf8"])
    def test_reported_with_line_number_and_index_missing(self, edit, tmp_path, capsys):
        sim, _, _ = clean_artifacts()
        sim.write_artifacts(tmp_path)
        hist = tmp_path / "historian1.txt"
        lines = hist.read_text().splitlines()
        held = vector_digest(parse_canonical(lines[0].encode()))
        lines[0] = edit(lines[0])
        hist.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")

        report = audit_directory(tmp_path)
        assert report.malformed == [(1, 1)]
        assert "malformed|node1|1\n" in report.to_text()
        assert [(f.node_id, f.verdict, f.expected_digest) for f in report.flagged()] \
            == [(1, MISSING, held)]
        assert report.flagged_count == 2
        assert not report.all_intact

        assert main(["audit", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "malformed|node1|1\n" in out
        assert "2 flagged" in out


class TestDuplicateLines:
    def test_forged_copy_above_original_is_flagged(self, tmp_path, capsys):
        sim, _, _ = clean_artifacts()
        sim.write_artifacts(tmp_path)
        hist = tmp_path / "historian1.txt"
        lines = hist.read_text().splitlines()
        name, minute, values = lines[0].split("|")
        first, *rest = values.split(",")
        forged = "|".join([name, minute, ",".join([str(int(first) + 1), *rest])])
        hist.write_text("\n".join([forged, *lines]) + "\n", encoding="utf-8")

        report = audit_directory(tmp_path)
        assert report.malformed == [(1, 2)]
        assert "malformed|node1|2\n" in report.to_text()
        assert [(f.node_id, f.verdict, f.key) for f in report.flagged()] \
            == [(1, MISMATCH, (name, minute))]
        assert not report.all_intact

        assert main(["audit", str(tmp_path)]) == 1
        assert "2 flagged" in capsys.readouterr().out

    def test_load_without_malformed_list_raises(self):
        _, _, historians = clean_artifacts(minutes=1)
        first = historians[1].splitlines()[0]
        with pytest.raises(DuplicateRecordError):
            Historian.load(1, f"{first}\n{first}\n")


class TestOracleEquivalence:
    def test_agrees_with_validator_on_tampered_state(self):
        report = run_scenario_a()
        audit = audit_artifacts(dump_chain(report.sim.chain_module.chain),
                                report.attacked_dumps)
        validator_flagged = {(1, f.key) for f in report.findings if f.verdict != "intact"}
        audit_flagged = {(f.node_id, f.key) for f in audit.flagged()}
        assert audit_flagged == validator_flagged

    def test_scenario_c_unindexed_vector_is_uncovered(self):
        report = run_scenario_c()
        sim = report.sim
        chain_text = dump_chain(sim.chain_module.chain)
        historians = {i: node.historian.dump() for i, node in sim.nodes.items()}
        audit = audit_artifacts(chain_text, historians)
        uncovered_keys = {key for _, key in audit.uncovered}
        assert ("Sensor 1", "2020-12-23T17:27") in uncovered_keys
        assert audit.flagged() == []


class TestAuditDirectory:
    def test_reads_standard_artifact_names(self, tmp_path):
        sim, _, _ = clean_artifacts(minutes=2)
        sim.write_artifacts(tmp_path)
        report = audit_directory(tmp_path)
        assert report.all_intact

    def test_missing_chain_dump_raises(self, tmp_path):
        with pytest.raises(IOError):
            audit_directory(tmp_path)

    def test_crlf_line_ends_are_malformed(self, tmp_path):
        """The files are read as bytes, so a `\r\n` reaches the strict parsers."""
        sim, _, _ = clean_artifacts(minutes=2)
        sim.write_artifacts(tmp_path)
        hist = tmp_path / "historian1.txt"
        hist.write_bytes(hist.read_bytes().replace(b"\n", b"\r\n", 1))
        report = audit_directory(tmp_path)
        assert report.malformed == [(1, 1)]
        assert not report.all_intact

        chain = tmp_path / "chain.txt"
        chain.write_bytes(chain.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(DumpFormatError):
            audit_directory(tmp_path)

    @pytest.mark.parametrize("stem", ["01", "001", "\u0661", "\u00b9"])
    def test_reads_only_names_the_run_writes(self, tmp_path, stem):
        """`historian<N>.txt` counts only with N in plain ASCII decimal, so a
        second spelling of a node id can neither replace nor stand in for
        that node's dump."""
        sim, _, _ = clean_artifacts(minutes=2)
        sim.write_artifacts(tmp_path)
        dump = tmp_path / "historian1.txt"
        forged = tmp_path / f"historian{stem}.txt"
        forged.write_text(bump_first_value(dump.read_text().splitlines()[0]) + "\n")
        assert audit_directory(tmp_path).all_intact

        dump.unlink()
        report = audit_directory(tmp_path)
        node1 = [f for f in report.findings if f.node_id == 1]
        assert node1 and {f.verdict for f in node1} == {MISSING}
        assert report.flagged() == node1

    def test_deleted_dump_of_a_listed_holder_holds_nothing(self, tmp_path):
        """A holder the ledger lists is audited as holding nothing when its
        dump is gone, as when its dump is empty: each of its duties is missing."""
        sim, _, _ = clean_artifacts(minutes=10)
        sim.write_artifacts(tmp_path)
        dump = tmp_path / "historian3.txt"
        dump.write_text("")
        emptied = audit_directory(tmp_path).to_text()

        dump.unlink()
        report = audit_directory(tmp_path)
        assert report.to_text() == emptied
        duties = [ix for block in sim.chain_module.chain.blocks for ix in block.indexes
                  if 3 in ix.replica_ids]
        assert [(f.node_id, f.verdict, f.expected_digest) for f in report.flagged()] \
            == [(3, MISSING, ix.vector_digest) for ix in duties]

    def test_no_dump_at_all_raises(self, tmp_path):
        sim, _, _ = clean_artifacts(minutes=2)
        sim.write_artifacts(tmp_path)
        for dump in tmp_path.glob("historian*.txt"):
            dump.unlink()
        with pytest.raises(IOError):
            audit_directory(tmp_path)

    def test_ignores_tampered_snapshot_files(self, tmp_path):
        run_scenario_a(outdir=tmp_path)
        report = audit_directory(tmp_path)
        # Post-recovery store is clean even though .tampered.txt snapshots sit
        # alongside the standard dumps.
        assert report.all_intact


@pytest.fixture(scope="module")
def pinned_artifacts():
    """Chain and historian dumps of the pinned seed-42 10-minute run."""
    _, chain_text, historians = clean_artifacts(minutes=10)
    texts = {"chain.txt": chain_text,
             **{f"historian{i}.txt": text for i, text in historians.items()}}
    for name, text in texts.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RUN_10_MINUTES_SEED_42[name]
    return chain_text, historians


def first_line_of_node1(historians):
    return historians[1].splitlines()[0]


def replace_line(text, old, new):
    return "".join(new + "\n" if line == old else line + "\n" for line in text.splitlines())


def bump_first_value(line):
    name, minute, values = line.split("|")
    first, *rest = values.split(",")
    return "|".join([name, minute, ",".join([str(int(first) + 1), *rest])])


def edited_at_one_holder(historians):
    line = first_line_of_node1(historians)
    historians[1] = replace_line(historians[1], line, bump_first_value(line))


def edited_at_every_holder(historians):
    line = first_line_of_node1(historians)
    for node_id, text in historians.items():
        historians[node_id] = replace_line(text, line, bump_first_value(line))


def non_canonical_at_one_holder(historians):
    line = first_line_of_node1(historians)
    name, minute, values = line.split("|")
    historians[1] = replace_line(historians[1], line, f"{name}|{minute}|0{values}")


def repeated_in_one_dump(historians):
    line = first_line_of_node1(historians)
    historians[1] = replace_line(historians[1], line, f"{line}\n{line}")


class TestSharedParse:
    """Holders of one record store the same line, and the audit parses it once."""

    def test_parse_canonical_runs_once_per_distinct_line(self, pinned_artifacts, monkeypatch):
        chain_text, historians = pinned_artifacts
        calls = []

        def counting_parse(data):
            calls.append(data)
            return parse_canonical(data)

        monkeypatch.setattr(storage, "parse_canonical", counting_parse)
        report = audit_artifacts(chain_text, historians)
        assert report.all_intact
        lines = [line for text in historians.values() for line in text.splitlines()]
        assert len(lines) == 3 * len(set(lines))
        assert sorted(calls) == sorted(line.encode("utf-8") for line in set(lines))

    # SHA-256 of AuditReport.to_text() for each edit, as the audit gave it
    # before holders shared parsed lines.
    @pytest.mark.parametrize("edit, expected", [
        (edited_at_one_holder, "cbc162f8ed37d4652cea8478c0a6a80e2c3e56fd926ea0f028b9b87b8c1192b2"),
        (edited_at_every_holder, "6935a55e4920ccf7dd6b0c26f4388cc7f0681eb708a5c4b1021260d38a6521ed"),
        (non_canonical_at_one_holder, "dd8e744d56ebd33480b6b5e72239cbfc51d95eb7f16e872fc4a6c015ed100faa"),
        (repeated_in_one_dump, "382e324074c2c44b926f7c580f96d91a760dafb0de96fa77b15ff689af187cdc"),
    ], ids=["edited_at_one_holder", "edited_at_every_holder", "non_canonical_at_one_holder",
            "repeated_in_one_dump"])
    def test_report_unchanged_by_shared_parse(self, pinned_artifacts, edit, expected):
        chain_text, historians = pinned_artifacts
        historians = dict(historians)
        edit(historians)
        text = audit_artifacts(chain_text, historians).to_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def rehashed(chain_text, position, edit):
    """The chain dump with the indexes of block `position` replaced by
    `edit(indexes)` and every block re-minted, so the chain verifies."""
    chain = Chain()
    for pos, block in enumerate(parse_chain_dump(chain_text).blocks[1:], 1):
        indexes = edit(block.indexes) if pos == position else block.indexes
        chain.append(make_block(indexes, chain.tip.block_hash, block.minted_at))
    return dump_chain(chain)


class TestMatcherEdges:
    """Ledgers no minter writes, re-hashed so they verify: a digest held under
    another minute, and one digest indexed twice."""

    def test_index_moved_to_another_minute_is_not_intact(self, pinned_artifacts):
        chain_text, historians = pinned_artifacts
        chain = parse_chain_dump(chain_text)
        first = chain.blocks[1].indexes[0]
        later = chain.blocks[-1].indexes[0].captured_at
        assert later != first.captured_at
        moved = LedgerIndex(first.vector_digest, later, first.replica_ids)
        edited = rehashed(chain_text, 1, lambda indexes: (moved, *indexes[1:]))
        (line,) = [line for line in historians[first.replica_ids[0]].splitlines()
                   if hashlib.sha256(line.encode()).hexdigest() == first.vector_digest]

        report = audit_artifacts(edited, historians)
        assert report.chain_issue is None
        holders = sorted(first.replica_ids)
        assert [(f.node_id, f.verdict, f.expected_digest) for f in report.flagged()] \
            == [(node_id, MISSING, first.vector_digest) for node_id in holders]
        key = tuple(line.split("|")[:2])
        assert report.uncovered == [(node_id, key) for node_id in holders]

    def test_two_indexes_with_one_digest_leave_only_the_first_intact(self, pinned_artifacts):
        chain_text, historians = pinned_artifacts
        chain = parse_chain_dump(chain_text)
        repeated = chain.blocks[2].indexes[0]
        chain.append(make_block([repeated], chain.tip.block_hash,
                                chain.tip.minted_at + timedelta(minutes=1)))

        report = audit_artifacts(dump_chain(chain), historians)
        assert report.chain_issue is None and report.uncovered == []
        for node_id in repeated.replica_ids:
            verdicts = [f.verdict for f in report.findings if f.node_id == node_id
                        and f.expected_digest == repeated.vector_digest]
            assert verdicts == [INTACT, MISSING]
        assert len(report.flagged()) == len(repeated.replica_ids)


def damaged_set():
    """Dumps of a seed-7 4-minute run with one damage of each kind the audit
    reports, each at a different node."""
    _, chain_text, historians = clean_artifacts(minutes=4, seed=7)
    lines = {i: text.splitlines() for i, text in historians.items()}
    # Two records at one minute on one node: forge the first of them, so the
    # intact second one must keep its own verdict.
    node, pos = next((i, p) for i in sorted(lines) for p in range(len(lines[i]) - 1)
                     if lines[i][p].split("|")[1] == lines[i][p + 1].split("|")[1])
    lines[node][pos] = bump_first_value(lines[node][pos])
    others = [i for i in sorted(lines) if i != node]
    del lines[others[0]][-1]                                # missing
    lines[others[1]][0] = "garbage"                         # malformed
    lines[others[2]].insert(0, bump_first_value(lines[others[2]][0]))  # duplicate key
    lines[others[3]].append("Sensor 1|2020-12-23T18:00|1,2,3")         # uncovered
    return chain_text, {i: "".join(line + "\n" for line in ls) for i, ls in lines.items()}


# SHA-256 of the damaged set's AuditReport.to_text(), as the audit gave it
# before the per-line rewrite of the parser, the loader and the duty loop.
DAMAGED_SET_REPORT = "51972fbec8e06c745c77751b635c89d16d0672230be26f84517a617d75dacbc8"


def test_damaged_set_report_pinned():
    report = audit_artifacts(*damaged_set())
    verdicts = {f.verdict for f in report.findings}
    assert verdicts == {INTACT, MISMATCH, MISSING}
    assert len(report.malformed) == 2 and report.uncovered
    text = report.to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DAMAGED_SET_REPORT, text


def test_every_finding_hashes_its_record(monkeypatch):
    """No digest is cached: auditing the damaged set calls vector_digest at
    least once per finding. Holders share parsed records, so a digest kept
    per record would make about a third as many calls."""
    calls = []

    def counting_digest(vector):
        calls.append(vector.key)
        return vector_digest(vector)

    monkeypatch.setattr(audit, "vector_digest", counting_digest)
    report = audit_artifacts(*damaged_set())
    assert len(calls) >= len(report.findings)
