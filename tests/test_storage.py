"""Storage node tests: register, replication, serving, validation, recovery."""

import dataclasses
import random
import re
import tempfile
from collections import Counter
from datetime import datetime, timedelta

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from histchain import events as ev
from histchain import storage
from histchain.audit import audit_directory
from histchain.attacks import flip_body_bytes, run_plan, run_scenario_a
from histchain.config import SimConfig, fmt_minute
from histchain.envelope import (
    Digest,
    KeyDirectory,
    MeasurementVector,
    canonical_serialize,
    generate_node_keys,
    open_envelope,
    seal,
    vector_digest,
)
from histchain.events import EventLog
from histchain.ledger import Chain, LedgerIndex, make_block
from histchain.sim import Simulation
from histchain.storage import (
    INTACT,
    Historian,
    StorageNode,
    TAMPERED_RECOVERED,
    TAMPERED_UNRECOVERABLE,
)
from histchain.wire import INDEX, LOG, MEASUREMENT, REPLICA_REQ, REPLICA_RESP
from .helpers import (
    BLOCK_MUTATIONS,
    deliver,
    flip_body,
    flip_hex_char,
    mutate_block,
    mutated_chain,
)

TS = datetime(2020, 12, 23, 17, 27)
VEC = MeasurementVector("Sensor 1", TS, (7, 6, 6, 7, 7, 6, 7, 6, 6, 6, 7))


class StubTransport:
    def __init__(self):
        self.sent = []

    def send(self, dst, msg_type, env):
        self.sent.append((dst, msg_type, env))

    def round_trip(self, dst, msg_type, env):
        return None


def standalone_node(node_id=1):
    rng = random.Random(0)
    directory = KeyDirectory()
    keys = {}
    for name in ("plc1", f"node{node_id}", "chain"):
        keys[name] = generate_node_keys(name, rng)
        directory.register(keys[name])
    transport = StubTransport()
    node = StorageNode(node_id, keys[f"node{node_id}"], directory, transport,
                       EventLog(), rng)
    return node, keys, transport


def sealed_measurement(keys, vector=VEC, sender="plc1", recipient="node1"):
    return seal(canonical_serialize(vector), keys[sender], recipient,
                keys[recipient].enc_pub, random.Random(1))


class TestRegister:
    def test_authentic_vector_stored_and_indexed(self):
        node, keys, transport = standalone_node()
        node.register("plc1", canonical_serialize(VEC))
        assert node.pending_submissions == {vector_digest(VEC): "2020-12-23T17:27"}
        assert len(node.historian) == 1
        record = node.historian.get(("Sensor 1", "2020-12-23T17:27"))
        assert record.values == VEC.values
        assert [(r.code, r.detail) for r in node.events.records] == [
            (ev.STORED, f"stored Sensor 1@2020-12-23T17:27 from plc1; "
                        f"digest={vector_digest(VEC)}")]
        # Index submission forwarded to the minting module.
        assert len(transport.sent) == 1
        dst, msg_type, env = transport.sent[0]
        assert dst == "chain"
        plaintext = open_envelope(env, keys["chain"], keys["node1"].sig_pub)
        digest_hex, minute = plaintext.decode().split("|")
        assert digest_hex == vector_digest(VEC)
        assert minute == "2020-12-23T17:27"

    def test_tampered_envelope_rejected_nothing_stored(self):
        """The intake refuses the frame; nothing is stored or indexed."""
        sim = Simulation(SimConfig(seed=42))
        deliver(sim, "plc1", "node1", MEASUREMENT,
                flip_body(sealed_measurement(sim.keystore), 0xFF))
        sim.network.pump(sim._deliver)
        assert len(sim.historian(1)) == 0
        assert sim.chain_module.buffer == []
        alarms = sim.events.alarms()
        assert [(r.actor, r.code) for r in alarms] == [("node1", ev.DIGEST_MISMATCH)]
        assert "rebuilt=" in alarms[0].detail

    def test_duplicate_key_rejected(self):
        node, keys, transport = standalone_node()
        node.register("plc1", canonical_serialize(VEC))
        node.register("plc1", canonical_serialize(VEC))
        assert len(node.historian) == 1
        assert len(node.events.by_code(ev.DUPLICATE_RECORD, "node1")) == 1
        assert len(transport.sent) == 1

    def test_rejected_envelopes_never_mutate_store(self):
        sim = Simulation(SimConfig(seed=42))
        deliver(sim, "plc1", "node1", MEASUREMENT, sealed_measurement(sim.keystore))
        size = len(sim.historian(1))
        for pos in (0, 40, 100, -1):
            env = sealed_measurement(sim.keystore)
            ct = bytearray(env.ciphertext)
            ct[pos] ^= 0x01
            deliver(sim, "plc1", "node1", MEASUREMENT,
                    dataclasses.replace(env, ciphertext=bytes(ct)))
            assert len(sim.historian(1)) == size
        assert not sim.events.by_code(ev.DUPLICATE_RECORD)

    @pytest.mark.parametrize("brk", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"], ids=repr)
    def test_line_break_in_name_is_malformed_payload(self, brk):
        node, keys, transport = standalone_node()
        payload = f"Sensor{brk}1|2020-12-23T17:27|7,6".encode("utf-8")
        node.register("plc1", payload)
        assert node.pending_submissions == {}
        assert len(node.historian) == 0
        assert transport.sent == []
        assert len(node.events.by_code(ev.MALFORMED_PAYLOAD, "node1")) == 1


class TestHistorian:
    def test_dump_load_round_trip(self):
        historian = Historian(1)
        historian.put_new(MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 26), (2, 5)))
        historian.put_new(MeasurementVector("Sensor 2", datetime(2020, 12, 23, 17, 28), (4, 4)))
        text = historian.dump()
        assert text == "Sensor 1|2020-12-23T17:26|2,5\nSensor 2|2020-12-23T17:28|4,4\n"
        loaded = Historian.load(1, text)
        assert [r.key for r in loaded.records()] == [r.key for r in historian.records()]

    def test_dump_groups_records_by_minute(self):
        m1, m2 = datetime(2020, 12, 23, 17, 26), datetime(2020, 12, 23, 17, 27)
        historian = Historian(1)
        historian.put_new(MeasurementVector("Sensor 1", m1, (1,)))
        historian.put_new(MeasurementVector("Sensor 2", m1, (2,)))
        historian.put_new(MeasurementVector("Sensor 1", m2, (3,)))
        historian.delete(("Sensor 1", "2020-12-23T17:26"))
        historian.put_new(MeasurementVector("Sensor 1", m1, (1,)))
        assert historian.dump() == ("Sensor 2|2020-12-23T17:26|2\n"
                                    "Sensor 1|2020-12-23T17:26|1\n"
                                    "Sensor 1|2020-12-23T17:27|3\n")
        # A minute emptied by delete is forgotten: restored, it comes last.
        historian.delete(("Sensor 1", "2020-12-23T17:26"))
        historian.delete(("Sensor 2", "2020-12-23T17:26"))
        historian.put_new(MeasurementVector("Sensor 1", m1, (1,)))
        assert historian.dump() == ("Sensor 1|2020-12-23T17:27|3\n"
                                    "Sensor 1|2020-12-23T17:26|1\n")
        assert len(historian) == 2

    def test_at_time_filters(self):
        historian = Historian(1)
        historian.put_new(MeasurementVector("Sensor 1", TS, (1,)))
        historian.put_new(MeasurementVector("Sensor 2", TS, (2,)))
        historian.put_new(MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 28), (3,)))
        assert len(historian.at_time("2020-12-23T17:27")) == 2


def planned_sim(seed=17):
    sim = Simulation(SimConfig(seed=seed))
    run_plan(sim, 2, {0: [{"plc1": [2, 5], "plc2": [9, 9]}],
                      1: [{"plc1": [6, 7, 7, 6], "plc2": [4, 4, 5]}]})
    return sim


def indexes_of(sim):
    return [ix for b in sim.chain_module.chain.blocks for ix in b.indexes]


class TestReplication:
    def test_every_vector_on_exactly_listed_nodes(self):
        sim = planned_sim()
        for ix in indexes_of(sim):
            minute = fmt_minute(ix.captured_at)
            holders = [
                nid for nid, node in sim.nodes.items()
                if any(vector_digest(r) == ix.vector_digest
                       for r in node.historian.at_time(minute))
            ]
            assert sorted(holders) == sorted(ix.replica_ids)

    def test_unlisted_node_takes_no_copy(self):
        sim = planned_sim()
        for ix in indexes_of(sim):
            for nid in sim.nodes:
                if nid not in ix.replica_ids:
                    records = sim.nodes[nid].historian.at_time(fmt_minute(ix.captured_at))
                    assert all(vector_digest(r) != ix.vector_digest for r in records)

    def test_corrupted_log_announcement_ignored_with_alarm(self):
        """The intake's one alarm is all that happens: nothing is pulled."""
        sim = planned_sim()
        tip = sim.chain_module.chain.tip.block_hash
        env = seal(tip.encode(), sim.keystore["chain"], "node3",
                   sim.keystore["node3"].enc_pub, random.Random(8))
        records_before = len(sim.events)
        deliver(sim, "chain", "node3", LOG, flip_body(env, 0x40))
        new = sim.events.records[records_before:]
        assert [(r.actor, r.code) for r in new] == [("node3", ev.DIGEST_MISMATCH)]

    def test_log_naming_unknown_block_alarms_and_pulls_nothing(self):
        sim = planned_sim()
        node = sim.nodes[3]
        dump = node.historian.dump()
        records_before = len(sim.events)
        node.handle_log(b"ab" * 32, sim.chain_module.chain)
        new = sim.events.records[records_before:]
        assert [(r.actor, r.severity, r.code) for r in new] == [
            ("node3", ev.ALARM, ev.STALE_LOG)]
        assert node.historian.dump() == dump

    def test_corrupted_replica_response_not_stored(self):
        # Corrupt every replica answer leaving node1; pullers must reject the
        # copy, alarm, and fall back to the other holder when one is listed.
        from histchain.attacks import flip_body_bytes
        from histchain.wire import REPLICA_RESP
        sim = Simulation(SimConfig(seed=17))
        for nid in range(2, 7):
            sim.install_interceptor("node1", f"node{nid}", flip_body_bytes(REPLICA_RESP))
        run_plan(sim, 1, {0: [{"plc1": [2, 5], "plc2": None}]})
        (ix,) = indexes_of(sim)
        assert ix.replica_ids[0] == 1
        mismatches = [r for r in sim.events.records if r.code == ev.REPLICA_MISMATCH]
        assert mismatches, "corrupted replica answers must raise alarms"
        for nid in ix.replica_ids[1:]:
            records = sim.nodes[nid].historian.at_time(fmt_minute(ix.captured_at))
            assert all(vector_digest(r) != ix.vector_digest for r in records) or \
                sim.events.by_code(ev.REPLICA_STORED, f"node{nid}")

    def test_pull_keeps_intact_copy_and_replaces_tampered_one(self):
        sim = planned_sim()
        chain = sim.chain_module.chain
        block = chain.tip
        ix = block.indexes[0]
        holder = sim.nodes[ix.replica_ids[1]]
        (record,) = [r for r in holder.historian.at_time(fmt_minute(ix.captured_at))
                     if vector_digest(r) == ix.vector_digest]
        key = record.key
        announcement = block.block_hash.encode()

        dump = holder.historian.dump()
        stored_before = len(sim.events.by_code(ev.REPLICA_STORED, holder.name))
        holder.handle_log(announcement, chain)
        holder.validate_cycle(chain)
        assert holder.historian.dump() == dump
        assert len(sim.events.by_code(ev.REPLICA_STORED, holder.name)) > stored_before

        holder.historian.tamper(key, (99,))
        holder.handle_log(announcement, chain)
        holder.validate_cycle(chain)
        assert vector_digest(holder.historian.get(key)) == ix.vector_digest
        assert holder.historian.dump() == dump

    @pytest.mark.parametrize("damaged, not_found", [(False, ()), (True, ("node2",)),
                                                    (True, ("node2", "node3"))],
                             ids=["pull_none_answer", "recovery_one_silent",
                                  "recovery_none_silent"])
    def test_unrecoverable_only_if_every_holder_answers(self, damaged, not_found):
        """node1 pulls its replica of VEC, or recovers its damaged origin
        record; of the other holders node2 and node3, those in `not_found`
        answer NotFound and the rest never answer."""
        node, keys, transport = standalone_node()
        holders = {name: generate_node_keys(name, random.Random(name))
                   for name in ("node2", "node3")}
        for holder in holders.values():
            node.directory.register(holder)
        transport.round_trip = lambda dst, msg_type, env: (
            seal(storage.NOT_FOUND_MARKER, holders[dst], "node1", keys["node1"].enc_pub,
                 random.Random(dst)) if dst in not_found else None)
        chain = Chain()
        chain.append(make_block([LedgerIndex(vector_digest(VEC), TS,
                                             (1, 2, 3) if damaged else (2, 1, 3))],
                                chain.tip.block_hash, TS))
        if damaged:
            node.historian.put_new(dataclasses.replace(VEC, values=(0,)))
        node.handle_log(chain.tip.block_hash.encode(), chain)
        (finding,) = node.validate_cycle(chain)
        lost = len(not_found) == 2
        assert [r.code for r in node.events.alarms()] == [
            *[ev.FDI_ALARM] * damaged, *[ev.REPLICA_NO_RESPONSE] * (2 - len(not_found)),
            ev.UNRECOVERABLE if lost else ev.REPLICA_PENDING]
        assert finding.verdict == (TAMPERED_UNRECOVERABLE if lost else storage.REPLICA_PENDING)
        assert list(node.owed) == ([] if lost else [vector_digest(VEC)])
        assert node.lost == ({vector_digest(VEC)} if lost else set())
        assert len(node.historian) == damaged


class TestServeReplica:
    def test_present_key_served_sealed(self):
        sim = planned_sim()
        (first, *_) = indexes_of(sim)
        origin = sim.nodes[first.replica_ids[0]]
        requester = sim.nodes[first.replica_ids[1]]
        vector = requester._request_vector(origin.node_id, first)
        assert vector is not None
        assert vector_digest(vector) == first.vector_digest

    def test_absent_key_not_found(self):
        sim = planned_sim()
        missing = LedgerIndex(
            vector_digest(MeasurementVector("Sensor 9", TS, (1, 2))),
            datetime(2021, 1, 1, 0, 0), (1, 2, 3))
        assert sim.nodes[2]._request_vector(1, missing) == storage.NOT_FOUND_MARKER
        assert sim.events.by_code(ev.REPLICA_NOT_FOUND, "node2")

    def test_authentic_answer_that_is_not_a_record_not_stored(self):
        sim = planned_sim()
        (first, *_) = indexes_of(sim)
        origin = sim.nodes[first.replica_ids[0]]
        requester = sim.nodes[first.replica_ids[1]]
        origin.serve_replica = lambda sender, _: origin._seal_to(sender, b"not a record")
        dump = requester.historian.dump()
        records_before = len(sim.events)
        assert requester._request_vector(origin.node_id, first) == storage.NOT_FOUND_MARKER
        new = sim.events.records[records_before:]
        assert [(r.actor, r.code) for r in new] == [(requester.name, ev.REPLICA_MISMATCH)]
        assert "unparseable" in new[0].detail
        assert requester.historian.dump() == dump

    def test_holder_with_a_tampered_copy_answers_not_found(self):
        """Only the exact digest asked for is answered: a tampered copy is
        its holder's validator's to catch, not an alarm against that holder."""
        sim = planned_sim()
        (first, *_) = indexes_of(sim)
        origin, requester = (sim.nodes[n] for n in first.replica_ids[:2])
        (record,) = [r for r in origin.historian.at_time(first.minute)
                     if vector_digest(r) == first.vector_digest]
        origin.historian.tamper(record.key, (0, 0))
        records_before = len(sim.events)
        assert requester._request_vector(origin.node_id, first) == storage.NOT_FOUND_MARKER
        new = sim.events.records[records_before:]
        assert [(r.actor, r.code) for r in new] == [(requester.name, ev.REPLICA_NOT_FOUND)]

    def test_mangled_request_no_data_leaves(self):
        sim = planned_sim()
        env = seal(b"junk-request", sim.keystore["plc1"], "node1",
                   sim.keystore["node1"].enc_pub, random.Random(6))
        assert deliver(sim, "plc1", "node1", REPLICA_REQ, flip_body(env, 0xAA)) is None
        alarms = sim.events.alarms()
        assert [(r.actor, r.code) for r in alarms] == [("node1", ev.REPLICA_REQUEST_REJECTED)]

    @pytest.mark.parametrize("digest_hex", ["not-hex", "AB" * 32, "ab" * 31],
                             ids=["not_hex", "uppercase", "short"])
    def test_authentic_request_with_bad_digest_rejected(self, digest_hex):
        node, _, _ = standalone_node()
        node.register("plc1", canonical_serialize(VEC))
        request = f"{digest_hex}|2020-12-23T17:27".encode("ascii")
        assert node.serve_replica("node2", request) is None
        assert node.events.by_code(ev.REPLICA_REQUEST_REJECTED, "node1")


class TestValidateAndRecover:
    def test_clean_store_all_intact(self):
        sim = planned_sim()
        for node in sim.nodes.values():
            findings = node.validate_cycle(sim.chain_module.chain)
            assert all(f.verdict == "intact" for f in findings)

    def test_tampered_record_detected_and_recovered(self):
        sim = planned_sim()
        key = ("Sensor 1", "2020-12-23T17:26")
        original = sim.historian(1).get(key).values
        sim.historian(1).tamper(key, (2, 1))
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        flagged = [f for f in findings if f.verdict != "intact"]
        assert [f.key for f in flagged] == [key]
        assert flagged[0].verdict == TAMPERED_RECOVERED
        assert sim.historian(1).get(key).values == original
        assert sim.events.by_code(ev.FDI_ALARM, "node1")
        assert sim.events.by_code(ev.RECOVERED, "node1")

    def test_deleted_record_recovered_via_replica_pull(self):
        sim = planned_sim()
        key = ("Sensor 1", "2020-12-23T17:26")
        original = sim.historian(1).get(key).values
        sim.historian(1).delete(key)
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        flagged = [f for f in findings if f.verdict != "intact"]
        assert len(flagged) == 1 and flagged[0].verdict == TAMPERED_RECOVERED
        assert sim.historian(1).get(key).values == original

    def test_recovery_order_skips_corrupt_holder(self):
        sim = planned_sim()
        key = ("Sensor 1", "2020-12-23T17:26")
        target = next(ix for ix in indexes_of(sim)
                      if fmt_minute(ix.captured_at) == key[1]
                      and ix.replica_ids[0] == 1)
        second = target.replica_ids[1]
        third = target.replica_ids[2]
        sim.historian(1).tamper(key, (0, 0))
        sim.historian(second).tamper(key, (0, 0))
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        flagged = [f for f in findings if f.verdict != "intact"]
        assert flagged[0].recovered_from == third

    def test_all_copies_corrupt_unrecoverable(self):
        sim = planned_sim()
        key = ("Sensor 1", "2020-12-23T17:26")
        target = next(ix for ix in indexes_of(sim)
                      if fmt_minute(ix.captured_at) == key[1]
                      and ix.replica_ids[0] == 1)
        for nid in target.replica_ids:
            sim.historian(nid).tamper(key, (0, 0))
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        flagged = [f for f in findings if f.verdict != "intact"]
        assert flagged[0].verdict == TAMPERED_UNRECOVERABLE
        assert sim.events.by_code(ev.UNRECOVERABLE, "node1")

    def test_invalid_chain_aborts_cycle(self):
        sim = planned_sim()
        broken = mutated_chain(sim.chain_module.chain, 1, "index_digest")
        findings = sim.nodes[1].validate_cycle(broken)
        assert findings == []
        assert sim.events.by_code(ev.CHAIN_INVALID, "node1")

    def test_no_false_alarms_without_adversary(self):
        sim = planned_sim()
        before = len(sim.events.alarms())
        for node in sim.nodes.values():
            node.validate_cycle(sim.chain_module.chain)
        assert len(sim.events.alarms()) == before == 0


class TestNodeWipe:
    def test_wiped_nodes_raise_no_alarm_against_an_honest_holder(self):
        """Seed 42, 160 minutes; then every record of nodes 1-3 is deleted and
        one cycle runs on each. A holder asked for a record it does not hold
        intact answers NotFound, never its other sensor's row of that minute,
        so no REPLICA_MISMATCH names an honest peer. 99 records are lost:
        those whose every holder was wiped."""
        sim = Simulation(SimConfig(seed=42))
        sim.run(160)
        for node_id in (1, 2, 3):
            for record in sim.historian(node_id).records():
                sim.historian(node_id).delete(record.key)
        records_before = len(sim.events)
        for node_id in (1, 2, 3):
            sim.nodes[node_id].validate_cycle(sim.chain_module.chain)
        codes = Counter(r.code for r in sim.events.records[records_before:])
        assert codes[ev.REPLICA_MISMATCH] == 0
        assert [codes[c] for c in (ev.FDI_ALARM, ev.RECOVERED, ev.UNRECOVERABLE,
                                   ev.REPLICA_NOT_FOUND)] == [582, 483, 99, 330]


class TestCheckSummary:
    """One CHECK_OK per node per completed cycle; anomalies stay per record."""

    @staticmethod
    def summary(checked, intact, chain_len):
        return f"checked={checked} intact={intact} chain_len={chain_len}"

    def test_one_line_per_node_per_interval(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(5)
        blocks = sim.chain_module.chain.blocks
        for node_id in sim.nodes:
            lines = sim.events.by_code(ev.CHECK_OK, f"node{node_id}")
            assert len(lines) == 5
            for k, line in enumerate(lines):
                assert line.tick == (k + 1) * sim.cfg.interval_ticks - 1
                held = sum(node_id in ix.replica_ids
                           for block in blocks[:k + 2] for ix in block.indexes)
                assert line.detail == self.summary(held, held, k + 2)

    def test_tamper_shows_in_the_next_cycle(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(5)
        ix = sim.chain_module.chain.blocks[2].indexes[0]
        node = sim.nodes[ix.replica_ids[1]]
        (record,) = [r for r in node.historian.at_time(ix.minute)
                     if vector_digest(r) == ix.vector_digest]
        node.historian.tamper(record.key, [v + 1 for v in record.values])
        before = len(sim.events)
        sim.run(1)
        cycle = [r for r in sim.events.records[before:] if r.actor == node.name]
        codes = [r.code for r in cycle]
        assert codes[-3:] == [ev.FDI_ALARM, ev.RECOVERED, ev.CHECK_OK]
        assert codes.count(ev.CHECK_OK) == 1
        # The interval's block adds the indexes of the new minute; the
        # summary counts the tampered one as not intact.
        held = len(held_indexes(sim, node.node_id))
        assert cycle[-1].detail == self.summary(held, held - 1, 7)

    def test_aborted_cycle_logs_no_summary(self):
        sim = planned_sim()
        broken = mutated_chain(sim.chain_module.chain, 1, "index_digest")
        before = len(sim.events.by_code(ev.CHECK_OK, "node1"))
        assert sim.nodes[1].validate_cycle(broken) == []
        assert len(sim.events.by_code(ev.CHECK_OK, "node1")) == before


def held_indexes(sim, node_id):
    return [ix for ix in indexes_of(sim) if node_id in ix.replica_ids]


class TestIncrementalVerification:
    """A cycle that already verified the live chain must still catch later edits."""

    def validated_sim(self):
        sim = planned_sim()
        for node in sim.nodes.values():
            assert len(node.validate_cycle(sim.chain_module.chain)) == \
                len(held_indexes(sim, node.node_id))
        assert not sim.events.alarms()
        return sim

    @pytest.mark.parametrize("kind", BLOCK_MUTATIONS)
    @pytest.mark.parametrize("position", [1, -1])
    def test_block_replaced_in_place(self, kind, position):
        sim = self.validated_sim()
        chain = sim.chain_module.chain
        chain.blocks[position] = mutate_block(chain.blocks[position], kind)
        for node in sim.nodes.values():
            assert node.validate_cycle(chain) == []
            assert sim.events.by_code(ev.CHAIN_INVALID, node.name)

    def test_bad_block_appended_behind_chain_append(self):
        sim = self.validated_sim()
        chain = sim.chain_module.chain
        block = make_block(chain.tip.indexes, chain.tip.block_hash, chain.tip.minted_at)
        chain.blocks.append(dataclasses.replace(
            block, block_hash=Digest(flip_hex_char(block.block_hash))))
        assert sim.nodes[1].validate_cycle(chain) == []
        assert sim.events.by_code(ev.CHAIN_INVALID, "node1")

    def test_tampered_record_caught_and_every_held_record_rehashed(self, monkeypatch):
        sim = self.validated_sim()
        node = sim.nodes[1]
        held = held_indexes(sim, 1)
        ix = held[0]
        record = next(r for r in node.historian.at_time(fmt_minute(ix.captured_at))
                      if vector_digest(r) == ix.vector_digest)
        node.historian.tamper(record.key, [v + 1 for v in record.values])

        calls = []
        original = storage.vector_digest

        def counting(vector, *args, **kwargs):
            calls.append(vector.key)
            return original(vector, *args, **kwargs)

        monkeypatch.setattr(storage, "vector_digest", counting)
        findings = node.validate_cycle(sim.chain_module.chain)
        assert sim.events.by_code(ev.FDI_ALARM, "node1")
        assert sim.events.by_code(ev.RECOVERED, "node1")
        assert [f.verdict for f in findings].count(TAMPERED_RECOVERED) == 1
        assert len(findings) == len(held)
        assert len(calls) >= len(held)
        assert {fmt_minute(ix.captured_at) for ix in held} <= {key[1] for key in calls}
        assert node.historian.get(record.key) == record


class TestDigestLookup:
    """A cycle hashes every held record once, then looks each duty up by
    digest; the findings are those of a per-duty look at the store."""

    def test_every_held_record_hashed_once_per_cycle(self, monkeypatch):
        """Scenario A's uncovered Sensor 9 row shares its minute with a
        covered Sensor 1 record; it is hashed all the same. Hashes taken
        while the walk asks for a copy (the answer, and the holder serving
        it) are counted apart, and every replica the cycle pulls is hashed
        there as it arrives."""
        hashed, asked, asking, cycles = [], [], [], []
        digest, validate = storage.vector_digest, StorageNode.validate_cycle
        recover = StorageNode.recover

        def counting(vector):
            (asked if asking else hashed).append(vector.key)
            return digest(vector)

        def asking_for(node, ix):
            asking.append(ix)
            try:
                return recover(node, ix)
            finally:
                asking.pop()

        def watched(node, chain):
            held = sorted(r.key for r in node.historian.records())
            hashed.clear()
            asked.clear()
            findings = validate(node, chain)
            pulled = sorted(r.key for r in node.historian.records() if r.key not in held)
            cycles.append((node.node_id, held, sorted(hashed), pulled))
            assert set(pulled) <= set(asked)
            return findings

        monkeypatch.setattr(storage, "vector_digest", counting)
        monkeypatch.setattr(StorageNode, "recover", asking_for)
        monkeypatch.setattr(StorageNode, "validate_cycle", watched)
        assert run_scenario_a(uncovered=True).passed
        node_id, held, _, _ = cycles[-1]
        assert node_id == 1 and "Sensor 9" in {name for name, _ in held}
        assert [got for _, _, got, _ in cycles] == [held for _, held, _, _ in cycles]
        assert any(pulled for *_, pulled in cycles)

    def test_digest_held_under_another_minute_is_not_intact(self):
        sim = planned_sim()
        chain = sim.chain_module.chain
        first, *_, last = sim.historian(1).records()
        assert first.key[1] != last.key[1]
        moved = LedgerIndex(vector_digest(first), last.captured_at, (1, 2, 3))
        chain.append(make_block([moved], chain.tip.block_hash,
                                chain.tip.minted_at + timedelta(minutes=1)))
        sim.nodes[1].handle_log(chain.tip.block_hash.encode(), chain)
        findings = sim.nodes[1].validate_cycle(chain)
        assert findings[0].key[1] == last.key[1]
        assert findings[0].verdict == TAMPERED_UNRECOVERABLE
        assert all(f.verdict == INTACT for f in findings[1:])
        assert [r.code for r in sim.events.alarms() if r.actor == "node1"][0] == ev.FDI_ALARM

    def test_two_tampered_records_both_recovered(self):
        sim = planned_sim()
        node = sim.nodes[1]
        duties = [ix for b in reversed(sim.chain_module.chain.blocks) for ix in b.indexes
                  if 1 in ix.replica_ids]
        originals = node.historian.records()[:2]
        for record in originals:
            node.historian.tamper(record.key, (0, 0))
        tampered = {vector_digest(r) for r in originals}
        before = len(sim.events)
        findings = node.validate_cycle(sim.chain_module.chain)
        expected = [
            (INTACT, None) if ix.vector_digest not in tampered
            else (TAMPERED_RECOVERED, ix.replica_ids[1])
            for ix in duties
        ]
        assert [(f.verdict, f.recovered_from) for f in findings] == expected
        assert [f.key[1] for f in findings] == [ix.minute for ix in duties]
        codes = [(r.actor, r.code) for r in sim.events.records[before:]]
        assert codes == [("node1", ev.FDI_ALARM), ("node1", ev.RECOVERED)] * 2 + \
            [("node1", ev.CHECK_OK)]
        assert [node.historian.get(r.key) for r in originals] == originals


# The sensor whose vectors each PLC-fed node registers and submits.
ORIGIN_SENSOR = {1: "Sensor 1", 2: "Sensor 2"}
INDEX_FATES = {"pass": None, "drop": lambda frame: None, "flip": flip_body_bytes(INDEX)}


def run_settling(sim, windows, minutes):
    """Run `minutes` intervals through run_plan, one at a time;
    after each, no node has a submission left pending."""
    for _ in range(minutes):
        run_plan(sim, 1, windows)
        assert [n.pending_submissions for n in sim.nodes.values()] == [{}] * len(sim.nodes)


def registered(sim, node_id):
    """Digest hex of each vector `node_id` registered from its PLC, by interval."""
    records = {r.key[1]: r for r in sim.historian(node_id).records()
               if r.sensor_name == ORIGIN_SENSOR[node_id]}
    return [vector_digest(records[fmt_minute(sim.interval_ts(k))])
            for k in range(sim.intervals_run)]


def coverage_gaps(sim, node_id):
    """(interval, digest hex) of each COVERAGE_GAP `node_id` raised."""
    return [(r.tick // sim.cfg.interval_ticks, r.detail.split()[1])
            for r in sim.events.by_code(ev.COVERAGE_GAP, f"node{node_id}")]


def minted_digests(sim):
    return {ix.vector_digest for ix in indexes_of(sim)}


class TestSubmissionSettlement:
    """Each node's validator cycle settles the submissions of its interval
    against the tip, minted or not, LOG or no LOG: each one the ledger lacks
    raises one COVERAGE_GAP in the interval it was lost."""

    def lost_in(self, sim, node_id, intervals):
        return [(k, registered(sim, node_id)[k]) for k in intervals]

    def test_every_index_dropped_gaps_each_interval(self):
        sim = Simulation(SimConfig(seed=42))
        drop = INDEX_FATES["drop"]
        run_settling(sim, {k: [("node1", "chain", drop), ("node2", "chain", drop)]
                           for k in range(3)}, 3)
        assert len(sim.chain_module.chain) == 1
        for node_id in (1, 2):
            assert coverage_gaps(sim, node_id) == self.lost_in(sim, node_id, range(3))
        assert len(sim.events.alarms()) == 6

    def test_index_bodies_flipped_in_last_interval_gap_there(self):
        sim = Simulation(SimConfig(seed=42))
        flip = INDEX_FATES["flip"]
        run_settling(sim, {2: [("node1", "chain", flip), ("node2", "chain", flip)]}, 3)
        for node_id in (1, 2):
            assert coverage_gaps(sim, node_id) == self.lost_in(sim, node_id, [2])

    def test_log_dropped_while_index_minted_raises_no_gap(self):
        sim = Simulation(SimConfig(seed=42))
        run_settling(sim, {1: [("chain", "node1", lambda frame: None)]}, 3)
        assert registered(sim, 1)[1] in minted_digests(sim)
        assert sim.events.by_code(ev.COVERAGE_GAP) == []

    def test_cycle_aborted_by_invalid_chain_settles_first(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(1)
        node = sim.nodes[1]
        node.pending_submissions["ab" * 32] = "2020-12-23T17:26"
        assert node.validate_cycle(mutated_chain(sim.chain_module.chain, -1, "minted_at")) == []
        assert node.pending_submissions == {}
        assert [r.code for r in sim.events.alarms()] == [ev.COVERAGE_GAP, ev.CHAIN_INVALID]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(sorted(INDEX_FATES))] * 2),
                    min_size=1, max_size=5))
    def test_gaps_are_the_registered_digests_the_chain_lacks(self, fates):
        """Per interval, each of node1->chain and node2->chain passes, drops or
        flips every INDEX."""
        sim = Simulation(SimConfig(seed=42))
        run_settling(sim, {
            k: [(f"node{i}", "chain", INDEX_FATES[fate])
                for i, fate in enumerate(pair, 1) if fate != "pass"]
            for k, pair in enumerate(fates)}, len(fates))
        minted = minted_digests(sim)
        for node_id in (1, 2):
            gaps = coverage_gaps(sim, node_id)
            assert sorted(d for _, d in gaps) == sorted(
                d for d in registered(sim, node_id) if d not in minted)
            assert [k for k, _ in gaps] == [
                k for k, pair in enumerate(fates) if pair[node_id - 1] != "pass"]


LOG_FATES = ("pass", "drop", "replay")
NODE_IDS = range(1, 7)


def log_fate(fate, carried):
    """Interceptor for one chain->node link in one interval: pass the LOG,
    drop it, or deliver in its place the last LOG the link carried (nothing
    if it carried none). `carried` holds what the link delivered so far."""
    def fn(frame):
        if fate == "drop" or (fate == "replay" and not carried):
            return None
        if fate == "replay":
            frame = carried[-1]
        carried.append(frame)
        return frame
    return fn


def alarm_codes(sim):
    """(interval, actor, code) of every alarm of the run."""
    return [(r.tick // sim.cfg.interval_ticks, r.actor, r.code) for r in sim.events.alarms()]


def holds_its_replicas(sim, node_id):
    """True when `node_id` holds every vector the chain lists it for."""
    held = {vector_digest(r) for r in sim.historian(node_id).records()}
    return all(ix.vector_digest in held
               for ix in held_indexes(sim, node_id))


class TestLogAnnouncement:
    """A LOG must name the tip: one naming any other block raises STALE_LOG
    and pulls nothing, and a node whose cycle finds a tip it never pulled
    raises LOG_MISSING and pulls then, duty or no duty."""

    def test_replayed_log_is_stale_and_pulls_nothing(self):
        """Node3's interval-0 LOG is put back in place of its interval-2 one."""
        sim = Simulation(SimConfig(seed=42))
        kept = []
        run_plan(sim, 3, {0: [("chain", "node3", log_fate("pass", kept))],
                          2: [("chain", "node3", log_fate("replay", kept))]})
        assert alarm_codes(sim) == [(2, "node3", ev.STALE_LOG), (2, "node3", ev.LOG_MISSING)]
        assert sim.events.alarms()[0].tick == 179
        assert not [r for r in sim.events.by_code(ev.REPLICA_STORED, "node3") if r.tick == 179]
        assert holds_its_replicas(sim, 3)

    def test_dropped_log_is_named_missing_and_its_replica_pulled(self):
        sim = Simulation(SimConfig(seed=42))
        run_plan(sim, 3, {1: [("chain", "node1", lambda frame: None)]})
        alarms = sim.events.alarms()
        assert [(r.tick, r.actor, r.code) for r in alarms] == [(119, "node1", ev.LOG_MISSING)]
        pulled = [r.detail for r in sim.events.by_code(ev.REPLICA_STORED, "node1")
                  if r.tick == 119]
        assert pulled == ["replica Sensor 2@2020-12-23T17:27 pulled from node2"]
        assert holds_its_replicas(sim, 1)

    def test_dropped_log_to_a_node_without_duty_is_named_missing(self):
        reference = Simulation(SimConfig(seed=42))
        reference.run(2)
        duties = {n for ix in reference.chain_module.chain.tip.indexes
                  for n in ix.replica_ids[1:]}
        idle = [n for n in NODE_IDS if n not in duties]
        assert idle
        sim = Simulation(SimConfig(seed=42))
        run_plan(sim, 3, {1: [("chain", f"node{n}", lambda frame: None)
                              for n in idle]})
        assert alarm_codes(sim) == [(1, f"node{n}", ev.LOG_MISSING) for n in idle]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(LOG_FATES)] * len(NODE_IDS)),
                    min_size=1, max_size=5))
    def test_each_lost_log_named_once_in_its_interval(self, fates):
        """Per interval, each chain->node link passes, drops or replays its LOG."""
        sim = Simulation(SimConfig(seed=42))
        carried = {n: [] for n in NODE_IDS}
        windows = {k: [("chain", f"node{n}", log_fate(fate, carried[n]))
                       for n, fate in zip(NODE_IDS, row)]
                   for k, row in enumerate(fates)}
        expected = Counter()
        for n, column in zip(NODE_IDS, zip(*fates)):
            for k, fate in enumerate(column):
                if fate == "replay" and "pass" in column[:k]:
                    expected[(k, f"node{n}", ev.STALE_LOG)] += 1
                if fate != "pass":
                    expected[(k, f"node{n}", ev.LOG_MISSING)] += 1
        run_plan(sim, len(fates), windows)
        assert Counter(alarm_codes(sim)) == expected
        assert all(holds_its_replicas(sim, n) for n in NODE_IDS)


NODE_LINKS = [(f"node{a}", f"node{b}") for a in NODE_IDS for b in NODE_IDS if a != b]
REPLICA_FATES = {"drop": lambda frame: None,
                 "flip": lambda frame: flip_body_bytes(frame.msg_type)(frame)}
AT_REST_CODES = (ev.FDI_ALARM, ev.RECOVERED, ev.UNRECOVERABLE)
EDITS = {"tamper": lambda historian, r: historian.tamper(r.key, [v + 1 for v in r.values]),
         "delete": lambda historian, r: historian.delete(r.key)}


def count_asks(sim):
    """Count each `recover` call of every node in `sim` by (node id, digest
    hex, clock tick); a tick names one interval's boundary."""
    asks = Counter()
    for node in sim.nodes.values():
        def counted(ix, node=node, recover=node.recover):
            asks[(node.node_id, ix.vector_digest, node.events.tick)] += 1
            return recover(ix)
        node.recover = counted
    return asks


def held_digests(sim, node_id):
    return {vector_digest(r) for r in sim.historian(node_id).records()}


def missing(sim, node_id):
    """Digest hex of each vector the chain lists `node_id` for that it does
    not hold: with nothing edited at rest, the copies no holder delivered."""
    held = held_digests(sim, node_id)
    return [ix.vector_digest for ix in held_indexes(sim, node_id)
            if ix.vector_digest not in held]


def holders(sim, digest_hex):
    (ix,) = [ix for ix in indexes_of(sim) if ix.vector_digest == digest_hex]
    return ix.replica_ids


def alarmed(sim, code, interval):
    """(node id, digest hex) of each `code` alarm raised in `interval`."""
    return {(int(r.actor[4:]), re.search(r"[0-9a-f]{64}", r.detail)[0])
            for r in sim.events.by_code(code)
            if r.tick // sim.cfg.interval_ticks == interval}


def pending(sim, node_id, interval):
    """Digest hex of each REPLICA_PENDING `node_id` raised in `interval`."""
    return [r.detail.split()[1] for r in sim.events.by_code(ev.REPLICA_PENDING, f"node{node_id}")
            if r.tick // sim.cfg.interval_ticks == interval]


def audit_report(sim):
    """The offline audit's report on the artifacts `sim` writes."""
    with tempfile.TemporaryDirectory() as outdir:
        sim.write_artifacts(outdir)
        return audit_directory(outdir)


class TestReplicaPull:
    """A copy no holder delivers stays owed: the duty walk asks for it again
    once per interval and raises REPLICA_PENDING at each cycle. A replica
    lost on the wire never raises FDI_ALARM or UNRECOVERABLE, and a damaged
    record is UNRECOVERABLE only when no holder has it intact, and only once."""

    def test_flipped_answers_leave_replica_pending_until_pulled(self):
        """Every replica answer node1 sends in interval 0 has its body flipped."""
        sim = Simulation(SimConfig(seed=42))
        run_plan(sim, 3, {0: [("node1", f"node{n}", flip_body_bytes(REPLICA_RESP))
                              for n in NODE_IDS if n != 1]})
        (ix,) = [ix for ix in sim.chain_module.chain.blocks[1].indexes if ix.replica_ids[0] == 1]
        holders = [f"node{n}" for n in sorted(ix.replica_ids[1:])]
        assert holders == ["node3", "node4"]
        assert [r for r in sim.events.records if r.code in AT_REST_CODES] == []
        assert [(r.tick, r.actor, r.detail.split()[1])
                for r in sim.events.by_code(ev.REPLICA_PENDING)] == [
            (59, holder, ix.vector_digest) for holder in holders]
        # Each holder asks once: node1's answer fails to open, and the other
        # holder, which has not pulled yet either, answers NotFound.
        asked = Counter((r.actor, r.code) for r in sim.events.records if r.tick == 59
                        and r.code in (ev.REPLICA_MISMATCH, ev.REPLICA_NOT_FOUND))
        assert asked == {(holder, code): 1 for holder in holders
                         for code in (ev.REPLICA_MISMATCH, ev.REPLICA_NOT_FOUND)}
        stored = [(r.tick, r.actor, r.detail) for r in sim.events.by_code(ev.REPLICA_STORED)
                  if r.actor in holders]
        assert stored[:2] == [(119, holder, "replica Sensor 1@2020-12-23T17:26 pulled from node1")
                              for holder in holders]
        assert all(not node.owed for node in sim.nodes.values())
        report = audit_report(sim)
        assert report.all_intact and len(report.findings) == 18

    def test_answers_lost_during_recovery_leave_it_pending(self):
        """node1's Sensor 1@17:26 record is edited after interval 1, and in
        interval 2 every nodeX->node1 link drops what it carries."""
        sim = Simulation(SimConfig(seed=42))
        sim.run(2)
        record = sim.historian(1).get(("Sensor 1", "2020-12-23T17:26"))
        sim.historian(1).tamper(record.key, (0, 0))
        run_plan(sim, 2, {2: [(f"node{n}", "node1", lambda frame: None)
                              for n in NODE_IDS if n != 1]})
        digest_hex = vector_digest(record)
        at_rest = [(r.tick, r.actor, r.code) for r in sim.events.records
                   if r.code in AT_REST_CODES]
        assert at_rest == [(179, "node1", ev.FDI_ALARM), (239, "node1", ev.RECOVERED)]
        assert (179, digest_hex) in [(r.tick, r.detail.split()[1])
                                     for r in sim.events.by_code(ev.REPLICA_PENDING, "node1")]
        (restored,) = sim.events.by_code(ev.RECOVERED, "node1")
        assert restored.detail.startswith("Sensor 1@2020-12-23T17:26 restored from node4;")
        assert sim.historian(1).get(record.key) == record
        assert all(not node.owed for node in sim.nodes.values())
        assert audit_report(sim).all_intact

    def test_lost_copy_named_once(self):
        """node1's answers to node3 and node4 are dropped in interval 0, so
        neither gets its Sensor 1@17:26 replica; node1's record is then
        edited, and two clean intervals follow. The copy is lost at all
        three holders: each names it once, and no later cycle asks for it
        until the record is held again."""
        sim = Simulation(SimConfig(seed=42))
        run_plan(sim, 1, {0: [("node1", "node3", lambda frame: None),
                              ("node1", "node4", lambda frame: None)]})
        record = sim.historian(1).get(("Sensor 1", "2020-12-23T17:26"))
        digest_hex = vector_digest(record)
        sim.historian(1).tamper(record.key, (0, 0))
        asks = count_asks(sim)
        sim.run(2)
        named = [(r.tick, r.actor, r.code) for r in sim.events.alarms()
                 if r.tick > 59 and digest_hex in r.detail]
        assert named == [(119, "node1", ev.FDI_ALARM), (119, "node1", ev.UNRECOVERABLE),
                         (119, "node3", ev.UNRECOVERABLE), (119, "node4", ev.UNRECOVERABLE)]
        assert [r for r in sim.events.records if r.tick == 179 and digest_hex in r.detail] == []
        assert sorted(key for key in asks if key[1] == digest_hex) == [
            (n, digest_hex, 119) for n in (1, 3, 4)]
        for n in (1, 3, 4):
            before = len(sim.events)
            findings = sim.nodes[n].validate_cycle(sim.chain_module.chain)
            assert [f.verdict for f in findings if f.key[1] == record.key[1]
                    and f.verdict != INTACT] == [TAMPERED_UNRECOVERABLE]
            assert [r.code for r in sim.events.records[before:]] == [ev.CHECK_OK]
            assert sim.nodes[n].lost == {digest_hex} and not sim.nodes[n].owed
        sim.historian(1).overwrite(record)  # an operator puts the record back
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        assert all(f.verdict == INTACT for f in findings)
        assert not sim.nodes[1].lost

    @pytest.mark.parametrize("kind", BLOCK_MUTATIONS)
    def test_owed_copies_wait_out_an_invalid_chain(self, kind):
        """Block 1 is replaced in place after interval 1 and put back after
        interval 2, so interval 2's LOG owes block 3's copies on a chain that
        fails verification. That cycle asks for nothing and keeps them owed;
        the next one, on the restored chain, pulls them."""
        sim = Simulation(SimConfig(seed=42))
        sim.run(2)
        chain = sim.chain_module.chain
        original = chain.blocks[1]
        chain.blocks[1] = mutate_block(original, kind)
        sent = []
        handles = [sim.install_interceptor(src, dst, lambda frame: sent.append(frame) or frame)
                   for src, dst in NODE_LINKS]
        sim.run(1)
        for handle in handles:
            sim.remove_interceptor(handle)
        assert alarm_codes(sim) == [(2, f"node{n}", ev.CHAIN_INVALID) for n in NODE_IDS]
        assert [frame for frame in sent if frame.msg_type == REPLICA_REQ] == []
        owed = {n: {ix.vector_digest: (ix, False) for ix in chain.blocks[3].indexes
                    if n in ix.replica_ids[1:]} for n in NODE_IDS}
        assert any(owed.values())
        assert {n: sim.nodes[n].owed for n in NODE_IDS} == owed
        chain.blocks[1] = original
        sim.run(1)
        assert alarm_codes(sim)[len(NODE_IDS):] == []
        stored = {(r.actor, r.detail.split("@")[1].split()[0])
                  for r in sim.events.by_code(ev.REPLICA_STORED) if r.tick == 239}
        assert stored == {(f"node{n}", ix.minute) for b in chain.blocks[3:]
                          for ix in b.indexes for n in ix.replica_ids[1:]}
        assert all(not node.owed for node in sim.nodes.values())
        assert all(holds_its_replicas(sim, n) for n in NODE_IDS)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.dictionaries(st.sampled_from(NODE_LINKS),
                                              st.sampled_from(sorted(REPLICA_FATES))),
                              st.lists(st.tuples(st.sampled_from(NODE_IDS), st.integers(0, 99),
                                                 st.sampled_from(sorted(EDITS))),
                                       max_size=2),
                              st.booleans()),
                    min_size=1, max_size=4))
    @example([({("node1", "node3"): "flip", ("node1", "node4"): "flip"}, [], False),
              ({}, [], True)])
    @example([({("node1", "node3"): "drop", ("node1", "node4"): "drop"}, [(1, 0, "tamper")],
               False), ({}, [], False)])
    def test_pending_is_exactly_what_is_owed(self, fates):
        """Per interval, each node->node link passes, drops or flips the body
        of every frame it carries, every INDEX may be dropped so that no
        block is minted and no LOG comes, and after it up to two covered
        records are edited at rest; one clean interval follows. Each copy is
        asked for at most once per interval, and a duty not held is owed or
        lost. A copy is UNRECOVERABLE only when no holder has it intact, and
        only once; with nothing edited at rest no at-rest alarm is raised."""
        sim = Simulation(SimConfig(seed=42))
        windows = {k: [(src, dst, REPLICA_FATES[fate]) for (src, dst), fate in links.items()]
                   + [(f"node{n}", "chain", lambda frame: None) for n in NODE_IDS if unminted]
                   for k, (links, _, unminted) in enumerate(fates)}
        asks = count_asks(sim)
        edited, lost = set(), set()
        for k in range(len(fates) + 1):
            run_plan(sim, 1, windows)
            assert max(asks.values(), default=0) <= 1
            unrecoverable = alarmed(sim, ev.UNRECOVERABLE, k)
            assert not unrecoverable & lost
            lost |= unrecoverable
            for n in NODE_IDS:
                owed = sorted(sim.nodes[n].owed)
                assert sorted(pending(sim, n, k)) == owed
                assert set(missing(sim, n)) == set(owed) | sim.nodes[n].lost
                assert sim.nodes[n].lost == {d for m, d in lost if m == n}
            for _, d in unrecoverable:
                assert not [n for n in holders(sim, d) if d in held_digests(sim, n)]
            assert alarmed(sim, ev.FDI_ALARM, k) <= edited | lost
            for n, pick, edit in fates[k][1] if k < len(fates) else ():
                duties = {ix.vector_digest for ix in held_indexes(sim, n)}
                covered = [r for r in sim.historian(n).records()
                           if vector_digest(r) in duties]
                if covered:
                    record = covered[pick % len(covered)]
                    edited.add((n, vector_digest(record)))
                    EDITS[edit](sim.historian(n), record)
        assert all(not node.owed for node in sim.nodes.values())
        if not edited:
            assert [r for r in sim.events.records if r.code in AT_REST_CODES] == []
        flagged = {(f.node_id, f.expected_digest) for f in audit_report(sim).flagged()}
        assert flagged == {(n, d) for n in NODE_IDS for d in missing(sim, n)}
        assert not [n for _, d in flagged for n in holders(sim, d) if d in held_digests(sim, n)]


def redraw_holders(position, holders):
    """run_plan edit step: an insider at the minter gives the first index of
    block `position` the holders `holders` and re-hashes that block and every
    later one, so the rewritten chain still verifies."""
    def edit(sim):
        blocks = sim.chain_module.chain.blocks
        first, *rest = blocks[position].indexes
        blocks[position] = dataclasses.replace(blocks[position], indexes=(
            LedgerIndex(first.vector_digest, first.captured_at, holders), *rest))
        for pos in range(position, len(blocks)):
            block = blocks[pos]
            blocks[pos] = make_block(block.indexes, blocks[pos - 1].block_hash, block.minted_at)
    return edit


class TestRewrittenHistory:
    """A chain that verifies but no longer holds a block a node saw is a
    rewritten history: each node raises CHAIN_REWRITTEN, naming the first
    changed position, and aborts the cycle, so no record is blamed."""

    def test_redrawn_holders_raise_chain_rewritten_at_every_node(self):
        """Seed 42: after 5 intervals, block 2's first index moves from
        holders (1, 5, 2) to (1, 3, 4); 2 more intervals follow. Without the
        check node3 and node4 blame their own records (FDI_ALARM) and
        RECOVERED follows."""
        sim = Simulation(SimConfig(seed=42))
        redraw = redraw_holders(2, (1, 3, 4))
        seen = []

        def edit(sim_):
            seen.append(sim_.chain_module.chain.blocks[2].indexes[0].replica_ids)
            seen.append(len(sim_.events))
            redraw(sim_)

        run_plan(sim, 7, {4: [edit]})
        holders, edited_at = seen
        assert holders == (1, 5, 2)
        after = sim.events.records[edited_at:]
        alarms = [(r.tick // sim.cfg.interval_ticks, r.actor, r.code)
                  for r in after if r.severity == ev.ALARM]
        assert alarms == [(k, f"node{n}", ev.CHAIN_REWRITTEN) for k in (5, 6) for n in NODE_IDS]
        assert all("at position 2;" in r.detail for r in after if r.code == ev.CHAIN_REWRITTEN)
        assert not [r for r in after if r.code in (ev.RECOVERED, ev.CHECK_OK)]

    def test_no_copy_is_owed_on_a_rewritten_history(self):
        """After the redraw above, a LOG naming a rewritten tip owes
        nothing, since no aborted cycle would ask for it: no node's `owed`
        grows over the next three intervals."""
        sim = Simulation(SimConfig(seed=42))
        run_plan(sim, 5, {4: [redraw_holders(2, (1, 3, 4))]})
        owed = []

        def sizes(sim_, k=None):
            owed.append({n: len(node.owed) for n, node in sim_.nodes.items()})

        sizes(sim)
        sim.run(3, after_boundary=sizes)
        assert sim.events.by_code(ev.CHAIN_REWRITTEN)
        assert owed == [owed[0]] * 4

    def test_truncated_chain_names_its_first_missing_position(self):
        sim = planned_sim()
        chain = sim.chain_module.chain
        for node in sim.nodes.values():
            node.validate_cycle(chain)
        shorter = Chain.from_blocks(chain.blocks[:-1])
        assert sim.nodes[1].validate_cycle(shorter) == []
        (alarm,) = sim.events.alarms()
        assert alarm.code == ev.CHAIN_REWRITTEN
        assert f"at position {len(shorter)};" in alarm.detail


def record_walks(sim):
    """Wrap each node's validate_cycle so that every cycle's findings are
    checked against a walk of the chain from scratch, in length and minute
    order; returns {node id: [(finding, duty) of each cycle]}."""
    walks = {n: [] for n in sim.nodes}
    for node in sim.nodes.values():
        def walked(chain, node=node, validate=node.validate_cycle):
            findings = validate(chain)
            scratch = [ix for b in reversed(chain.blocks) for ix in b.indexes
                       if node.node_id in ix.replica_ids]
            assert [f.key[1] for f in findings] == [ix.minute for ix in scratch]
            walks[node.node_id].append(list(zip(findings, scratch)))
            return findings
        node.validate_cycle = walked
    return walks


class TestIncrementalDuties:
    """The duty list grows by each new block, and an intact duty reuses its
    finding; the walk still gives a from-scratch walk's findings, and an
    edit after an intact cycle is caught on the next one."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.frozensets(st.sampled_from(NODE_IDS)),
                              st.frozensets(st.sampled_from(NODE_IDS)),
                              st.lists(st.tuples(st.sampled_from(NODE_IDS), st.integers(0, 99),
                                                 st.sampled_from(sorted(EDITS))),
                                       max_size=3)),
                    min_size=1, max_size=5))
    @example([(frozenset(), frozenset(), [(1, 0, "tamper"), (2, 5, "delete")]),
              (frozenset({1}), frozenset({2, 3}), [(3, 1, "tamper")])])
    def test_walk_matches_a_walk_from_scratch(self, intervals):
        """Per interval, the INDEX of each node in the first set and the LOG
        to each node in the second are dropped; after it, up to three
        records found intact by that cycle are edited at rest. One clean
        interval follows. Each edit raises FDI_ALARM for its digest at its
        node in the next interval, and that duty is not found intact."""
        drop = lambda frame: None  # noqa: E731
        sim = Simulation(SimConfig(seed=42))
        walks = record_walks(sim)
        plan = {k: [(f"node{n}", "chain", drop) for n in indexes]
                + [("chain", f"node{n}", drop) for n in logs]
                for k, (indexes, logs, _) in enumerate(intervals)}
        edited = set()
        for k in range(len(intervals) + 1):
            run_plan(sim, 1, plan)
            assert {(n, d) for n, d in edited} <= alarmed(sim, ev.FDI_ALARM, k)
            for n, d in edited:
                (verdict,) = [f.verdict for f, ix in walks[n][-1] if ix.vector_digest == d]
                assert verdict != INTACT
            edited = set()
            for n, pick, edit in intervals[k][2] if k < len(intervals) else ():
                intact = [(f, ix) for f, ix in walks[n][-1] if f.verdict == INTACT
                          and (n, ix.vector_digest) not in edited]
                if intact:
                    finding, ix = intact[pick % len(intact)]
                    edited.add((n, ix.vector_digest))
                    EDITS[edit](sim.historian(n), sim.historian(n).get(finding.key))
        assert all(len(cycles) == len(intervals) + 1 for cycles in walks.values())

    def test_copy_owed_again_is_asked_for_again(self):
        """A LOG naming the tip again owes its replicas again, though their
        holder found them intact in a cycle after the one that pulled them;
        the next cycle asks for each once more instead of reusing its
        finding."""
        sim = Simulation(SimConfig(seed=42))
        sim.run(3)
        chain = sim.chain_module.chain
        ix = chain.tip.indexes[0]
        node = sim.nodes[ix.replica_ids[1]]
        assert all(f.verdict == INTACT for f in node.validate_cycle(chain))
        node.handle_log(chain.tip.block_hash.encode(), chain)
        owed = [x for x in chain.tip.indexes if node.node_id in x.replica_ids[1:]]
        assert sorted(node.owed) == sorted(x.vector_digest for x in owed)
        before = len(sim.events)
        findings = node.validate_cycle(chain)
        assert not node.owed
        assert [r.code for r in sim.events.records[before:]] == \
            [ev.REPLICA_STORED] * len(owed) + [ev.CHECK_OK]
        assert all(f.verdict == INTACT for f in findings)
