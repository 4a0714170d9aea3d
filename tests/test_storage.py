"""Storage node tests: register, replication, serving, validation, recovery."""

import dataclasses
import random
from datetime import datetime

import pytest

from histchain import events as ev
from histchain import storage
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
    Historian,
    HistorianRecord,
    StorageNode,
    TAMPERED_RECOVERED,
    TAMPERED_UNRECOVERABLE,
)
from .helpers import BLOCK_MUTATIONS, flip_hex_char, mutate_block, mutated_chain

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
                keys[recipient].enc_pub)


class TestRegister:
    def test_authentic_vector_stored_and_indexed(self):
        node, keys, transport = standalone_node()
        fingerprint = node.register(sealed_measurement(keys))
        assert fingerprint is not None and fingerprint.hex == vector_digest(VEC).hex
        assert len(node.historian) == 1
        record = node.historian.get(("Sensor 1", "2020-12-23T17:27"))
        assert record.values == VEC.values
        assert node.events.by_code(ev.MSG_AUTHENTIC, "node1")
        assert node.events.by_code(ev.STORED, "node1")
        # Index submission forwarded to the minting module.
        assert len(transport.sent) == 1
        dst, msg_type, env = transport.sent[0]
        assert dst == "chain"
        plaintext = open_envelope(env, keys["chain"], keys["node1"].sig_pub)
        digest_hex, minute = plaintext.decode().split("|")
        assert digest_hex == vector_digest(VEC).hex
        assert minute == "2020-12-23T17:27"

    def test_tampered_envelope_rejected_nothing_stored(self):
        node, keys, transport = standalone_node()
        env = sealed_measurement(keys)
        ct = bytearray(env.ciphertext)
        ct[-1] ^= 0xFF
        tampered = type(env)(env.sender_id, env.recipient_id, bytes(ct), env.signature)
        assert node.register(tampered) is None
        assert len(node.historian) == 0
        assert transport.sent == []
        alarms = node.events.by_code(ev.DIGEST_MISMATCH, "node1")
        assert len(alarms) == 1
        assert "rebuilt=" in alarms[0].detail

    def test_duplicate_key_rejected(self):
        node, keys, transport = standalone_node()
        node.register(sealed_measurement(keys))
        node.register(sealed_measurement(keys))
        assert len(node.historian) == 1
        assert len(node.events.by_code(ev.DUPLICATE_RECORD, "node1")) == 1
        assert len(transport.sent) == 1

    def test_rejected_envelopes_never_mutate_store(self):
        node, keys, _ = standalone_node()
        node.register(sealed_measurement(keys))
        size = len(node.historian)
        for pos in (0, 40, 100, -1):
            env = sealed_measurement(keys)
            ct = bytearray(env.ciphertext)
            ct[pos] ^= 0x01
            node.register(type(env)(env.sender_id, env.recipient_id,
                                    bytes(ct), env.signature))
            assert len(node.historian) == size


class TestHistorian:
    def test_dump_load_round_trip(self):
        historian = Historian(1)
        historian.put_new(HistorianRecord("Sensor 1", (2, 5), datetime(2020, 12, 23, 17, 26)))
        historian.put_new(HistorianRecord("Sensor 2", (4, 4), datetime(2020, 12, 23, 17, 28)))
        text = historian.dump()
        assert text == "Sensor 1|2020-12-23T17:26|2,5\nSensor 2|2020-12-23T17:28|4,4\n"
        loaded = Historian.load(1, text)
        assert [r.key for r in loaded.records()] == [r.key for r in historian.records()]

    def test_at_time_filters(self):
        historian = Historian(1)
        historian.put_new(HistorianRecord("Sensor 1", (1,), TS))
        historian.put_new(HistorianRecord("Sensor 2", (2,), TS))
        historian.put_new(HistorianRecord("Sensor 1", (3,), datetime(2020, 12, 23, 17, 28)))
        assert len(historian.at_time("2020-12-23T17:27")) == 2


def scripted_sim(seed=17):
    sim = Simulation(SimConfig(seed=seed))
    sim.run_scripted([
        {"plc1": [2, 5], "plc2": [9, 9]},
        {"plc1": [6, 7, 7, 6], "plc2": [4, 4, 5]},
    ])
    return sim


def indexes_of(sim):
    return [ix for b in sim.chain_module.chain.blocks for ix in b.indexes]


class TestReplication:
    def test_every_vector_on_exactly_listed_nodes(self):
        sim = scripted_sim()
        for ix in indexes_of(sim):
            minute = fmt_minute(ix.captured_at)
            holders = [
                nid for nid, node in sim.nodes.items()
                if any(r.digest_hex() == ix.vector_digest.hex
                       for r in node.historian.at_time(minute))
            ]
            assert sorted(holders) == sorted(ix.replica_ids)

    def test_unlisted_node_takes_no_copy(self):
        sim = scripted_sim()
        for ix in indexes_of(sim):
            for nid in sim.nodes:
                if nid not in ix.replica_ids:
                    records = sim.nodes[nid].historian.at_time(fmt_minute(ix.captured_at))
                    assert all(r.digest_hex() != ix.vector_digest.hex for r in records)

    def test_corrupted_log_announcement_ignored_with_alarm(self):
        sim = scripted_sim()
        node = sim.nodes[3]
        tip = sim.chain_module.chain.tip.block_hash
        from histchain.envelope import seal as seal_env
        env = seal_env(tip.hex.encode(), sim.keystore["chain"], "node3",
                       sim.keystore["node3"].enc_pub)
        ct = bytearray(env.ciphertext)
        ct[-1] ^= 0x40
        alarms_before = len(sim.events.alarms())
        pulled = node.handle_log(type(env)(env.sender_id, env.recipient_id,
                                           bytes(ct), env.signature),
                                 sim.chain_module.chain)
        assert pulled == []
        assert len(sim.events.alarms()) == alarms_before + 1

    def test_corrupted_replica_response_not_stored(self):
        # Corrupt every replica answer leaving node1; pullers must reject the
        # copy, alarm, and fall back to the other holder when one is listed.
        from histchain.attacks import flip_body_bytes
        from histchain.wire import REPLICA_RESP
        sim = Simulation(SimConfig(seed=17))
        for nid in range(2, 7):
            sim.install_interceptor("node1", f"node{nid}", flip_body_bytes(REPLICA_RESP))
        sim.run_scripted([{"plc1": [2, 5], "plc2": None}])
        (ix,) = indexes_of(sim)
        assert ix.replica_ids[0] == 1
        mismatches = [r for r in sim.events.records if r.code == ev.REPLICA_MISMATCH]
        assert mismatches, "corrupted replica answers must raise alarms"
        for nid in ix.replica_ids[1:]:
            records = sim.nodes[nid].historian.at_time(fmt_minute(ix.captured_at))
            assert all(r.digest_hex() != ix.vector_digest.hex for r in records) or \
                sim.events.by_code(ev.REPLICA_STORED, f"node{nid}")

    def test_pull_keeps_intact_copy_and_replaces_tampered_one(self):
        sim = scripted_sim()
        chain = sim.chain_module.chain
        block = chain.tip
        ix = block.indexes[0]
        holder = sim.nodes[ix.replica_ids[1]]
        (record,) = [r for r in holder.historian.at_time(fmt_minute(ix.captured_at))
                     if r.digest_hex() == ix.vector_digest.hex]
        key = record.key

        def announce():
            return seal(block.block_hash.hex.encode(), sim.keystore["chain"],
                        holder.name, holder.keys.enc_pub)

        dump = holder.historian.dump()
        stored_before = len(sim.events.by_code(ev.REPLICA_STORED, holder.name))
        assert holder.handle_log(announce(), chain)
        assert holder.historian.dump() == dump
        assert len(sim.events.by_code(ev.REPLICA_STORED, holder.name)) > stored_before

        holder.historian.tamper(key, (99,))
        holder.handle_log(announce(), chain)
        assert holder.historian.get(key).digest_hex() == ix.vector_digest.hex
        assert holder.historian.dump() == dump

    def test_pull_with_no_answer_raises_no_unrecoverable(self):
        node, keys, _ = standalone_node()
        for name in ("node2", "node3"):
            node.directory.register(generate_node_keys(name, random.Random(name)))
        chain = Chain()
        chain.append(make_block([LedgerIndex(vector_digest(VEC), TS, (2, 1, 3))],
                                chain.tip.block_hash, TS))
        env = seal(chain.tip.block_hash.hex.encode(), keys["chain"], "node1",
                   keys["node1"].enc_pub)
        assert node.handle_log(env, chain) == []
        assert len(node.historian) == 0
        assert len(node.events.by_code(ev.REPLICA_NO_RESPONSE, "node1")) == 2
        assert not node.events.by_code(ev.UNRECOVERABLE)


class TestServeReplica:
    def test_present_key_served_sealed(self):
        sim = scripted_sim()
        (first, *_) = indexes_of(sim)
        origin = sim.nodes[first.replica_ids[0]]
        requester = sim.nodes[first.replica_ids[1]]
        vector = requester._request_vector(origin.node_id, first)
        assert vector is not None
        assert vector_digest(vector).hex == first.vector_digest.hex

    def test_absent_key_not_found(self):
        sim = scripted_sim()
        missing = LedgerIndex(
            vector_digest(MeasurementVector("Sensor 9", TS, (1, 2))),
            datetime(2021, 1, 1, 0, 0), (1, 2, 3))
        vector = sim.nodes[2]._request_vector(1, missing)
        assert vector is None
        assert sim.events.by_code(ev.REPLICA_NOT_FOUND, "node2")

    def test_mangled_request_no_data_leaves(self):
        node, keys, _ = standalone_node()
        node.register(sealed_measurement(keys))
        env = seal(b"junk-request", keys["plc1"], "node1", keys["node1"].enc_pub)
        ct = bytearray(env.ciphertext)
        ct[-1] ^= 0xAA
        reply = node.serve_replica(type(env)(env.sender_id, env.recipient_id,
                                             bytes(ct), env.signature))
        assert reply is None
        assert node.events.by_code(ev.REPLICA_REQUEST_REJECTED, "node1")


class TestValidateAndRecover:
    def test_clean_store_all_intact(self):
        sim = scripted_sim()
        for node in sim.nodes.values():
            findings = node.validate_cycle(sim.chain_module.chain)
            assert all(f.verdict == "intact" for f in findings)

    def test_tampered_record_detected_and_recovered(self):
        sim = scripted_sim()
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
        sim = scripted_sim()
        key = ("Sensor 1", "2020-12-23T17:26")
        original = sim.historian(1).get(key).values
        sim.historian(1).delete(key)
        findings = sim.nodes[1].validate_cycle(sim.chain_module.chain)
        flagged = [f for f in findings if f.verdict != "intact"]
        assert len(flagged) == 1 and flagged[0].verdict == TAMPERED_RECOVERED
        assert sim.historian(1).get(key).values == original

    def test_recovery_order_skips_corrupt_holder(self):
        sim = scripted_sim()
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
        sim = scripted_sim()
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
        sim = scripted_sim()
        broken = mutated_chain(sim.chain_module.chain, 1, "index_digest")
        findings = sim.nodes[1].validate_cycle(broken)
        assert findings == []
        assert sim.events.by_code(ev.CHAIN_INVALID, "node1")

    def test_no_false_alarms_without_adversary(self):
        sim = scripted_sim()
        before = len(sim.events.alarms())
        for node in sim.nodes.values():
            node.validate_cycle(sim.chain_module.chain)
        assert len(sim.events.alarms()) == before == 0


def held_indexes(sim, node_id):
    return [ix for ix in indexes_of(sim) if node_id in ix.replica_ids]


class TestIncrementalVerification:
    """A cycle that already verified the live chain must still catch later edits."""

    def validated_sim(self):
        sim = scripted_sim()
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
            block, block_hash=Digest(flip_hex_char(block.block_hash.hex))))
        assert sim.nodes[1].validate_cycle(chain) == []
        assert sim.events.by_code(ev.CHAIN_INVALID, "node1")

    def test_tampered_record_caught_and_every_held_record_rehashed(self, monkeypatch):
        sim = self.validated_sim()
        node = sim.nodes[1]
        held = held_indexes(sim, 1)
        ix = held[0]
        record = next(r for r in node.historian.at_time(fmt_minute(ix.captured_at))
                      if r.digest_hex() == ix.vector_digest.hex)
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
