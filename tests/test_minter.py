"""Block-minting module tests: collect, interval close, announcements."""

import random
from datetime import datetime

import pytest
from hypothesis import given
import hypothesis.strategies as st

from histchain import events as ev
from histchain.envelope import (
    AuthError,
    KeyDirectory,
    generate_node_keys,
    open_envelope,
    seal,
    vector_digest,
    MeasurementVector,
)
from histchain.audit import audit_directory
from histchain.config import SimConfig
from histchain.events import EventLog
from histchain.ledger import dump_chain
from histchain.minter import ChainModule, draw_replicas
from histchain.sim import Simulation
from histchain.wire import INDEX, LOG
from .helpers import deliver, flip_body

TS = datetime(2020, 12, 23, 3, 24)


class SentLog:
    """Stub transport: keeps each (dst, msg_type, envelope) it is asked to send."""

    def __init__(self):
        self.sent = []

    def send(self, dst, msg_type, env):
        self.sent.append((dst, msg_type, env))


def make_module(n_nodes=6, seed=0):
    rng = random.Random(seed)
    directory = KeyDirectory()
    keys = {}
    for name in [f"node{i}" for i in range(1, n_nodes + 1)] + ["chain"]:
        keys[name] = generate_node_keys(name, rng)
        directory.register(keys[name])
    module = ChainModule(keys["chain"], directory, SentLog(), EventLog(),
                         random.Random(seed + 1), n_nodes, 3, rng)
    return module, keys


def submission(origin=2, ts="2020-12-23T03:24"):
    """(sender, plaintext) of storage node `origin`'s INDEX for its vector."""
    vec = MeasurementVector(f"Sensor {origin}", TS, (7, 6, 6, 7))
    return f"node{origin}", f"{vector_digest(vec)}|{ts}".encode()


def submission_env(keys, origin=2):
    """submission(origin) sealed by its sender to the minter."""
    sender, body = submission(origin)
    return seal(body, keys[sender], "chain", keys["chain"].enc_pub, random.Random(1))


class TestCollect:
    def test_authentic_index_accepted(self):
        """The index is buffered with its holders drawn, origin first, and
        minted as buffered."""
        module, _ = make_module()
        assert module.collect(*submission()) is True
        assert len(module.buffer) == 1
        buffered = module.buffer[0]
        assert buffered.replica_ids[0] == 2
        assert module.events.by_code(ev.INDEX_ACCEPTED, "chain")
        block = module.close_interval(TS)
        assert [ix.replica_ids for ix in block.indexes] == [buffered.replica_ids]

    def test_corrupted_index_rejected_with_alarm(self):
        """The intake refuses it; the minter buffers nothing."""
        sim = Simulation(SimConfig(seed=42))
        deliver(sim, "node1", "chain", INDEX, flip_body(submission_env(sim.keystore, 1), 0x10))
        assert sim.chain_module.buffer == []
        assert sim.events.by_code(ev.INDEX_REJECTED, "chain")

    def test_malformed_but_authentic_rejected(self):
        module, _ = make_module()
        assert module.collect("node2", b"nonsense") is False
        assert module.buffer == []

    def test_digest_already_buffered_or_minted_rejected(self):
        """An honest digest never repeats: it fixes the sensor, the minute
        and the values. A second INDEX for one is refused, whoever sends it."""
        module, _ = make_module()
        assert module.collect(*submission(origin=2)) is True
        assert module.collect(*submission(origin=2)) is False
        assert len(module.buffer) == 1
        module.close_interval(TS)
        assert module.collect(*submission(origin=2)) is False
        _, body = submission(origin=2)
        assert module.collect("node3", body) is False
        assert module.buffer == []
        rejected = module.events.by_code(ev.INDEX_REJECTED, "chain")
        assert len(rejected) == 3
        assert all("already buffered or minted" in r.detail for r in rejected)
        assert module.close_interval(TS) is None


class TestCloseInterval:
    def test_empty_buffer_no_block(self):
        module, _ = make_module()
        assert module.close_interval(TS) is None
        assert len(module.chain) == 1
        assert module.events.by_code(ev.NO_BLOCK, "chain")
        assert module.transport.sent == []

    def test_single_index_block(self):
        module, _ = make_module()
        module.collect(*submission(origin=2))
        block = module.close_interval(TS)
        assert block is not None and len(block.indexes) == 1
        ix = block.indexes[0]
        assert ix.replica_ids[0] == 2
        assert len(set(ix.replica_ids)) == 3
        assert all(1 <= r <= 6 for r in ix.replica_ids)
        assert len(module.chain) == 2

    def test_submission_after_close_lands_in_next_block(self):
        module, _ = make_module()
        module.collect(*submission(origin=2))
        module.close_interval(TS)
        module.collect(*submission(origin=3, ts="2020-12-23T03:25"))
        later = datetime(2020, 12, 23, 3, 25)
        block = module.close_interval(later)
        assert block is not None
        assert block.indexes[0].replica_ids[0] == 3
        assert len(module.chain) == 3

    def test_rejected_digest_never_reaches_chain_dump(self):
        sim = Simulation(SimConfig(seed=42))
        module = sim.chain_module
        deliver(sim, "node1", "chain", INDEX, flip_body(submission_env(sim.keystore, 1), 0x10))
        deliver(sim, "node2", "chain", INDEX, submission_env(sim.keystore, 2))
        module.close_interval(TS)
        rejected_vec = MeasurementVector("Sensor 1", TS, (7, 6, 6, 7))
        text = dump_chain(module.chain)
        assert vector_digest(rejected_vec) not in text

    def test_fixed_seed_reproducible_assignments(self):
        draws = []
        for _ in range(2):
            module, _ = make_module(seed=5)
            for origin in (1, 2, 4):
                module.collect(*submission(origin=origin))
            block = module.close_interval(TS)
            draws.append([ix.replica_ids for ix in block.indexes])
        assert draws[0] == draws[1]


class TestBroadcastLog:
    def test_one_envelope_per_node_distinct_ciphertexts(self):
        module, keys = make_module()
        module.collect(*submission(origin=2))
        block = module.close_interval(TS)
        sent = module.transport.sent
        assert [(name, msg_type) for name, msg_type, _ in sent] == [
            (f"node{i}", LOG) for i in range(1, 7)]
        ciphertexts = [env.ciphertext for _, _, env in sent]
        assert len(set(ciphertexts)) == len(ciphertexts)
        for name, _, env in sent:
            plaintext = open_envelope(env, keys[name], keys["chain"].sig_pub)
            assert plaintext.decode() == block.block_hash

    def test_cross_node_open_fails(self):
        module, keys = make_module()
        module.collect(*submission(origin=2))
        module.close_interval(TS)
        logs = {name: env for name, _, env in module.transport.sent}
        with pytest.raises(AuthError) as exc:
            open_envelope(logs["node1"], keys["node2"], keys["chain"].sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED


class TestDrawReplicas:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_origin_first_distinct_in_range(self, origin, seed):
        draw = draw_replicas(origin, 6, 3, random.Random(seed))
        assert draw[0] == origin
        assert origin not in draw[1:]
        assert len(set(draw)) == 3
        assert all(1 <= r <= 6 for r in draw)

    def test_respects_replication_factor(self):
        draw = draw_replicas(2, 6, 4, random.Random(0))
        assert len(draw) == 4 and draw[0] == 2


def chain_digests(sim):
    return [ix.vector_digest for block in sim.chain_module.chain.blocks
            for ix in block.indexes]


class TestIndexReplay:
    """An on-link adversary who resends an authentic INDEX gets it refused,
    so no digest is minted twice and the audit of the artifacts flags nothing."""

    def assert_each_digest_once(self, sim, replays, tmp_path):
        digests = chain_digests(sim)
        assert len(digests) == len(set(digests))
        assert len(sim.events.by_code(ev.INDEX_REJECTED, "chain")) == replays
        sim.write_artifacts(tmp_path)
        report = audit_directory(tmp_path)
        assert report.chain_issue is None and report.flagged() == []

    def test_first_index_replayed_in_each_later_interval(self, tmp_path):
        sim = Simulation(SimConfig(seed=42))
        first = []

        def replay_first(frame):
            if frame.msg_type == INDEX:
                if not first:
                    first.append(frame)
                return first[0]
            return frame

        sim.install_interceptor("node1", "chain", replay_first)
        sim.run(3)
        self.assert_each_digest_once(sim, 2, tmp_path)
        gaps = sim.events.by_code(ev.COVERAGE_GAP, "node1")
        assert len(gaps) == 2

    def test_index_relayed_over_another_nodes_link(self, tmp_path):
        sim = Simulation(SimConfig(seed=42))
        latest = []

        def keep(frame):
            latest.append(frame)
            return frame

        sim.install_interceptor("node1", "chain", keep)
        sim.install_interceptor("node2", "chain", lambda frame: latest[-1])
        sim.run(2)
        self.assert_each_digest_once(sim, 2, tmp_path)
        assert [len(b.indexes) for b in sim.chain_module.chain.blocks[1:]] == [1, 1]
