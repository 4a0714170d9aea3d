"""End-to-end simulation behaviour: closed loop, determinism, artifacts."""

import dataclasses
import random
from datetime import datetime

import pytest

from histchain import envelope, minter, sim as sim_module, storage
from histchain import events as ev
from histchain.attacks import run_with_interceptors
from histchain.config import ConfigError, SimConfig, load_config, parse_config_file
from histchain.envelope import MeasurementVector, generate_node_keys, seal, vector_digest
from histchain.ledger import dump_chain
from histchain.minter import ChainModule
from histchain.sim import Simulation, scripted
from histchain.storage import StorageNode
from histchain.wire import (
    INDEX,
    LOG,
    MEASUREMENT,
    MSG_TYPES,
    REPLICA_REQ,
    REPLICA_RESP,
    EncodeError,
    pack_frame,
)
from .helpers import deliver, flip_body


class TestClosedLoopRun:
    def test_three_minutes_three_blocks(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(3)
        assert len(sim.chain_module.chain) == 4  # genesis + one per interval
        for block in sim.chain_module.chain.blocks[1:]:
            assert len(block.indexes) == 2  # both PLCs report every interval

    def test_no_alarms_in_clean_run(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(3)
        assert sim.events.alarms() == []

    def test_noise_flag_keeps_run_clean(self):
        sim = Simulation(SimConfig(seed=42, sensor_noise=True))
        sim.run(2)
        assert sim.events.alarms() == []
        assert len(sim.chain_module.chain) == 3

    def test_silent_interval_mints_no_block(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(3, scripted([
            {"plc1": [2, 5], "plc2": None},
            {"plc1": None, "plc2": None},
            {"plc1": [3, 4], "plc2": None},
        ]))
        assert len(sim.chain_module.chain) == 3
        assert len(sim.events.by_code(ev.NO_BLOCK, "chain")) == 1

    def test_script_replaces_only_the_plcs_it_names(self):
        plant_run = Simulation(SimConfig(seed=42))
        plant_run.run(1)
        sim = Simulation(SimConfig(seed=42))
        sim.run(1, scripted([{"plc1": [2, 5]}]))
        assert [r.values for r in sim.historian(1).records()
                if r.sensor_name == "Sensor 1"] == [(2, 5)]
        assert sim.historian(2).get(("Sensor 2", "2020-12-23T17:26")).values == \
            plant_run.historian(2).get(("Sensor 2", "2020-12-23T17:26")).values

    def test_each_registered_vector_indexed_exactly_once(self):
        # Cross-check the chain against the event log: one ledger index per
        # successful registration, no more, no less.
        sim = Simulation(SimConfig(seed=42))
        sim.run(4)
        stored_events = [r for r in sim.events.records if r.code == ev.STORED]
        index_digests = [
            ix.vector_digest
            for b in sim.chain_module.chain.blocks for ix in b.indexes
        ]
        assert len(index_digests) == len(stored_events)
        assert len(set(index_digests)) == len(index_digests)
        for node in (1, 2):
            for record in sim.historian(node).records():
                if record.sensor_name == f"Sensor {node}":  # origin copies
                    assert index_digests.count(vector_digest(record)) == 1


def count_calls(monkeypatch, fn, *modules):
    """Wrap `fn` where each module imported it; returns the live call counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestEnvelopeTraffic:
    def test_clean_interval_signs_and_verifies_11_of_18_envelopes(self, monkeypatch):
        """Per interval: 2 MEASUREMENT, 2 INDEX, 6 LOG, 4 REPLICA_REQ and 4
        REPLICA_RESP envelopes. The six LOGs share one signature, and so do
        the two answers for one vector, so 11 are signed and verified. A
        Simulation starts with both signature caches empty."""
        seals = count_calls(monkeypatch, envelope.seal, sim_module, storage, minter)
        opens = count_calls(monkeypatch, envelope.open_envelope, sim_module, storage)
        digests = count_calls(monkeypatch, envelope.vector_digest, storage)
        # A cache entry left by earlier work, which a new run must not count on.
        rng = random.Random(1)
        envelope.seal(b"x", generate_node_keys("x", rng), "y",
                      generate_node_keys("y", rng).enc_pub, rng)
        per_interval = []

        def count_signatures(sim_, k):
            per_interval.append((seals[0], opens[0],
                                 envelope._sign.cache_info().misses,
                                 envelope._check_signature.cache_info().misses))

        sim = Simulation(SimConfig(seed=42))
        assert envelope._sign.cache_info().currsize == 0
        sim.run(10, after_boundary=count_signatures)
        assert sim.events.alarms() == []
        assert per_interval == [(18 * k, 18 * k, 11 * k, 11 * k) for k in range(1, 11)]
        checked = sum(int(r.detail.split()[0].removeprefix("checked="))
                      for r in sim.events.by_code(ev.CHECK_OK))
        # Interval k re-checks k blocks of 2 indexes with 3 holders each.
        assert checked == sum(2 * 3 * k for k in range(1, 11))
        assert digests[0] >= checked


def cut_payload(frame):
    return dataclasses.replace(frame, payload=frame.payload[:3])


def unknown_sender(frame):
    return dataclasses.replace(frame, sender_id=999)


class TestMalformedFrames:
    @pytest.mark.parametrize("src, dst, interceptor", [
        ("plc1", "node1", cut_payload),
        ("node1", "chain", cut_payload),
        ("plc1", "node1", unknown_sender),
    ])
    def test_receiver_alarms_drops_and_next_interval_is_normal(self, src, dst, interceptor):
        cfg = SimConfig(seed=42)
        sim = Simulation(cfg)
        run_with_interceptors(sim, 3, {1: [(src, dst, interceptor)]})
        malformed = sim.events.by_code(ev.MALFORMED_PAYLOAD)
        assert [r.actor for r in malformed] == [dst]
        assert all(r.tick // cfg.interval_ticks == 1 for r in sim.events.alarms())
        tip = sim.chain_module.chain.tip
        assert tip.minted_at == sim.interval_ts(2) and len(tip.indexes) == 2
        stored = [r.actor for r in sim.events.by_code(ev.STORED)
                  if r.tick // cfg.interval_ticks == 2]
        assert sorted(stored) == ["node1", "node2"]

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("field, value, offset", [
        ("msg_type", 99, 1),
        ("version", 7, 0),
    ])
    def test_rewritten_header_alarms_once_and_drops(self, trace, field, value, offset):
        cfg = SimConfig(seed=42, trace_wire=trace)
        sim = Simulation(cfg)
        run_with_interceptors(sim, 3, {1: [
            ("plc1", "node1", lambda f: dataclasses.replace(f, **{field: value}))]})
        alarms = sim.events.alarms()
        assert [(r.actor, r.code) for r in alarms] == [("node1", ev.MALFORMED_PAYLOAD)]
        assert alarms[0].tick // cfg.interval_ticks == 1
        stored = [(r.actor, r.tick // cfg.interval_ticks) for r in sim.events.by_code(ev.STORED)]
        assert ("node1", 1) not in stored and ("node1", 2) in stored
        blocks = sim.chain_module.chain.blocks
        assert [len(b.indexes) for b in blocks[1:]] == [2, 1, 2]
        if trace:
            rewritten = [data for data in sim.network.trace if data[offset] == value]
            assert len(rewritten) == 1

    def test_measurement_from_another_node_is_a_role_violation(self):
        """node3 may seal to node1, but only plc1 may send it a measurement."""
        cfg = SimConfig(seed=42)
        sim = Simulation(cfg)
        forged = MeasurementVector("Sensor 3", sim.interval_ts(1), (1, 2, 3))

        def send_forged(sim_, k):
            if k == 1:
                sim_.nodes[3].transport.send("node1", MEASUREMENT, seal(
                    forged.canonical, sim_.keystore["node3"], "node1",
                    sim_.directory.enc_pub("node1"), sim_.nodes[3].rng))

        sim.run(3, send_forged)
        alarms = sim.events.alarms()
        assert [(r.actor, r.code) for r in alarms] == [("node1", ev.ROLE_VIOLATION)]
        assert alarms[0].tick // cfg.interval_ticks == 1
        assert "node3" in alarms[0].detail
        assert sim.historian(1).get(forged.key) is None
        assert [len(b.indexes) for b in sim.chain_module.chain.blocks[1:]] == [2, 2, 2]

    @pytest.mark.parametrize("src, dst, claimed, code", [
        ("plc1", "node1", "node3", ev.DIGEST_MISMATCH),
        ("plc1", "node1", "plc2", ev.DIGEST_MISMATCH),
        ("plc1", "node1", "chain", ev.DIGEST_MISMATCH),
        ("chain", "node3", "node1", ev.DIGEST_MISMATCH),
        ("node1", "chain", "node2", ev.INDEX_REJECTED),
    ])
    def test_header_sender_not_matching_the_link_fails_authentication(
            self, src, dst, claimed, code):
        """The receiver checks the envelope against the key of the sender the
        header names, so a rewritten sender is rejected, never trusted."""
        cfg = SimConfig(seed=42)
        sim = Simulation(cfg)
        wire_id = sim.registry.wire_id(claimed)
        run_with_interceptors(sim, 3, {1: [
            (src, dst, lambda f: dataclasses.replace(f, sender_id=wire_id))]})
        alarms = sim.events.alarms()
        # A refused LOG is a lost one: the node's next cycle names it.
        lost_log = [(dst, ev.LOG_MISSING)] if src == "chain" else []
        assert [(r.actor, r.code) for r in alarms if r.actor == dst] == [(dst, code)] + lost_log
        assert all(r.tick // cfg.interval_ticks == 1 for r in alarms)

    def test_too_wide_header_field_is_an_interceptor_error(self):
        sim = Simulation(SimConfig(seed=42))
        sim.install_interceptor("plc1", "node1",
                                lambda f: dataclasses.replace(f, msg_type=256))
        with pytest.raises(EncodeError):
            sim.run(1)


NODE_LINKS = [(f"node{a}", f"node{b}") for a in range(1, 7) for b in range(1, 7) if a != b]


class TestMisaddressedFrames:
    """A frame whose header names an endpoint other than the one receiving
    it is dropped at the decode gate, whatever its type: the receiver raises
    MALFORMED_PAYLOAD naming the endpoint the header gives."""

    @pytest.mark.parametrize("msg_type, links, addressee", [
        (MEASUREMENT, [("plc1", "node1")], "node2"),
        (INDEX, [("node1", "chain")], "node3"),
        (LOG, [("chain", "node3")], "node4"),
        (REPLICA_REQ, NODE_LINKS, None),
        (REPLICA_RESP, NODE_LINKS, None),
    ], ids=["MEASUREMENT", "INDEX", "LOG", "REPLICA_REQ", "REPLICA_RESP"])
    def test_frame_for_another_endpoint_reaches_no_handler(self, msg_type, links,
                                                           addressee):
        cfg = SimConfig(seed=42)
        sim = Simulation(cfg)
        moved = {}  # bytes of each re-addressed frame -> (receiver, header's endpoint)
        gated = []
        unpack = sim.unpack_frame

        def readdress(src, dst):
            to = addressee or next(f"node{i}" for i in range(1, 7)
                                   if f"node{i}" not in (src, dst))

            def interceptor(frame):
                if frame.msg_type != msg_type:
                    return frame
                frame = dataclasses.replace(frame, recipient_id=sim.registry.wire_id(to))
                moved[pack_frame(frame)] = (dst, to)
                return frame
            return interceptor

        def record(data, receiver, *accepted):
            unpacked = unpack(data, receiver, *accepted)
            if data in moved:
                gated.append((receiver, unpacked is None))
            return unpacked

        sim.unpack_frame = record
        run_with_interceptors(sim, 3, {1: [(src, dst, readdress(src, dst))
                                           for src, dst in links]})
        assert moved and sorted(gated) == sorted((dst, True) for dst, _ in moved.values())
        dropped = [(r.actor, r.detail.split("dropped: ")[1])
                   for r in sim.events.by_code(ev.MALFORMED_PAYLOAD)]
        assert sorted(dropped) == sorted((dst, f"addressed to {to}, not {dst}")
                                         for dst, to in moved.values())
        unanswered = [r for r in sim.events.by_code(ev.REPLICA_NO_RESPONSE)
                      if r.tick // cfg.interval_ticks == 1]
        assert len(unanswered) == (len(moved) if msg_type == REPLICA_REQ else 0)


ENDPOINTS = ["plc1", "plc2", *(f"node{i}" for i in range(1, 7)), "chain"]
STORAGE_NODES = {f"node{i}" for i in range(1, 7)}


class TestIntake:
    """Simulation.intake opens each frame a receiver takes unasked under the
    key of the sender its header names, then checks that sender's role; only
    a frame that passes both reaches its handler."""

    # (type, receiver, senders it takes the type from, handler, code a
    # frame of the type that fails authentication raises)
    UNASKED = [
        (MEASUREMENT, "node1", {"plc1"}, (StorageNode, "register"), ev.DIGEST_MISMATCH),
        (MEASUREMENT, "node2", {"plc2"}, (StorageNode, "register"), ev.DIGEST_MISMATCH),
        (LOG, "node1", {"chain"}, (StorageNode, "handle_log"), ev.DIGEST_MISMATCH),
        (INDEX, "chain", STORAGE_NODES, (ChainModule, "collect"), ev.INDEX_REJECTED),
        (REPLICA_REQ, "node1", STORAGE_NODES - {"node1"}, (StorageNode, "serve_replica"),
         ev.REPLICA_REQUEST_REJECTED),
    ]

    @pytest.mark.parametrize("sender", ENDPOINTS)
    @pytest.mark.parametrize("msg_type, receiver, in_role, handler, code", UNASKED,
                             ids=["MEASUREMENT-node1", "MEASUREMENT-node2", "LOG",
                                  "INDEX", "REPLICA_REQ"])
    def test_authentic_in_role_sender_alone_reaches_the_handler(
            self, monkeypatch, msg_type, receiver, in_role, handler, code, sender):
        sim = Simulation(SimConfig(seed=42))
        reached = []
        monkeypatch.setattr(*handler, lambda _, *args: reached.append(args))
        body = b"any body: the handler is a stand-in"
        env = seal(body, sim.keystore[sender], receiver, sim.directory.enc_pub(receiver),
                   random.Random(1))

        deliver(sim, sender, receiver, msg_type, env)
        alarms = sim.events.alarms()
        if sender in in_role:
            assert alarms == []
            expected = (body, sim.chain_module.chain) if msg_type == LOG else (sender, body)
            assert reached == [expected]
        else:
            assert [(r.actor, r.code) for r in alarms] == [(receiver, ev.ROLE_VIOLATION)]
            assert sender in alarms[0].detail
            assert reached == []

        records_before = len(sim.events)
        deliver(sim, sender, receiver, msg_type, flip_body(env))
        new = sim.events.records[records_before:]
        assert [(r.actor, r.code) for r in new] == [(receiver, code)]
        assert "claimed=" in new[0].detail and "rebuilt=" in new[0].detail
        assert len(reached) == (sender in in_role)


class TestInterceptors:
    """The Simulation puts interceptors on links; last install wins."""

    def stored_by_node1(self, sim):
        return len(sim.events.by_code(ev.STORED, "node1"))

    def test_install_then_remove_restores_traffic(self):
        sim = Simulation(SimConfig(seed=42))
        handle = sim.install_interceptor("plc1", "node1", lambda f: None)
        sim.run(1)
        assert self.stored_by_node1(sim) == 0
        sim.remove_interceptor(handle)
        sim.run(1)
        assert self.stored_by_node1(sim) == 1
        assert sim.events.by_code(ev.INTERCEPTOR_REPLACED) == []

    def test_double_install_last_wins(self):
        sim = Simulation(SimConfig(seed=42))
        sim.install_interceptor("plc1", "node1", lambda f: None)
        sim.install_interceptor("plc1", "node1", lambda f: f)
        sim.run(1)
        assert self.stored_by_node1(sim) == 1
        (replaced,) = sim.events.by_code(ev.INTERCEPTOR_REPLACED)
        assert (replaced.actor, replaced.detail) == (
            "network", "link plc1->node1 interceptor replaced; last install wins")
        assert sim.events.alarms() == []


# A retyped frame whose new type its receiver takes at that point is opened by
# the intake, which refuses the sender's role; any other is dropped at the type gate.
ROLE_REFUSED = {("plc1", "node1", LOG), ("chain", "node3", MEASUREMENT)}


class TestRetypeSweep:
    @pytest.mark.parametrize("msg_type", [*MSG_TYPES, 99])
    @pytest.mark.parametrize("src, dst", [
        ("plc1", "node1"), ("node1", "chain"), ("chain", "node3"),
        ("node1", "node2"), ("node2", "node1"),
    ])
    def test_every_retyped_frame_alarms_at_its_receiver(self, monkeypatch, src, dst,
                                                        msg_type):
        """Each frame whose msg_type a one-interval interceptor changes gets
        one alarm from its receiver in that interval, and a dropped one is
        never opened: only a frame past the type gate is. A replica
        answer dropped by its requester is not also reported as unanswered."""
        cfg = SimConfig(seed=42)
        sim = Simulation(cfg)
        counts = {"sent": 0, "changed": 0}
        opened = []

        def recorded(env, *args):
            opened.append((env.sender_id, env.recipient_id,
                           sim.events.tick // cfg.interval_ticks))
            return envelope.open_envelope(env, *args)

        monkeypatch.setattr(sim_module, "open_envelope", recorded)
        monkeypatch.setattr(storage, "open_envelope", recorded)

        def retype(frame):
            counts["sent"] += 1
            counts["changed"] += frame.msg_type != msg_type
            return dataclasses.replace(frame, msg_type=msg_type)

        run_with_interceptors(sim, 3, {1: [(src, dst, retype)]})
        assert sim.intervals_run == 3 and counts["sent"] > 0
        code = ev.ROLE_VIOLATION if (src, dst, msg_type) in ROLE_REFUSED \
            else ev.MALFORMED_PAYLOAD
        alarms = [r.code for r in sim.events.alarms()
                  if r.actor == dst and r.tick // cfg.interval_ticks == 1
                  and r.code in (ev.ROLE_VIOLATION, ev.MALFORMED_PAYLOAD)]
        assert alarms == [code] * counts["changed"]
        dropped = counts["changed"] if code == ev.MALFORMED_PAYLOAD else 0
        assert opened.count((src, dst, 1)) == counts["sent"] - dropped
        assert not [r for r in sim.events.by_code(ev.REPLICA_NO_RESPONSE, dst)
                    if r.detail.startswith(f"{src} did not answer")]

    @pytest.mark.parametrize("src, dst", [("node1", "node2"), ("node2", "node1")])
    def test_request_or_answer_dropped_on_the_wire_is_unanswered(self, src, dst):
        """The src->dst link carries src's requests to dst and src's answers
        to dst's requests; with both dropped, each end reports the other."""
        sim = Simulation(SimConfig(seed=42))
        run_with_interceptors(sim, 3, {1: [(src, dst, lambda f: None)]})
        unanswered = {(r.actor, r.detail.split()[0])
                      for r in sim.events.by_code(ev.REPLICA_NO_RESPONSE)}
        assert unanswered == {(src, dst), (dst, src)}


class TestDeterminism:
    def run_artifacts(self, trace=False):
        sim = Simulation(SimConfig(seed=1234, trace_wire=trace))
        sim.run(3)
        arts = {
            "events": [r.line() for r in sim.events.records],
            "chain": dump_chain(sim.chain_module.chain),
        }
        for i, node in sim.nodes.items():
            arts[f"historian{i}"] = node.historian.dump()
        if trace:
            arts["trace"] = sim.network.trace
        return arts

    def test_identical_artifacts_same_seed(self):
        assert self.run_artifacts() == self.run_artifacts()

    def test_even_wire_bytes_are_reproducible(self):
        assert self.run_artifacts(trace=True) == self.run_artifacts(trace=True)

    def test_different_seed_changes_bytes(self):
        a = self.run_artifacts()
        sim = Simulation(SimConfig(seed=987))
        sim.run(3)
        assert [r.line() for r in sim.events.records] != a["events"] or \
            sim.historian(3).dump() != a["historian3"]


class TestRunFootprint:
    def test_trace_keeps_the_bytes_each_receiver_was_handed(self):
        """Every traced frame is the very bytes object its receiver decoded,
        for sent, rewritten and round-trip frames alike; a dropped frame is
        neither traced nor handed."""
        sim = Simulation(SimConfig(seed=42, trace_wire=True))
        handed = []
        unpack = sim.unpack_frame

        def record(data, receiver, *accepted):
            handed.append(data)
            return unpack(data, receiver, *accepted)

        def reverse_payload(frame):
            return dataclasses.replace(frame, payload=frame.payload[::-1])

        sim.unpack_frame = record
        run_with_interceptors(sim, 3, {1: [("plc1", "node1", reverse_payload),
                                           ("node2", "chain", lambda f: None)]})
        assert sim.events.by_code(ev.REPLICA_STORED) and handed
        assert sorted(map(id, sim.network.trace)) == sorted(map(id, handed))

    def test_kept_records_have_no_instance_dict(self):
        sim = Simulation(SimConfig(seed=42))
        sim.run(2)
        kept = [sim.historian(1).records()[0], sim.events.records[0],
                sim.chain_module.chain.tip, sim.network.links[("plc1", "node1")]]
        assert [type(obj).__name__ for obj in kept] == \
            ["MeasurementVector", "EventRecord", "Block", "Link"]
        assert not any(hasattr(obj, "__dict__") for obj in kept)


class TestArtifacts:
    def test_write_artifacts_files(self, tmp_path):
        sim = Simulation(SimConfig(seed=7, trace_wire=True))
        sim.run(2)
        paths = sim.write_artifacts(tmp_path)
        assert paths["events"].read_text().count("\n") == len(sim.events.records)
        assert paths["chain"].read_text().startswith("block|0|")
        for i in range(1, 7):
            assert paths[f"historian{i}"].exists()
        assert paths["wire_trace"].read_text().strip()

    def test_trace_off_by_default(self, tmp_path):
        sim = Simulation(SimConfig(seed=7))
        sim.run(1)
        paths = sim.write_artifacts(tmp_path)
        assert "wire_trace" not in paths


class TestConfig:
    def test_replication_factor_cannot_exceed_nodes(self):
        with pytest.raises(ConfigError):
            SimConfig(n_storage_nodes=6, replication_factor=7).validate()

    @pytest.mark.parametrize("n_nodes, replication", [(1, 1), (101, 3)])
    def test_node_count_outside_wiring_rejected(self, n_nodes, replication):
        # PLC2 always sends to node2, and node101 would take plc1's wire id.
        with pytest.raises(ConfigError, match="n_storage_nodes"):
            SimConfig(n_storage_nodes=n_nodes, replication_factor=replication).validate()

    @pytest.mark.parametrize("n_nodes, replication", [(2, 2), (100, 3)])
    def test_node_count_at_the_bounds_runs_clean(self, n_nodes, replication):
        sim = Simulation(SimConfig(n_storage_nodes=n_nodes, replication_factor=replication))
        sim.run(1)
        assert len(sim.chain_module.chain) == 2
        assert not sim.events.alarms()

    def test_setpoints_must_be_ordered(self):
        with pytest.raises(ConfigError):
            SimConfig(setpoint_low=6, setpoint_high=3).validate()

    def test_config_file_round_trip(self):
        text = """
        # comment line
        seed=99
        capacity=12
        flow_rate.A1=2
        setpoint_low=4
        setpoint_high=8
        sensor_noise=true
        """
        overrides = parse_config_file(text)
        cfg = SimConfig(**overrides).validate()
        assert cfg.seed == 99
        assert cfg.capacity == 12.0
        assert cfg.flow_rate_a1 == 2.0
        assert cfg.sensor_noise is True

    def test_config_file_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_file("bogus_key=1")

    @pytest.mark.parametrize("key", ["bogus_key", "flow_rate_a1"])
    def test_unknown_key_message(self, key):
        """A flow rate is a key only in its per-valve spelling."""
        with pytest.raises(ConfigError, match=f"^line 1: unknown config key '{key}'$"):
            parse_config_file(f"{key}=1")

    @pytest.mark.parametrize("key", ["interval_ticks", "sample_every"])
    def test_clock_is_not_settable(self, key):
        """The plant clock is a pair of constants, not config keys."""
        with pytest.raises(ConfigError, match=f"^line 1: unknown config key '{key}'$"):
            parse_config_file(f"{key}=60")
        assert key not in {f.name for f in dataclasses.fields(SimConfig)}

    @pytest.mark.parametrize("line, field, value", [
        ("seed=7", "seed", 7),
        ("flow_rate.A2=2.5", "flow_rate_a2", 2.5),
        ("capacity=12", "capacity", 12.0),
        ("sensor_noise=on", "sensor_noise", True),
        ("trace_wire=0", "trace_wire", False),
        ("start_time=2021-01-01T00:00", "start_time", datetime(2021, 1, 1)),
    ])
    def test_config_value_parsed_by_field_type(self, line, field, value):
        parsed = parse_config_file(line)
        assert parsed == {field: value} and type(parsed[field]) is type(value)

    @pytest.mark.parametrize("line, message", [
        ("seed=1.5", "bad value for seed: invalid literal for int() with base 10: '1.5'"),
        ("capacity=lots", "bad value for capacity: could not convert string to float: 'lots'"),
        ("trace_wire=maybe", "bad value for trace_wire: bad boolean 'maybe'"),
        ("start_time=2020-12-23 17:26", "bad value for start_time: bad minute timestamp "
                                        "'2020-12-23 17:26': expected %Y-%m-%dT%H:%M"),
    ])
    def test_config_bad_value_message(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config_file(f"# a comment\n{line}")
        assert str(info.value) == f"line 2: {message}"

    def test_config_file_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_file("seed=notanumber")

    @pytest.mark.parametrize("line, name", [
        ("flow_rate.A1=nan", "flow_rate_a1"),
        ("flow_rate.A3=inf", "flow_rate_a3"),
        ("capacity=inf", "capacity"),
        ("capacity=nan", "capacity"),
    ])
    def test_non_finite_rate_or_capacity_rejected(self, tmp_path, line, name):
        path = tmp_path / "run.conf"
        path.write_text(f"{line}\nsensor_noise=true\n")
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            load_config(path)
