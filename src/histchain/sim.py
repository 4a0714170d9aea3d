"""Deterministic single-timeline simulation: plant, PLCs, storage nodes,
block minter, and the simulated wire, driven tick by tick.

Each interval (one simulated minute) ends with a fixed phase order: PLC vector
flush, wire delivery, block minting plus announcement and replication, then
one validator pass per storage node. Identical config and seed reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import random
from pathlib import Path

from . import events as ev
from .config import SimConfig, rng_stream
from .envelope import (
    KeyDirectory,
    MeasurementVector,
    NodeKeys,
    canonical_serialize,
    generate_node_keys,
    seal,
)
from .ledger import dump_chain
from .minter import ChainModule
from .plant import (
    SensorMismatchError,
    TwoTankPlant,
    default_plcs,
    plc_control,
    read_sensor,
)
from .storage import StorageNode
from .wire import (
    INDEX,
    LOG,
    MEASUREMENT,
    REPLICA_REQ,
    REPLICA_RESP,
    EndpointRegistry,
    Frame,
    Network,
    pack_envelope,
    unpack_envelope,
)

PLC_SENSOR_NAMES = {"plc1": "Sensor 1", "plc2": "Sensor 2"}
PLC_TARGET_NODE = {"plc1": "node1", "plc2": "node2"}


class NodeTransport:
    """Endpoint-side view of the wire: build frames, send, or request/response."""

    def __init__(self, sim: "Simulation", src: str):
        self.sim = sim
        self.src = src

    def _frame(self, dst: str, msg_type: int, env) -> Frame:
        registry = self.sim.registry
        return Frame(1, msg_type, registry.wire_id(self.src),
                     registry.wire_id(dst), pack_envelope(env))

    def send(self, dst: str, msg_type: int, env):
        self.sim.network.send(self._frame(dst, msg_type, env))

    def round_trip(self, dst: str, msg_type: int, env):
        response = self.sim.network.round_trip(
            self._frame(dst, msg_type, env), self.sim.request_handlers)
        if response is None:
            return None
        return self.sim.unpack_frame(response)


class PlcEndpoint:
    """Protocol side of a PLC: buffer readings, seal and ship one vector per interval."""

    def __init__(self, plc_id: str, keys: NodeKeys, directory: KeyDirectory,
                 transport: NodeTransport, rng: random.Random):
        self.plc_id = plc_id
        self.sensor_name = PLC_SENSOR_NAMES[plc_id]
        self.target = PLC_TARGET_NODE[plc_id]
        self.keys = keys
        self.directory = directory
        self.transport = transport
        self.rng = rng
        self.buffer: list[int] = []

    def flush(self, captured_at) -> bool:
        if not self.buffer:
            return False
        vector = MeasurementVector(self.sensor_name, captured_at, tuple(self.buffer))
        self.buffer = []
        env = seal(canonical_serialize(vector), self.keys, self.target,
                   self.directory.enc_pub(self.target), self.rng)
        self.transport.send(self.target, MEASUREMENT, env)
        return True


class Simulation:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.events = ev.EventLog()
        self.registry = EndpointRegistry(cfg.n_storage_nodes)
        self.network = Network(self.registry, trace=cfg.trace_wire)
        self.crypto_rng = rng_stream(cfg.seed, "crypto")
        self.replica_rng = rng_stream(cfg.seed, "replica-choice")

        node_names = [f"node{i}" for i in range(1, cfg.n_storage_nodes + 1)]
        self.directory = KeyDirectory()
        self.keystore: dict[str, NodeKeys] = {}
        for name in ["plc1", "plc2", *node_names, "chain"]:
            keys = generate_node_keys(name, self.crypto_rng)
            self.keystore[name] = keys
            self.directory.register(keys)

        self._build_links(node_names)

        self.plant = TwoTankPlant(cfg)
        self.plc_states = dict(zip(("plc1", "plc2"), default_plcs(cfg)))
        self.plcs = {
            name: PlcEndpoint(name, self.keystore[name], self.directory,
                              NodeTransport(self, name), self.crypto_rng)
            for name in ("plc1", "plc2")
        }
        self.nodes = {
            i: StorageNode(i, self.keystore[f"node{i}"], self.directory,
                           NodeTransport(self, f"node{i}"), self.events,
                           self.crypto_rng)
            for i in range(1, cfg.n_storage_nodes + 1)
        }
        self.chain_module = ChainModule(
            self.keystore["chain"], self.directory, self.events,
            self.replica_rng, cfg.n_storage_nodes, cfg.replication_factor,
            self.crypto_rng,
        )
        self.handlers = self._build_handlers()
        self.request_handlers = self._build_request_handlers()
        self.tick = 0
        self.intervals_run = 0

    # -- wiring -------------------------------------------------------------

    def _build_links(self, node_names):
        add = self.network.add_link
        add("plc1", "node1")
        add("plc2", "node2")
        for name in node_names:
            add(name, "chain")
            add("chain", name)
        for a in node_names:
            for b in node_names:
                if a != b:
                    add(a, b)

    def _build_handlers(self):
        handlers = {}

        def node_handler(node):
            def handle(frame: Frame):
                node.handle_frame(self.unpack_frame(frame), frame.msg_type,
                                  self.chain_module.chain)
            return handle

        for i, node in self.nodes.items():
            handlers[f"node{i}"] = node_handler(node)

        def chain_handler(frame: Frame):
            env = self.unpack_frame(frame)
            if frame.msg_type == INDEX:
                self.chain_module.collect(env)

        handlers["chain"] = chain_handler
        handlers["plc1"] = handlers["plc2"] = lambda frame: None
        return handlers

    def _build_request_handlers(self):
        handlers = {}

        def responder(node):
            def handle(frame: Frame):
                if frame.msg_type != REPLICA_REQ:
                    return None
                reply = node.serve_replica(self.unpack_frame(frame))
                if reply is None:
                    return None
                return Frame(1, REPLICA_RESP,
                             self.registry.wire_id(node.name),
                             frame.sender_id, pack_envelope(reply))
            return handle

        for i, node in self.nodes.items():
            handlers[f"node{i}"] = responder(node)
        return handlers

    def unpack_frame(self, frame: Frame):
        """The envelope a frame carries, addressed by endpoint name; the one
        place an endpoint decodes a payload."""
        return unpack_envelope(frame.payload, self.registry.name(frame.sender_id),
                               self.registry.name(frame.recipient_id))

    # -- clock --------------------------------------------------------------

    def _set_tick(self, tick: int):
        self.tick = tick
        for node in self.nodes.values():
            node.tick = tick
        self.chain_module.tick = tick

    def interval_ts(self, interval_index: int):
        return self.cfg.interval_start(interval_index)

    # -- plant-driven run -----------------------------------------------------

    def run(self, minutes: int, before_boundary=None, after_boundary=None):
        """Closed-loop run of the plant for the given number of intervals."""
        noise_seed = self.cfg.seed if self.cfg.sensor_noise else None
        for _ in range(minutes):
            k = self.intervals_run
            base = k * self.cfg.interval_ticks
            for step in range(self.cfg.interval_ticks):
                t = base + step
                self._set_tick(t)
                for name, state in self.plc_states.items():
                    reading = read_sensor(self.plant.tanks, state.sensor_id, t,
                                          noise_seed)
                    try:
                        commands = plc_control(state, reading)
                    except SensorMismatchError:
                        self.events.alarm(t, name, ev.SENSOR_MISMATCH,
                                          "reading rejected by controller")
                        continue
                    state.valve_commands = commands
                    self.plant.apply_commands(commands)
                    if step % self.cfg.sample_every == 0:
                        self.plcs[name].buffer.append(reading.value)
                self.plant.step(1)
            self._run_boundary(k, before_boundary, after_boundary)

    def run_scripted(self, script, before_boundary=None, after_boundary=None):
        """Drive intervals from explicit vectors instead of the plant.

        script: one dict per interval mapping plc name -> list of values, or
        None to stay silent that interval.
        """
        for entry in script:
            k = self.intervals_run
            self._set_tick((k + 1) * self.cfg.interval_ticks - 1)
            for name, values in entry.items():
                if values is not None:
                    self.plcs[name].buffer = list(values)
            self._run_boundary(k, before_boundary, after_boundary)

    def _run_boundary(self, interval_index: int, before_boundary, after_boundary):
        """End-of-interval phases: flush, deliver, mint, announce, replicate, validate."""
        ts = self.interval_ts(interval_index)
        boundary_tick = (interval_index + 1) * self.cfg.interval_ticks - 1
        self._set_tick(boundary_tick)
        if before_boundary:
            before_boundary(self, interval_index)
        for plc in self.plcs.values():
            plc.flush(ts)
        self.network.pump(self.handlers)
        block = self.chain_module.close_interval(ts)
        if block is not None:
            transport = NodeTransport(self, "chain")
            for name, env in self.chain_module.broadcast_log(block.block_hash):
                transport.send(name, LOG, env)
            self.network.pump(self.handlers)
        for node in self.nodes.values():
            node.validate_cycle(self.chain_module.chain)
        if after_boundary:
            after_boundary(self, interval_index)
        self.intervals_run = interval_index + 1

    # -- convenience ----------------------------------------------------------

    def historian(self, node_id: int):
        return self.nodes[node_id].historian

    def install_interceptor(self, src: str, dst: str, fn):
        handle, replaced = self.network.install_interceptor(src, dst, fn)
        if replaced:
            self.events.info(self.tick, "network", ev.INTERCEPTOR_REPLACED,
                             f"link {src}->{dst} interceptor replaced; last install wins")
        return handle

    def remove_interceptor(self, handle):
        self.network.remove_interceptor(handle)

    # -- artifacts --------------------------------------------------------------

    def write_artifacts(self, outdir) -> dict[str, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        paths["events"] = outdir / "events.log"
        paths["events"].write_text(self.events.dump(), encoding="utf-8")
        paths["chain"] = outdir / "chain.txt"
        paths["chain"].write_text(dump_chain(self.chain_module.chain), encoding="utf-8")
        for i, node in self.nodes.items():
            path = outdir / f"historian{i}.txt"
            path.write_text(node.historian.dump(), encoding="utf-8")
            paths[f"historian{i}"] = path
        if self.network.trace is not None:
            path = outdir / "wire_trace.txt"
            path.write_text("".join(line + "\n" for line in self.network.trace),
                            encoding="utf-8")
            paths["wire_trace"] = path
        return paths
