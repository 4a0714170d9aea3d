"""Deterministic single-timeline simulation: plant, PLCs, storage nodes,
block minter, and the simulated wire, driven tick by tick.

Each interval (one simulated minute) ends with a fixed phase order: PLC vector
flush, wire delivery, block minting plus announcement, then one validator
pass per storage node, which also pulls the node's replicas. Identical config
and seed reproduce byte-identical artifacts. `Simulation.run` is the one
interval driver: clean, attacked (`attacks.run_plan`) and benchmarked runs
differ only in its hooks. A replica pull is one synchronous round trip on the
wire; the answer is sealed under the agreement its request's open recorded,
which lives only for that round trip.
"""

from __future__ import annotations

import random
from pathlib import Path

from . import events as ev
from .config import PLC_TARGET_NODE, SimConfig, rng_stream
from .envelope import (
    Agreement,
    AuthError,
    KeyDirectory,
    MeasurementVector,
    NodeKeys,
    clear_signature_caches,
    generate_node_keys,
    open_envelope,
    seal,
)
from .ledger import chain_lines
from .minter import ChainModule
from .plant import TwoTankPlant, default_plcs, plc_control, read_sensor
from .storage import StorageNode
from .wire import (
    ANSWER_DROPPED,
    FRAME_VERSION,
    INDEX,
    LOG,
    MEASUREMENT,
    REPLICA_REQ,
    REPLICA_RESP,
    HEADER,
    DecodeError,
    EndpointRegistry,
    Frame,
    Network,
    decode_frame,
    pack_envelope,
    unpack_envelope,
)

PLC_SENSOR_NAMES = {"plc1": "Sensor 1", "plc2": "Sensor 2"}

# Each type a receiver takes unasked: the kind of endpoint that may send it,
# its name in an alarm, what refusing it means, and the code an envelope of
# it that fails to open raises (None: DECRYPT_FAILED or DIGEST_MISMATCH).
INTAKE = {
    MEASUREMENT: ("plc", "measurement", "not stored", None),
    LOG: ("chain", "block announcement", "ignored", None),
    INDEX: ("node", "index", "not buffered", ev.INDEX_REJECTED),
    REPLICA_REQ: ("node", "replica request", "not answered", ev.REPLICA_REQUEST_REJECTED),
}


class NodeTransport:
    """Endpoint-side view of the wire: build frames, send, or request/response."""

    def __init__(self, sim: "Simulation", src: str):
        self.sim = sim
        self.src = src

    def frame(self, dst: str, msg_type: int, env) -> Frame:
        registry = self.sim.registry
        return Frame(FRAME_VERSION, msg_type, registry.wire_id(self.src),
                     registry.wire_id(dst), pack_envelope(env))

    def send(self, dst: str, msg_type: int, env):
        self.sim.network.send(self.frame(dst, msg_type, env))

    def round_trip(self, dst: str, msg_type: int, env):
        """The envelope `dst` answered with; None if no answer arrived, or
        wire.ANSWER_DROPPED if this endpoint dropped the answer it got."""
        data = self.sim.network.round_trip(self.frame(dst, msg_type, env),
                                           self.sim._answer)
        if data is None:
            return None
        unpacked = self.sim.unpack_frame(data, self.src, REPLICA_RESP)
        return ANSWER_DROPPED if unpacked is None else unpacked[1]


class PlcEndpoint:
    """Protocol side of a PLC: buffer readings, seal and ship one vector per interval."""

    def __init__(self, plc_id: str, keys: NodeKeys, directory: KeyDirectory,
                 transport: NodeTransport, rng: random.Random):
        self.sensor_name = PLC_SENSOR_NAMES[plc_id]
        self.target = PLC_TARGET_NODE[plc_id]
        self.keys = keys
        self.directory = directory
        self.transport = transport
        self.rng = rng
        self.buffer: list[int] = []

    def flush(self, captured_at):
        if self.buffer:
            vector = MeasurementVector(self.sensor_name, captured_at, tuple(self.buffer))
            self.buffer = []
            env = seal(vector.canonical, self.keys, self.target,
                       self.directory.enc_pub(self.target), self.rng)
            self.transport.send(self.target, MEASUREMENT, env)


class Simulation:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        clear_signature_caches()
        self.cfg = cfg
        self.events = ev.EventLog()
        self.registry = EndpointRegistry(cfg.n_storage_nodes)
        self.network = Network(self.registry, trace=cfg.trace_wire)
        self.replica_rng = rng_stream(cfg.seed, "replica-choice")

        node_names = [f"node{i}" for i in range(1, cfg.n_storage_nodes + 1)]
        self.directory = KeyDirectory()
        self.keystore: dict[str, NodeKeys] = {}
        # One crypto stream per endpoint, for its keys and then its seals, so
        # no endpoint's draws shift another's.
        crypto = {name: rng_stream(cfg.seed, f"crypto:{name}")
                  for name in ["plc1", "plc2", *node_names, "chain"]}
        for name, rng in crypto.items():
            keys = generate_node_keys(name, rng)
            self.keystore[name] = keys
            self.directory.register(keys)

        self._build_links(node_names)

        self.plant = TwoTankPlant(cfg)
        self.controllers = dict(zip(("plc1", "plc2"), default_plcs(cfg)))
        self.plcs = {
            name: PlcEndpoint(name, self.keystore[name], self.directory,
                              NodeTransport(self, name), crypto[name])
            for name in ("plc1", "plc2")
        }
        self.nodes = {
            i: StorageNode(i, self.keystore[f"node{i}"], self.directory,
                           NodeTransport(self, f"node{i}"), self.events,
                           crypto[f"node{i}"])
            for i in range(1, cfg.n_storage_nodes + 1)
        }
        self.chain_module = ChainModule(
            self.keystore["chain"], self.directory, NodeTransport(self, "chain"),
            self.events, self.replica_rng, cfg.n_storage_nodes,
            cfg.replication_factor, crypto["chain"],
        )
        self.intervals_run = 0

    # -- wiring -------------------------------------------------------------

    def _build_links(self, node_names):
        add = self.network.add_link
        for plc, node in PLC_TARGET_NODE.items():
            add(plc, node)
        for name in node_names:
            add(name, "chain")
            add("chain", name)
        for a in node_names:
            for b in node_names:
                if a != b:
                    add(a, b)

    def _deliver(self, receiver: str, data: bytes):
        """Hand one queued frame to its receiver: the chain takes INDEX, a
        node MEASUREMENT or LOG."""
        if receiver == "chain":
            taken = self.intake(data, receiver, INDEX)
            if taken is not None:
                self.chain_module.collect(*taken[1:])
            return
        taken = self.intake(data, receiver, MEASUREMENT, LOG)
        if taken is None:
            return
        msg_type, sender, plaintext = taken
        node = self.nodes[int(receiver.removeprefix("node"))]
        if msg_type == MEASUREMENT:
            node.register(sender, plaintext)
        else:
            node.handle_log(plaintext, self.chain_module.chain)

    def _answer(self, receiver: str, data: bytes) -> Frame | None:
        """A node's REPLICA_RESP to a REPLICA_REQ, or None for no answer. The
        body serve_replica gives is sealed under the request's own agreement,
        which intake records as it opens the request and which dies with this
        call; the answer makes no key pair and does no exchange."""
        agreement = Agreement()
        taken = self.intake(data, receiver, REPLICA_REQ, agreement=agreement)
        if taken is None:
            return None
        _, sender, plaintext = taken
        node = self.nodes[int(receiver.removeprefix("node"))]
        body = node.serve_replica(sender, plaintext)
        if body is None:
            return None
        reply = seal(body, node.keys, sender, None, node.rng, reply=agreement)
        return node.transport.frame(sender, REPLICA_RESP, reply)

    def intake(self, data: bytes, receiver: str, *accepted: int,
               agreement: Agreement | None = None):
        """(msg_type, sender, plaintext) of a frame `receiver` takes unasked,
        or None: the one step that opens such a frame's envelope, under the
        key of the sender its header names, and checks that sender against
        INTAKE's kind for the type and the links. On failure `receiver`
        raises the type's alarm, or ROLE_VIOLATION for an authentic sender out
        of its role, and the frame reaches no handler. An empty `agreement`
        records the envelope's X25519 agreement, which a replica request's
        answer is sealed under. A replica answer is opened by its asker,
        which alone knows whom it asked, what digest it expects and the
        agreement of its request."""
        unpacked = self.unpack_frame(data, receiver, *accepted)
        if unpacked is None:
            return None
        msg_type, env = unpacked
        sender = env.sender_id
        kind, what, refused, code = INTAKE[msg_type]
        try:
            plaintext = open_envelope(env, self.keystore[receiver],
                                      self.directory.sig_pub(sender), agreement)
        except AuthError as exc:
            if code is None:
                code = (ev.DECRYPT_FAILED if exc.kind == AuthError.DECRYPT_FAILED
                        else ev.DIGEST_MISMATCH)
            detail = f"{what} from {sender} rejected, {refused}: {exc.detail}"
            if exc.claimed is not None:
                detail += f"; claimed={exc.claimed} rebuilt={exc.rebuilt}"
            self.events.alarm(receiver, code, detail)
            return None
        if sender.rstrip("0123456789") != kind or (sender, receiver) not in self.network.links:
            self.events.alarm(receiver, ev.ROLE_VIOLATION,
                              f"authentic {what} from {sender}, which may not send "
                              f"it to {receiver}; {refused}")
            return None
        return msg_type, sender, plaintext

    def unpack_frame(self, data: bytes, receiver: str, *accepted: int):
        """(msg_type, envelope) for a frame's bytes, addressed by endpoint
        name; the one place anything off the wire is decoded, so the one gate
        on a frame's header, type and payload. A frame taken unasked then
        goes on to `intake`, the one place its envelope is opened.

        A frame whose header decode_frame rejects, whose type is not among
        `accepted` (the types `receiver` takes at this point), that names an
        unknown endpoint or an addressee other than `receiver`, or whose
        payload does not unpack is dropped: `receiver` raises MALFORMED_PAYLOAD
        and None is returned, so the frame reaches no handler.
        """
        try:
            frame = decode_frame(data)
            addressee = self.registry.name(frame.recipient_id)
            if addressee != receiver:
                reason = f"addressed to {addressee}, not {receiver}"
            elif frame.msg_type in accepted:
                return frame.msg_type, unpack_envelope(
                    frame.payload, self.registry.name(frame.sender_id), receiver)
            else:
                reason = f"{receiver} does not take this type here"
        except KeyError as exc:
            reason = f"unknown endpoint id {exc}"
        except DecodeError as exc:
            reason = str(exc)
        _, msg_type, sender_id, _, _ = HEADER.unpack_from(data)
        self.events.alarm(receiver, ev.MALFORMED_PAYLOAD,
                          f"frame type {msg_type} from wire id {sender_id} "
                          f"dropped: {reason}")
        return None

    # -- clock --------------------------------------------------------------

    def interval_ts(self, interval_index: int):
        return self.cfg.interval_start(interval_index)

    # -- the one interval driver ----------------------------------------------

    def run(self, minutes: int, before_boundary=None, after_boundary=None):
        """Closed-loop run of the plant for the given number of intervals; each
        hook gets (sim, k), before interval k's flush or after its validation."""
        noise_seed = self.cfg.seed if self.cfg.sensor_noise else None
        for _ in range(minutes):
            k = self.intervals_run
            base = k * self.cfg.interval_ticks
            for step in range(self.cfg.interval_ticks):
                for name, plc in self.controllers.items():
                    reading = read_sensor(self.plant.tanks, plc.sensor_id,
                                          base + step, noise_seed)
                    self.plant.valves.update(plc_control(plc, reading))
                    if step % self.cfg.sample_every == 0:
                        self.plcs[name].buffer.append(reading)
                self.plant.step()
            self._run_boundary(k, before_boundary, after_boundary)

    def _run_boundary(self, interval_index: int, before_boundary, after_boundary):
        """End-of-interval phases: flush, deliver, mint, announce, validate and
        pull. A node whose PLC's link carried no frame by the end of delivery
        raises MISSING_VECTOR; a frame that arrived and was refused has
        already raised its own alarm."""
        ts = self.interval_ts(interval_index)
        self.events.tick = (interval_index + 1) * self.cfg.interval_ticks - 1
        if before_boundary:
            before_boundary(self, interval_index)
        carried = {key: self.network.links[key].carried for key in PLC_TARGET_NODE.items()}
        for plc in self.plcs.values():
            plc.flush(ts)
        self.network.pump(self._deliver)
        for (plc, node), before in carried.items():
            if self.network.links[plc, node].carried == before:
                self.events.alarm(node, ev.MISSING_VECTOR,
                                  f"no measurement from {plc} arrived this interval; "
                                  "nothing to store or index")
        if self.chain_module.close_interval(ts) is not None:
            self.network.pump(self._deliver)
        for node in self.nodes.values():
            node.validate_cycle(self.chain_module.chain)
        if after_boundary:
            after_boundary(self, interval_index)
        self.intervals_run = interval_index + 1

    # -- convenience ----------------------------------------------------------

    def historian(self, node_id: int):
        return self.nodes[node_id].historian

    def install_interceptor(self, src: str, dst: str, fn):
        """Put `fn` on the src->dst link (see wire.Interceptor); last install
        wins. Returns the handle remove_interceptor takes. A frame `fn`
        returns with a header field too wide for its slot raises
        wire.EncodeError out of the run; that is the interceptor's fault."""
        link = self.network.links[(src, dst)]
        if link.interceptor is not None:
            self.events.info("network", ev.INTERCEPTOR_REPLACED,
                             f"link {src}->{dst} interceptor replaced; last install wins")
        link.interceptor = fn
        return src, dst

    def remove_interceptor(self, handle: tuple[str, str]):
        self.network.links[handle].interceptor = None

    # -- artifacts --------------------------------------------------------------

    def write_artifacts(self, outdir) -> dict[str, Path]:
        """Write the run's artifacts to `outdir`; returns their paths by name.

        Every file is streamed a line at a time and never held whole: an
        event record or chain line is formatted, and a traced frame (kept as
        bytes) is hexed, only as its line is written.
        """
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        paths["events"] = outdir / "events.log"
        with paths["events"].open("w", encoding="utf-8") as out:
            out.writelines(record.line() + "\n" for record in self.events.records)
        paths["chain"] = outdir / "chain.txt"
        with paths["chain"].open("w", encoding="utf-8") as out:
            out.writelines(chain_lines(self.chain_module.chain))
        for i, node in self.nodes.items():
            path = outdir / f"historian{i}.txt"
            with path.open("wb") as out:
                out.writelines(r.canonical + b"\n" for r in node.historian.records())
            paths[f"historian{i}"] = path
        if self.network.trace is not None:
            path = outdir / "wire_trace.txt"
            with path.open("w", encoding="utf-8") as out:
                out.writelines(data.hex() + "\n" for data in self.network.trace)
            paths["wire_trace"] = path
        return paths
