"""Span and count recorder wrapped around histchain's public entry points.

Each entry point gets a span: its start, its end and the span that was open
when it started. Spans stay in memory, in flat arrays, until the run ends;
self time is then a span's duration minus the durations of its direct
children. Modules bind names with `from .envelope import seal`, so a module
function is replaced in every histchain namespace that holds it, and a method
is replaced on its class.

Nothing here edits the program's files: the wrappers exist only between
`install()` and `uninstall()`.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

from histchain import attacks, audit, envelope, events, ledger, minter, plant, sim, storage, wire


def _count_checked(tracer, result, args):
    tracer.counts["storage.records_checked"] += len(result)


def _count_recovered(tracer, result, args):
    tracer.counts["storage.recover.ok"] += result is not None


def _count_verified(tracer, result, args):
    blocks = args[0].blocks
    tracer.counts["ledger.blocks_verified"] += (len(blocks) - 1 if result is None
                                                else result.position)
    tracer.distinct_blocks.update(b.block_hash.hex for b in blocks[1:])


def _count_rejected_open(tracer, exc):
    if isinstance(exc, envelope.AuthError):
        tracer.counts["envelope.open.rejected"] += 1


def _count_delivered(tracer, result, args):
    if result is not None:
        tracer.counts["wire.frames_delivered"] += 1
        tracer.counts["wire.bytes_delivered"] += wire.HEADER_LEN + len(result.payload)


def _count_collected(tracer, result, args):
    tracer.counts["minter.collect.rejected"] += not result


def _count_minted(tracer, result, args):
    if result is not None:
        tracer.counts["minter.blocks"] += 1
        tracer.counts["minter.indexes"] += len(result.indexes)


def _count_artifacts(tracer, result, args):
    tracer.counts["sim.artifact_bytes"] += sum(p.stat().st_size for p in result.values())


def _count_event(tracer, result, args):
    log = args[0]
    tracer.counts["events.records"] += 1
    tracer.counts["events.alarms"] += log.records[-1].severity == events.ALARM
    tracer.counts["events.bytes"] += len(log.records[-1].line()) + 1


def _count_audit(tracer, result, args):
    tracer.counts["audit.findings"] += len(result.findings)
    tracer.counts["audit.flagged"] += len(result.flagged())


# (owner, attribute, span name or None for a count-only wrapper, on_result, on_raise)
ENTRY_POINTS = (
    (storage.Historian, "at_time", "storage.at_time", None, None),
    (storage.Historian, "load", "storage.historian_load", None, None),
    (storage.StorageNode, "validate_cycle", "storage.validate_cycle", _count_checked, None),
    (storage.StorageNode, "register", "storage.register", None, None),
    (storage.StorageNode, "handle_log", "storage.handle_log", None, None),
    (storage.StorageNode, "serve_replica", "storage.serve_replica", None, None),
    (storage.StorageNode, "recover", "storage.recover", _count_recovered, None),
    (ledger, "verify_chain", "ledger.verify_chain", _count_verified, None),
    (ledger, "make_block", "ledger.make_block", None, None),
    (ledger, "parse_chain_dump", "ledger.parse_chain_dump", None, None),
    (envelope, "seal", "envelope.seal", None, None),
    (envelope, "open_envelope", "envelope.open", None, _count_rejected_open),
    (envelope, "vector_digest", "envelope.vector_digest", None, None),
    (envelope, "parse_canonical", "envelope.parse_canonical", None, None),
    (wire.Network, "send", "wire.send", None, None),
    (wire.Network, "pump", "wire.pump", None, None),
    (wire.Network, "round_trip", "wire.round_trip", None, None),
    (wire.Link, "apply", None, _count_delivered, None),
    (minter.ChainModule, "collect", "minter.collect", _count_collected, None),
    (minter.ChainModule, "close_interval", "minter.close_interval", _count_minted, None),
    (plant.TwoTankPlant, "step", "plant.step", None, None),
    (plant, "read_sensor", "plant.read_sensor", None, None),
    (plant, "plc_control", "plant.plc_control", None, None),
    (sim.Simulation, "run", "sim.tick_loop", None, None),
    (sim.Simulation, "write_artifacts", "sim.write_artifacts", _count_artifacts, None),
    (attacks, "run_scenario_a", "attacks.scenario", None, None),
    (attacks, "run_scenario_b", "attacks.scenario", None, None),
    (attacks, "run_scenario_c", "attacks.scenario", None, None),
    (audit, "audit_artifacts", "audit.audit_artifacts", _count_audit, None),
    (events.EventLog, "append", None, _count_event, None),
)


def _namespaces(original):
    """Every loaded histchain module whose globals bind `original`."""
    for name, module in list(sys.modules.items()):
        if name == "histchain" or name.startswith("histchain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_blocks: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, on_result=None, on_raise=None):
        """A function that records a span named `name` (or only runs the hooks
        when name is None) around each call of fn."""
        tracer = self
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(tracer, result, args)
                return result
            return counted

        name_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_spans = self.span_start, self.span_end, self._open

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter_ns()
                open_spans.pop()
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            ends[idx] = perf_counter_ns()
            open_spans.pop()
            if on_result is not None:
                on_result(tracer, result, args)
            return result
        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, on_result, on_raise in ENTRY_POINTS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, on_result, on_raise))
                else:
                    wrapped = self.wrap(raw, name, on_result, on_raise)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, on_result, on_raise)
                for module, bound_as in _namespaces(original):
                    self._undo.append((module, bound_as, original))
                    setattr(module, bound_as, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def calls(self) -> Counter:
        out = Counter()
        for name_id in self.span_name:
            out[self.names[name_id]] += 1
        return out

    def self_ns(self) -> Counter:
        """Per span name: total duration minus the time its direct children cover."""
        n = len(self.span_start)
        child = array("q", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.span_name[i]]] += ends[i] - starts[i] - child[i]
        return out
