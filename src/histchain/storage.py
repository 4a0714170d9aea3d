"""Storage nodes: each hosts a Historian plus the three protocol roles.

Register verifies and stores vectors arriving from a PLC and submits their
index to the block-minting module. The replication handler pulls copies of
vectors the ledger assigns to this node. The validator cyclically re-walks the
whole chain, recomputes the digest of every locally held vector, and triggers
automated recovery from the other listed holders when a digest disagrees or a
record is missing.

A Historian indexes its records by capture minute as well as by key, so the
validator finds the candidates for a ledger index with one dict lookup. The
digest itself is recomputed on every check and never cached, so an at-rest
edit is caught on the next cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime

from . import events as ev
from .config import fmt_minute, parse_minute
from .envelope import (
    AuthError,
    KeyDirectory,
    MeasurementVector,
    NodeKeys,
    SerializationError,
    canonical_serialize,
    open_envelope,
    parse_canonical,
    seal,
    vector_digest,
)
from .ledger import Chain, LedgerIndex, verify_chain
from .wire import INDEX, LOG, MEASUREMENT, REPLICA_REQ

INTACT = "intact"
TAMPERED_RECOVERED = "tampered_recovered"
TAMPERED_UNRECOVERABLE = "tampered_unrecoverable"

NOT_FOUND_MARKER = b"NOTFOUND"


class DuplicateRecordError(ValueError):
    """(name, time) already present in this Historian."""


@dataclass(frozen=True)
class HistorianRecord:
    name: str
    values: tuple[int, ...]
    time: datetime
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.name, fmt_minute(self.time)))

    def vector(self) -> MeasurementVector:
        return MeasurementVector(self.name, self.time, self.values)

    def digest_hex(self) -> str:
        return vector_digest(self.vector()).hex


class Historian:
    """Keyed record store, insertion-ordered; persisted one canonical line per record.

    _by_minute maps each ISO minute to that minute's records, keyed like
    _records and updated in step with it, so each minute's dict keeps the
    relative order the records have in _records.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._records: dict[tuple[str, str], HistorianRecord] = {}
        self._by_minute: dict[str, dict[tuple[str, str], HistorianRecord]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[HistorianRecord]:
        return list(self._records.values())

    def get(self, key: tuple[str, str]) -> HistorianRecord | None:
        return self._records.get(key)

    def at_time(self, iso_minute: str) -> list[HistorianRecord]:
        return list(self._by_minute.get(iso_minute, {}).values())

    def put_new(self, record: HistorianRecord):
        if record.key in self._records:
            raise DuplicateRecordError(f"{record.key} already stored")
        self.overwrite(record)

    def overwrite(self, record: HistorianRecord):
        self._records[record.key] = record
        self._by_minute.setdefault(record.key[1], {})[record.key] = record

    def delete(self, key: tuple[str, str]):
        if self._records.pop(key, None) is not None:
            del self._by_minute[key[1]][key]

    def tamper(self, key: tuple[str, str], forged_values) -> HistorianRecord:
        """Direct store edit used by the insider-attack scenario; returns the old record."""
        old = self._records[key]
        self.overwrite(HistorianRecord(old.name, tuple(forged_values), old.time))
        return old

    def dump(self) -> str:
        return "".join(
            canonical_serialize(r.vector()).decode("utf-8") + "\n"
            for r in self._records.values()
        )

    @classmethod
    def load(cls, node_id: int, text: str) -> "Historian":
        historian = cls(node_id)
        for raw in text.splitlines():
            if not raw.strip():
                continue
            vector = parse_canonical(raw.encode("utf-8"))
            historian.overwrite(HistorianRecord(vector.sensor_name, vector.values,
                                                vector.captured_at))
        return historian


@dataclass(frozen=True)
class ValidationFinding:
    """Per-index verdict from one validator pass over the chain."""

    key: tuple[str | None, str]
    verdict: str
    expected_digest: str
    found_digest: str | None
    recovered_from: int | None = None


@dataclass
class RecoveryOutcome:
    recovered_from: int
    vector: MeasurementVector
    previous: HistorianRecord | None


class StorageNode:
    """One storage node state machine; processes one message at a time."""

    def __init__(self, node_id: int, keys: NodeKeys, directory: KeyDirectory,
                 transport, event_log: ev.EventLog, rng: random.Random):
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.keys = keys
        self.directory = directory
        self.transport = transport
        self.events = event_log
        self.rng = rng
        self.historian = Historian(node_id)
        # digest hex -> capture minute for vectors submitted but not yet seen
        # in a minted block; anything left behind is a ledger coverage gap.
        self.pending_submissions: dict[str, str] = {}
        self.tick = 0

    # -- helpers ----------------------------------------------------------

    def _open(self, env) -> bytes:
        return open_envelope(env, self.keys, self.directory.sig_pub(env.sender_id))

    def _seal_to(self, recipient: str, plaintext: bytes):
        return seal(plaintext, self.keys, recipient,
                    self.directory.enc_pub(recipient), self.rng)

    def _auth_alarm(self, exc: AuthError, context: str):
        code = ev.DECRYPT_FAILED if exc.kind == AuthError.DECRYPT_FAILED else ev.DIGEST_MISMATCH
        detail = f"{context}: {exc.detail}"
        if exc.claimed is not None:
            detail += f"; claimed={exc.claimed} rebuilt={exc.rebuilt}"
        self.events.alarm(self.tick, self.name, code, detail)

    # -- register ----------------------------------------------------------

    def handle_frame(self, env, msg_type: int, chain: Chain):
        if msg_type == MEASUREMENT:
            self.register(env)
        elif msg_type == LOG:
            self.handle_log(env, chain)

    def register(self, env):
        """Verify, store, and index a vector from a PLC.

        Returns the submitted fingerprint Digest when stored, None when
        rejected (the alarm carries the reason).
        """
        try:
            plaintext = self._open(env)
        except AuthError as exc:
            self._auth_alarm(exc, f"measurement from {env.sender_id} rejected, not stored")
            return None
        try:
            vector = parse_canonical(plaintext)
        except SerializationError as exc:
            self.events.alarm(self.tick, self.name, ev.MALFORMED_PAYLOAD,
                              f"authentic but unparseable measurement: {exc}")
            return None
        record = HistorianRecord(vector.sensor_name, vector.values, vector.captured_at)
        try:
            self.historian.put_new(record)
        except DuplicateRecordError:
            self.events.alarm(self.tick, self.name, ev.DUPLICATE_RECORD,
                              f"{record.key} already stored; rejected")
            return None
        # Independent recomputation over the canonical form, which embeds the
        # sensor name and capture time alongside the values.
        fingerprint = vector_digest(vector)
        self.events.info(self.tick, self.name, ev.MSG_AUTHENTIC,
                         f"vector from {env.sender_id} verified; digest={fingerprint.hex}")
        self.events.info(self.tick, self.name, ev.STORED,
                         f"stored {record.key[0]}@{record.key[1]}; replication pending")
        submission = f"{fingerprint.hex}|{record.key[1]}".encode("ascii")
        self.pending_submissions[fingerprint.hex] = record.key[1]
        self.transport.send("chain", INDEX, self._seal_to("chain", submission))
        return fingerprint

    # -- replication handler ------------------------------------------------

    def handle_log(self, env, chain: Chain) -> list[int]:
        """Process a minted-block announcement; returns origins pulled from."""
        try:
            plaintext = self._open(env)
        except AuthError as exc:
            self._auth_alarm(exc, "block announcement rejected")
            return []
        block_hash = plaintext.decode("ascii", errors="replace")
        try:
            block = chain.lookup(block_hash)
        except KeyError:
            self.events.alarm(self.tick, self.name, ev.UNKNOWN_BLOCK,
                              f"announced block {block_hash[:16]}.. not in chain view")
            return []
        self._reconcile_submissions(block)
        pulled = []
        for ix in block.indexes:
            if self.node_id in ix.replica_ids[1:]:
                if self._pull_replica(ix):
                    pulled.append(ix.replica_ids[0])
        return pulled

    def _reconcile_submissions(self, block):
        block_minute = fmt_minute(block.minted_at)
        block_digests = {ix.vector_digest.hex for ix in block.indexes}
        for digest_hex, minute in list(self.pending_submissions.items()):
            if minute > block_minute:
                continue
            if digest_hex not in block_digests:
                self.events.alarm(
                    self.tick, self.name, ev.COVERAGE_GAP,
                    f"vector {digest_hex} captured {minute} never reached the ledger; "
                    "its integrity cannot be checked by the validator",
                )
            del self.pending_submissions[digest_hex]

    def _pull_replica(self, ix: LedgerIndex) -> bool:
        sources = [n for n in ix.replica_ids if n != self.node_id]
        for source in sources:
            vector = self._request_vector(source, ix)
            if vector is None:
                continue
            record = HistorianRecord(vector.sensor_name, vector.values, vector.captured_at)
            existing = self.historian.get(record.key)
            if existing is None or existing.digest_hex() != ix.vector_digest.hex:
                self.historian.overwrite(record)
            self.events.info(self.tick, self.name, ev.REPLICA_STORED,
                             f"replica {record.key[0]}@{record.key[1]} pulled from node{source}")
            return True
        return False

    def _request_vector(self, source: int, ix: LedgerIndex) -> MeasurementVector | None:
        """Sealed replica request to one holder; verified against the ledger digest."""
        request = f"{ix.vector_digest.hex}|{fmt_minute(ix.captured_at)}".encode("ascii")
        response = self.transport.round_trip(
            f"node{source}", REPLICA_REQ, self._seal_to(f"node{source}", request))
        if response is None:
            self.events.alarm(self.tick, self.name, ev.REPLICA_NO_RESPONSE,
                              f"node{source} did not answer for {ix.vector_digest.hex}")
            return None
        try:
            plaintext = open_envelope(response, self.keys,
                                      self.directory.sig_pub(f"node{source}"))
        except AuthError as exc:
            self.events.alarm(self.tick, self.name, ev.REPLICA_MISMATCH,
                              f"replica answer from node{source} failed: {exc.detail}")
            return None
        if plaintext == NOT_FOUND_MARKER:
            self.events.info(self.tick, self.name, ev.REPLICA_NOT_FOUND,
                             f"node{source} holds nothing for {ix.vector_digest.hex}")
            return None
        try:
            vector = parse_canonical(plaintext)
        except SerializationError as exc:
            self.events.alarm(self.tick, self.name, ev.REPLICA_MISMATCH,
                              f"replica answer from node{source} unparseable: {exc}")
            return None
        if vector_digest(vector).hex != ix.vector_digest.hex:
            self.events.alarm(
                self.tick, self.name, ev.REPLICA_MISMATCH,
                f"replica from node{source} hashes to {vector_digest(vector).hex}, "
                f"ledger says {ix.vector_digest.hex}; discarded",
            )
            return None
        return vector

    def serve_replica(self, env):
        """Answer a replica request with the sealed local copy, NotFound, or nothing."""
        try:
            plaintext = self._open(env)
        except AuthError as exc:
            self.events.alarm(self.tick, self.name, ev.REPLICA_REQUEST_REJECTED,
                              f"replica request from {env.sender_id} failed: {exc.detail}")
            return None
        try:
            digest_hex, minute = plaintext.decode("ascii").split("|")
            parse_minute(minute)
        except (UnicodeDecodeError, ValueError):
            self.events.alarm(self.tick, self.name, ev.REPLICA_REQUEST_REJECTED,
                              "authentic but malformed replica request")
            return None
        record = self._best_copy(digest_hex, minute)
        if record is None:
            body = NOT_FOUND_MARKER
        else:
            body = canonical_serialize(record.vector())
        return self._seal_to(env.sender_id, body)

    def _best_copy(self, digest_hex: str, minute: str) -> HistorianRecord | None:
        """Exact digest match if present; otherwise whatever this node holds for
        that minute (the requester re-verifies against the ledger)."""
        candidates = self.historian.at_time(minute)
        for record in candidates:
            if record.digest_hex() == digest_hex:
                return record
        return candidates[0] if candidates else None

    # -- validator -----------------------------------------------------------

    def validate_cycle(self, chain: Chain) -> list[ValidationFinding]:
        """Full-chain audit of this node's holdings, with automated recovery."""
        bad = verify_chain(chain)
        if bad is not None:
            self.events.alarm(self.tick, self.name, ev.CHAIN_INVALID,
                              f"chain fails verification at block {bad.position} "
                              f"({bad.reason}); validation aborted")
            return []
        findings = []
        for block in chain.walk_back(chain.tip.block_hash.hex):
            for ix in block.indexes:
                if self.node_id not in ix.replica_ids:
                    continue
                findings.append(self._check_index(ix))
        return findings

    def _check_index(self, ix: LedgerIndex) -> ValidationFinding:
        minute = fmt_minute(ix.captured_at)
        expected = ix.vector_digest.hex
        for record in self.historian.at_time(minute):
            if record.digest_hex() == expected:
                self.events.info(self.tick, self.name, ev.CHECK_OK,
                                 f"{record.key[0]}@{minute} matches the ledger")
                return ValidationFinding(record.key, INTACT, expected, expected)
        self.events.alarm(self.tick, self.name, ev.FDI_ALARM,
                          f"no local record for {minute} matches ledger digest "
                          f"{expected}; data falsified or missing, recovering")
        outcome = self.recover(ix)
        if outcome is None:
            key = self._unmatched_key(minute)
            return ValidationFinding((key, minute), TAMPERED_UNRECOVERABLE,
                                     expected, self._found_digest(key, minute))
        previous = outcome.previous
        return ValidationFinding(
            (outcome.vector.sensor_name, minute), TAMPERED_RECOVERED, expected,
            previous.digest_hex() if previous else None,
            recovered_from=outcome.recovered_from,
        )

    def _unmatched_key(self, minute: str) -> str | None:
        records = self.historian.at_time(minute)
        return records[0].name if len(records) == 1 else None

    def _found_digest(self, name: str | None, minute: str) -> str | None:
        if name is None:
            return None
        record = self.historian.get((name, minute))
        return record.digest_hex() if record else None

    def recover(self, ix: LedgerIndex) -> RecoveryOutcome | None:
        """Pull the vector from the other listed holders in order; overwrite on match."""
        sources = [n for n in ix.replica_ids if n != self.node_id]
        for source in sources:
            vector = self._request_vector(source, ix)
            if vector is None:
                continue
            record = HistorianRecord(vector.sensor_name, vector.values, vector.captured_at)
            previous = self.historian.get(record.key)
            self.historian.overwrite(record)
            before = f"previous values {list(previous.values)}" if previous else "record was missing"
            self.events.info(self.tick, self.name, ev.RECOVERED,
                             f"{record.key[0]}@{record.key[1]} restored from node{source}; {before}")
            return RecoveryOutcome(source, vector, previous)
        self.events.alarm(self.tick, self.name, ev.UNRECOVERABLE,
                          f"no intact copy of {ix.vector_digest.hex} reachable; "
                          "operator intervention required")
        return None
