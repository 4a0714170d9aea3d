"""Storage nodes: each hosts a Historian plus the three protocol roles.

Simulation.intake authenticates and role-checks each MEASUREMENT, LOG and
REPLICA_REQ a node takes, so each handler gets the sender and the plaintext
and checks only the body; a node opens only the replica answers it asked
for, each under the X25519 agreement of its own request (see envelope), so
an answer replayed from another round trip fails to open. Register stores a
vector from the node's PLC, logs one STORED line that names the sender and
the digest, and submits the index to the block-minting module. A node whose
PLC sent nothing that arrived in an interval raises MISSING_VECTOR there
(Simulation._run_boundary). The replication handler owes the node the copies
the announced block assigns to it, while the chain still
holds the last block the node saw; on a rewritten history it owes nothing, and
the cycle raises CHAIN_REWRITTEN. A block is announced in the interval it is
minted, before any validator cycle, so a LOG must name the tip: any other hash
raises STALE_LOG and owes nothing. The validator runs every interval,
whether or not a block was minted or a LOG arrived. It first settles the
node's submissions of that interval: each one the tip does not carry raises
COVERAGE_GAP. A chain that verifies but no longer holds a block the node
saw is a rewritten history: CHAIN_REWRITTEN names the first changed position
and the cycle stops, as on CHAIN_INVALID, so no record is blamed. On a valid
chain whose tip no LOG named, it raises LOG_MISSING and owes the tip's copies
then. It then walks the node's duties, recomputes the digest of every locally
held vector, and raises FDI_ALARM when a digest disagrees or a record is
missing.

Pull and recovery are one holder loop, `recover`, that only the duty walk
calls: once per cycle for each copy newly found damaged or in `owed`, the
replica duties not yet delivered and damaged records. The first copy that
matches the ledger digest, asked for in ledger order, overwrites the local
one. A copy no holder delivers stays owed and REPLICA_PENDING; one every
other holder answered without is UNRECOVERABLE once and then `lost`.

A Historian stores the frozen MeasurementVectors the PLCs seal, exactly as
parsed, each with its canonical bytes: the very line `dump` persists. A node
keeps its duties, the ledger indexes listing it, in walk order; each new block
puts its own at the front. Each validator cycle hashes every held record once
into a digest -> record map that dies with the cycle, and looks each duty up
in it. An intact duty reuses its INTACT finding, a ledger fact since a digest
fixes its record's key, only while the map holds its digest; every store edit
stores a new frozen record, so an at-rest edit is caught on the next cycle.

The event log records decisions, not "still fine": each completed validator
cycle logs one CHECK_OK summary per node (`checked=N intact=M chain_len=L`),
while FDI_ALARM, RECOVERED, UNRECOVERABLE and REPLICA_PENDING stay one line
per record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import events as ev
from .config import fmt_minute
from .envelope import (
    Agreement,
    AuthError,
    KeyDirectory,
    MeasurementVector,
    NodeKeys,
    SerializationError,
    open_envelope,
    parse_canonical,
    seal,
    vector_digest,
)
from .ledger import (Block, Chain, LedgerIndex, format_vector_ref, genesis_block,
                     parse_vector_ref, verify_chain)
from .wire import ANSWER_DROPPED, INDEX, REPLICA_REQ

INTACT = "intact"
REPLICA_PENDING = "replica_pending"
TAMPERED_RECOVERED = "tampered_recovered"
TAMPERED_UNRECOVERABLE = "tampered_unrecoverable"

NOT_FOUND_MARKER = b"NOTFOUND"


class DuplicateRecordError(ValueError):
    """(name, time) already present in this Historian."""


class Historian:
    """Keyed record store grouped by capture minute; persisted one canonical
    line per record.

    The one map goes from ISO minute to that minute's {key -> record}, so
    `at_time` is one lookup and `get` two; it serves replica answers, naming
    an unrecoverable record and the offline audit. `records` and `dump` walk
    minutes in the order each first got a record (a minute emptied by
    `delete` is forgotten), and each minute's records in insertion order.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._by_minute: dict[str, dict[tuple[str, str], MeasurementVector]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._by_minute.values()))

    def records(self) -> list[MeasurementVector]:
        return [r for group in self._by_minute.values() for r in group.values()]

    def get(self, key: tuple[str, str]) -> MeasurementVector | None:
        return self._by_minute.get(key[1], {}).get(key)

    def at_time(self, iso_minute: str) -> list[MeasurementVector]:
        return list(self._by_minute.get(iso_minute, {}).values())

    def put_new(self, record: MeasurementVector):
        key = record.key
        group = self._by_minute.setdefault(key[1], {})
        if key in group:
            raise DuplicateRecordError(f"{key} already stored")
        group[key] = record

    def overwrite(self, record: MeasurementVector):
        self._by_minute.setdefault(record.key[1], {})[record.key] = record

    def delete(self, key: tuple[str, str]):
        group = self._by_minute.get(key[1], {})
        group.pop(key, None)
        if not group:
            self._by_minute.pop(key[1], None)

    def tamper(self, key: tuple[str, str], forged_values) -> MeasurementVector:
        """Direct store edit used by the insider-attack scenario; returns the old record.

        Raises SerializationError, leaving the store unchanged, for values no
        canonical record can hold (none, or any that is not a non-negative int).
        """
        old = self._by_minute[key[1]][key]
        self.overwrite(MeasurementVector(old.sensor_name, old.captured_at, forged_values))
        return old

    def dump(self) -> str:
        """Each record's canonical bytes, one `\n`-terminated line per record."""
        return b"".join(r.canonical + b"\n" for r in self.records()).decode("utf-8")

    @classmethod
    def load(cls, node_id: int, text: str, malformed: list[int] | None = None,
             parsed: dict[str, MeasurementVector] | None = None) -> "Historian":
        """Inverse of dump. Lines end in `\n` alone, and the text ends with one.
        A line that is not a canonical record (a blank line, a line with a
        lone surrogate, or a last line with no `\n`, included) raises
        SerializationError, and one whose key an earlier line already holds
        raises DuplicateRecordError; when a `malformed` list is given, either
        kind of line is skipped and its 1-based number appended instead.

        `parsed` maps a line's exact text to the frozen record parse_canonical
        returned for it, so loads that share one dict (the replica holders of
        one audit) parse each identical line once. Only successful parses go
        in, so a bad line is parsed, and reported, at every load that holds it.
        """
        historian = cls(node_id)
        if parsed is None:
            parsed = {}
        *lines, unterminated = text.split("\n")
        for lineno, raw in enumerate(lines, 1):
            try:
                record = parsed.get(raw)
                if record is None:
                    # surrogatepass turns a lone surrogate into bytes that are
                    # not UTF-8, which parse_canonical rejects.
                    record = parse_canonical(raw.encode("utf-8", "surrogatepass"))
                    parsed[raw] = record
                historian.put_new(record)
            except (SerializationError, DuplicateRecordError):
                if malformed is None:
                    raise
                malformed.append(lineno)
        if unterminated:
            if malformed is None:
                raise SerializationError(f"line {len(lines) + 1} has no trailing newline")
            malformed.append(len(lines) + 1)
        return historian


@dataclass(frozen=True, slots=True)
class ValidationFinding:
    """Per-index verdict from one validator pass over the chain."""

    key: tuple[str | None, str]
    verdict: str
    recovered_from: int | None = None


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
        # digest -> capture minute for vectors submitted since the last
        # validator cycle, which settles them against the tip it checks.
        self.pending_submissions: dict[str, str] = {}
        # Hash of the last tip whose replicas this node pulled.
        self.pulled = genesis_block().block_hash
        # digest -> (ledger index, damaged) of each copy this node is
        # owed: a replica duty not yet delivered, or a damaged record. Ledger
        # facts only; no record digest is kept.
        self.owed: dict[str, tuple[LedgerIndex, bool]] = {}
        self.lost: set[str] = set()  # digests of copies found UNRECOVERABLE, until held
        # Ledger facts kept between cycles: the hash of each block the duties
        # cover, by position, and the duties in walk order as mutable
        # [index, its INTACT finding or None] pairs.
        self.seen: list[str] = [genesis_block().block_hash]
        self.duties: list[list] = []

    # -- helpers ----------------------------------------------------------

    def _seal_to(self, recipient: str, plaintext: bytes, agreement: Agreement | None = None):
        return seal(plaintext, self.keys, recipient,
                    self.directory.enc_pub(recipient), self.rng, reply=agreement)

    # -- register ----------------------------------------------------------

    def register(self, sender: str, plaintext: bytes):
        """Store and index a vector from `sender`, the PLC assigned to this
        node; a rejected one raises an alarm that carries the reason."""
        try:
            vector = parse_canonical(plaintext)
        except SerializationError as exc:
            self.events.alarm(self.name, ev.MALFORMED_PAYLOAD,
                              f"authentic but unparseable measurement: {exc}")
            return
        try:
            self.historian.put_new(vector)
        except DuplicateRecordError:
            self.events.alarm(self.name, ev.DUPLICATE_RECORD,
                              f"{vector.key} already stored; rejected")
            return
        # Independent recomputation over the canonical form, which embeds the
        # sensor name and capture time alongside the values.
        fingerprint = vector_digest(vector)
        name, minute = vector.key
        self.events.info(self.name, ev.STORED,
                         f"stored {name}@{minute} from {sender}; digest={fingerprint}")
        self.pending_submissions[fingerprint] = minute
        self.transport.send("chain", INDEX, self._seal_to(
            "chain", format_vector_ref(fingerprint, vector.captured_at)))

    # -- replication handler ------------------------------------------------

    def handle_log(self, plaintext: bytes, chain: Chain):
        """Owe the replicas of the block the minter announces, which must be
        the tip: STALE_LOG for any other hash, known or not. A tip on a
        rewritten history owes nothing; the next cycle raises CHAIN_REWRITTEN
        and would ask for none of its copies."""
        if plaintext != chain.tip.block_hash.encode():
            block_hash = plaintext.decode("ascii", errors="replace")
            self.events.alarm(self.name, ev.STALE_LOG,
                              f"announced block {block_hash[:16]}.. is not the tip; ignored")
            return
        if self._rewritten_at(chain.blocks) is None:
            self._owe_replicas(chain.tip)

    def _owe_replicas(self, block: Block):
        """Owe the copies `block` assigns to this node and mark it pulled; the
        next duty walk asks for them."""
        for ix in block.indexes:
            if self.node_id in ix.replica_ids[1:]:
                self.owed[ix.vector_digest] = (ix, False)
        self.pulled = block.block_hash

    def recover(self, ix: LedgerIndex) -> tuple[int, MeasurementVector] | None:
        """The one holder loop: ask the other listed holders in ledger order
        for the copy `ix` names, owed as a damaged record if not yet owed. The
        first that matches the ledger digest overwrites the local record and
        is owed no more; returns (holder, copy). None when nothing was
        restored: UNRECOVERABLE, and moved from owed to lost, if every other
        holder answered without an intact copy; else still owed."""
        wanted = ix.vector_digest
        damaged = self.owed.setdefault(wanted, (ix, True))[1]
        answered = True
        for source in (n for n in ix.replica_ids if n != self.node_id):
            vector = self._request_vector(source, ix)
            answered = answered and vector is not None
            if isinstance(vector, MeasurementVector):
                del self.owed[wanted]
                previous = self.historian.get(vector.key)
                self.historian.overwrite(vector)
                name, minute = vector.key
                if damaged:
                    before = (f"previous values {list(previous.values)}" if previous
                              else "record was missing")
                    self.events.info(self.name, ev.RECOVERED,
                                     f"{name}@{minute} restored from node{source}; {before}")
                else:
                    self.events.info(self.name, ev.REPLICA_STORED,
                                     f"replica {name}@{minute} pulled from node{source}")
                return source, vector
        if answered:
            del self.owed[wanted]
            self.lost.add(wanted)
            self.events.alarm(self.name, ev.UNRECOVERABLE,
                              f"no intact copy of {wanted} reachable; "
                              "operator intervention required")
        return None

    def _request_vector(self, source: int, ix: LedgerIndex) -> MeasurementVector | bytes | None:
        """Sealed replica request to one holder: the copy if it matches the
        ledger digest, NOT_FOUND_MARKER for an authentic answer without it, or
        None for no usable answer (none came, dropped, or failed to open). The
        answer opens only under the agreement this request's seal records, a
        local value that dies with the call: an answer to any other request,
        or this request sent back, fails the unwrap as REPLICA_MISMATCH."""
        holder = f"node{source}"
        agreement = Agreement()
        request = self._seal_to(holder, format_vector_ref(ix.vector_digest, ix.captured_at),
                                agreement)
        response = self.transport.round_trip(holder, REPLICA_REQ, request)
        if response is None:
            self.events.alarm(self.name, ev.REPLICA_NO_RESPONSE,
                              f"{holder} did not answer for {ix.vector_digest}")
            return None
        if response is ANSWER_DROPPED:  # already alarmed as MALFORMED_PAYLOAD
            return None
        try:
            plaintext = open_envelope(response, self.keys, self.directory.sig_pub(holder),
                                      agreement)
        except AuthError as exc:
            self.events.alarm(self.name, ev.REPLICA_MISMATCH,
                              f"replica answer from {holder} failed: {exc.detail}")
            return None
        if plaintext == NOT_FOUND_MARKER:
            self.events.info(self.name, ev.REPLICA_NOT_FOUND,
                             f"{holder} holds nothing for {ix.vector_digest}")
            return NOT_FOUND_MARKER
        try:
            vector = parse_canonical(plaintext)
        except SerializationError as exc:
            self.events.alarm(self.name, ev.REPLICA_MISMATCH,
                              f"replica answer from {holder} unparseable: {exc}")
            return NOT_FOUND_MARKER
        rebuilt = vector_digest(vector)
        if rebuilt != ix.vector_digest:
            self.events.alarm(self.name, ev.REPLICA_MISMATCH,
                              f"replica from {holder} hashes to {rebuilt}, "
                              f"ledger says {ix.vector_digest}; discarded")
            return NOT_FOUND_MARKER
        return vector

    def serve_replica(self, sender: str, plaintext: bytes) -> bytes | None:
        """The body of the answer to storage node `sender`'s replica request:
        the local copy of exactly the digest asked for (a bad copy is this
        node's own validator's to catch), NOT_FOUND_MARKER, or None for no
        answer. Simulation._answer seals it under the request's agreement."""
        try:
            wanted, captured_at = parse_vector_ref(plaintext)
        except ValueError:
            self.events.alarm(self.name, ev.REPLICA_REQUEST_REJECTED,
                              "authentic but malformed replica request")
            return None
        record = next((r for r in self.historian.at_time(fmt_minute(captured_at))
                       if vector_digest(r) == wanted), None)
        return NOT_FOUND_MARKER if record is None else record.canonical

    # -- validator -----------------------------------------------------------

    def validate_cycle(self, chain: Chain) -> list[ValidationFinding]:
        """Full-chain audit of this node's holdings, with automated recovery.
        It first settles the interval's submissions, even on a bad chain; on a
        chain that verifies but no longer holds a block this node saw, it
        raises CHAIN_REWRITTEN and aborts; else it owes the copies of a tip
        whose LOG never came (LOG_MISSING). Every held record is then hashed
        once, and the walk gives one finding per duty, newest block first. A
        duty intact last cycle whose digest is held and not owed reuses its
        finding; `_check_index`, the only place a copy is asked for, looks at
        any other afresh."""
        tip = chain.tip
        self._reconcile_submissions(tip)
        bad = verify_chain(chain)
        if bad is not None:
            self.events.alarm(self.name, ev.CHAIN_INVALID,
                              f"chain fails verification at block {bad.position} "
                              f"({bad.reason}); validation aborted")
            return []
        changed = self._extend_duties(chain.blocks)
        if changed is not None:
            self.events.alarm(self.name, ev.CHAIN_REWRITTEN,
                              f"chain verifies but no longer holds the block this node "
                              f"saw at position {changed}; validation aborted")
            return []
        if tip.block_hash != self.pulled:
            self.events.alarm(self.name, ev.LOG_MISSING,
                              f"no LOG named tip block {tip.block_hash[:16]}..; pulling now")
            self._owe_replicas(tip)
        held = {vector_digest(r): r for r in self.historian.records()}
        findings = []
        intact = len(self.duties)
        owed = self.owed
        for duty in self.duties:
            ix, finding = duty
            expected = ix.vector_digest
            if finding is None or expected not in held or expected in owed:
                finding = self._check_index(duty, held)
                intact -= finding.verdict != INTACT
            findings.append(finding)
        self.events.info(self.name, ev.CHECK_OK,
                         f"checked={len(findings)} intact={intact} "
                         f"chain_len={len(chain.blocks)}")
        return findings

    def _rewritten_at(self, blocks: list[Block]) -> int | None:
        """None if `blocks` still holds, at its position, the last block
        this node saw: on a verified chain every later hash commits to every
        earlier block. Else the first position whose block changed or is gone."""
        last = len(self.seen) - 1
        if len(blocks) > last and blocks[last].block_hash == self.seen[last]:
            return None
        return next((pos for pos, (block, seen) in enumerate(zip(blocks, self.seen))
                     if block.block_hash != seen), len(blocks))

    def _extend_duties(self, blocks: list[Block]) -> int | None:
        """Put the duties of each block past `seen` at the front of `duties`
        and return None, unless the history is rewritten: then return
        _rewritten_at's position and change nothing."""
        changed = self._rewritten_at(blocks)
        if changed is None:
            for block in blocks[len(self.seen):]:
                self.seen.append(block.block_hash)
                self.duties[:0] = [[ix, None] for ix in block.indexes
                                   if self.node_id in ix.replica_ids]
        return changed

    def _reconcile_submissions(self, tip):
        """COVERAGE_GAP for each pending submission `tip` does not carry; all
        are settled, since the minter mints an interval's indexes in that
        interval's block, the tip at its cycles, or not at all."""
        minted = {ix.vector_digest for ix in tip.indexes}
        for digest_hex, minute in self.pending_submissions.items():
            if digest_hex not in minted:
                self.events.alarm(
                    self.name, ev.COVERAGE_GAP,
                    f"vector {digest_hex} captured {minute} never reached the ledger; "
                    "its integrity cannot be checked by the validator",
                )
        self.pending_submissions = {}

    def _check_index(self, duty: list, held: dict) -> ValidationFinding:
        """INTACT if `held` (digest -> record) has the digest of the duty's
        index at its minute and it is not owed: that finding becomes the
        duty's to reuse, and any other clears it. A lost copy is
        TAMPERED_UNRECOVERABLE unasked. Else alarm if newly damaged and ask
        once: INTACT for a pull, TAMPERED_RECOVERED for a restore. No later
        duty of the walk reads what a restore replaced or stored, since the
        minter indexes a digest once and a digest fixes its record's key, so
        `held` is left as is."""
        ix = duty[0]
        minute = ix.minute
        expected = ix.vector_digest
        record = held.get(expected)
        owed = self.owed.get(expected)
        duty[1] = None
        if owed is None and record is not None and record.key[1] == minute:
            self.lost.discard(expected)
            duty[1] = ValidationFinding(record.key, INTACT)
            return duty[1]
        if expected not in self.lost:
            if owed is None:
                self.events.alarm(self.name, ev.FDI_ALARM,
                                  f"no local record for {minute} matches ledger digest "
                                  f"{expected}; data falsified or missing, recovering")
            restored = self.recover(ix)
            if restored is not None:
                source, vector = restored
                if owed is not None and not owed[1]:  # a replica duty delivered
                    return ValidationFinding(vector.key, INTACT)
                return ValidationFinding((vector.sensor_name, minute), TAMPERED_RECOVERED,
                                         recovered_from=source)
        if expected in self.lost:
            records = self.historian.at_time(minute)
            name = records[0].sensor_name if len(records) == 1 else None
            return ValidationFinding((name, minute), TAMPERED_UNRECOVERABLE)
        self.events.alarm(self.name, ev.REPLICA_PENDING,
                          f"replica {expected} captured {minute} not yet "
                          "delivered by any holder; asking again next interval")
        return ValidationFinding((None, minute), REPLICA_PENDING)
