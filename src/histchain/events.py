"""Append-only operator event log: one record per notable action or alarm."""

from __future__ import annotations

from dataclasses import dataclass

INFO = "INFO"
ALARM = "ALARM"

# Informational codes.
CHECK_OK = "CHECK_OK"
STORED = "STORED"
REPLICA_STORED = "REPLICA_STORED"
REPLICA_NOT_FOUND = "REPLICA_NOT_FOUND"
BLOCK_MINTED = "BLOCK_MINTED"
NO_BLOCK = "NO_BLOCK"
RECOVERED = "RECOVERED"
INTERCEPTOR_REPLACED = "INTERCEPTOR_REPLACED"

# Alarm codes.
DIGEST_MISMATCH = "DIGEST_MISMATCH"
DECRYPT_FAILED = "DECRYPT_FAILED"
DUPLICATE_RECORD = "DUPLICATE_RECORD"
MALFORMED_PAYLOAD = "MALFORMED_PAYLOAD"
INDEX_REJECTED = "INDEX_REJECTED"
FDI_ALARM = "FDI_ALARM"
UNRECOVERABLE = "UNRECOVERABLE"
CHAIN_INVALID = "CHAIN_INVALID"
CHAIN_REWRITTEN = "CHAIN_REWRITTEN"
STALE_LOG = "STALE_LOG"
LOG_MISSING = "LOG_MISSING"
MISSING_VECTOR = "MISSING_VECTOR"
REPLICA_PENDING = "REPLICA_PENDING"
COVERAGE_GAP = "COVERAGE_GAP"
REPLICA_MISMATCH = "REPLICA_MISMATCH"
REPLICA_NO_RESPONSE = "REPLICA_NO_RESPONSE"
REPLICA_REQUEST_REJECTED = "REPLICA_REQUEST_REJECTED"
ROLE_VIOLATION = "ROLE_VIOLATION"


# A tab and every character str.splitlines breaks at become a space, so a
# detail (which may quote bytes off the wire) stays one field of one line.
_ONE_FIELD = str.maketrans(dict.fromkeys("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", " "))


@dataclass(frozen=True, slots=True)
class EventRecord:
    tick: int
    actor: str
    severity: str
    code: str
    detail: str

    def line(self) -> str:
        detail = self.detail.translate(_ONE_FIELD)
        return f"{self.tick}\t{self.actor}\t{self.severity}\t{self.code}\t{detail}"


class EventLog:
    """Totally ordered by (tick, append sequence); records are never rewritten.

    `tick` is the run's one clock: the simulation advances it, and every
    record is stamped with its value at append time.
    """

    def __init__(self):
        self.records: list[EventRecord] = []
        self.tick = 0

    def append(self, actor: str, severity: str, code: str, detail: str = ""):
        self.records.append(EventRecord(self.tick, actor, severity, code, detail))

    def info(self, actor: str, code: str, detail: str = ""):
        self.append(actor, INFO, code, detail)

    def alarm(self, actor: str, code: str, detail: str = ""):
        self.append(actor, ALARM, code, detail)

    def alarms(self) -> list[EventRecord]:
        return [r for r in self.records if r.severity == ALARM]

    def by_code(self, code: str, actor: str | None = None) -> list[EventRecord]:
        return [r for r in self.records
                if r.code == code and (actor is None or r.actor == actor)]

    def __len__(self) -> int:
        return len(self.records)
