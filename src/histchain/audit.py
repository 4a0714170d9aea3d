"""Offline re-verification of run artifacts, independent of the simulation.

Re-verifies the chain dump, then checks every ledger index against every
listed Historian dump by recomputing record digests. Serves as the standalone
oracle for the in-simulation validator: on the same state, both must flag the
same records. A Historian line that is not a canonical record, or repeats the
key of an earlier line, is reported as malformed, and a ledger index that only
such a line held as missing.

The nodes audited are every holder the ledger lists plus every node with a
dump; a listed holder with no dump holds nothing, so each of its duties is
missing.

The chain dump is parsed once, one full-line pattern match per line. The
holders of a record store the same line, so the dumps are loaded with one
shared map from line text to parsed record, and each identical line is parsed
once; a line that fails to parse is not kept, so it is parsed and reported at
every node that holds it. Every node's duties come from one walk of the
ledger. Each node's held records are hashed once into a digest -> record map
that dies with that node's pass, so no digest is shared between holders or
audits (`test_every_finding_hashes_its_record` guards it). A digest fixes a
record's canonical bytes and so its key, and a Historian holds each key once,
so each duty's exact match is one lookup: intact when the map has its digest
at its minute under a key no earlier duty used. Only the duties that missed
are visited again, for a stray record at their minute or a missing one, and
the node's records are walked for uncovered ones only when some stored key
went unused.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .envelope import MeasurementVector, vector_digest
from .ledger import FirstBadBlock, LedgerIndex, parse_chain_dump, verify_chain
from .storage import Historian

INTACT = "intact"
MISMATCH = "mismatch"
MISSING = "missing"


class AuditFinding(NamedTuple):
    node_id: int
    key: tuple[str | None, str]
    expected_digest: str
    found_digest: str | None
    verdict: str


@dataclass
class AuditReport:
    chain_issue: FirstBadBlock | None = None
    findings: list[AuditFinding] = field(default_factory=list)
    uncovered: list[tuple[int, tuple[str, str]]] = field(default_factory=list)
    # (node id, 1-based line number) of each Historian line Historian.load rejects.
    malformed: list[tuple[int, int]] = field(default_factory=list)

    @property
    def all_intact(self) -> bool:
        return (self.chain_issue is None and not self.malformed
                and all(f.verdict == INTACT for f in self.findings))

    def flagged(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.verdict != INTACT]

    @property
    def flagged_count(self) -> int:
        """Findings that are not intact plus rejected Historian lines."""
        return len(self.flagged()) + len(self.malformed)

    def to_text(self) -> str:
        lines = []
        if self.chain_issue is None:
            lines.append("chain|valid")
        else:
            lines.append(f"chain|bad|{self.chain_issue.position}|{self.chain_issue.reason}")
        for f in self.findings:
            name = f.key[0] if f.key[0] is not None else "?"
            lines.append(f"finding|node{f.node_id}|{f.verdict}|{name}|{f.key[1]}"
                         f"|{f.expected_digest}|{f.found_digest or '-'}")
        for node_id, lineno in self.malformed:
            lines.append(f"malformed|node{node_id}|{lineno}")
        for node_id, key in self.uncovered:
            lines.append(f"uncovered|node{node_id}|{key[0]}|{key[1]}")
        return "".join(line + "\n" for line in lines)


def audit_artifacts(chain_text: str, historian_texts: dict[int, str]) -> AuditReport:
    """Cross-check chain and historian dumps; read-only, no recovery."""
    report = AuditReport()
    chain = parse_chain_dump(chain_text)
    report.chain_issue = verify_chain(chain)
    if report.chain_issue is not None:
        return report

    # Every node's duties, in ledger order, from one walk of the chain.
    duties_of: defaultdict[int, list[LedgerIndex]] = defaultdict(list)
    for block in chain.blocks[1:]:
        for ix in block.indexes:
            for holder in ix.replica_ids:
                duties_of[holder].append(ix)

    # A record's r holders store the same line: parse it once for all of them.
    parsed: dict[str, MeasurementVector] = {}
    for node_id in sorted(duties_of.keys() | historian_texts.keys()):
        text = historian_texts.get(node_id)
        bad_lines: list[int] = []
        # A listed holder with no dump holds nothing.
        store = (Historian(node_id) if text is None
                 else Historian.load(node_id, text, bad_lines, parsed))
        report.malformed.extend((node_id, lineno) for lineno in bad_lines)
        duties = duties_of[node_id]
        held = {vector_digest(record): record for record in store.records()}
        used: set = set()
        findings: list[AuditFinding | None] = []
        missed: list[int] = []
        # Exact digest matches first, so a tampered record can never steal the
        # verdict of an intact one sharing the same minute.
        for ix in duties:
            expected = ix.vector_digest
            record = held.get(expected)
            if record is not None and record.key[1] == ix.minute and record.key not in used:
                used.add(record.key)
                findings.append(AuditFinding(node_id, record.key, expected, expected, INTACT))
            else:
                missed.append(len(findings))
                findings.append(None)
        for pos in missed:
            ix = duties[pos]
            expected = ix.vector_digest
            stray = next((r for r in store.at_time(ix.minute) if r.key not in used), None)
            if stray is not None:
                used.add(stray.key)
                findings[pos] = AuditFinding(node_id, stray.key, expected,
                                             vector_digest(stray), MISMATCH)
            else:
                findings[pos] = AuditFinding(node_id, (None, ix.minute), expected, None, MISSING)
        report.findings.extend(findings)
        if len(used) < len(store):
            report.uncovered.extend((node_id, record.key) for record in store.records()
                                    if record.key not in used)
    return report


def audit_directory(artifact_dir) -> AuditReport:
    """Audit the standard artifact filenames written by a run."""
    artifact_dir = Path(artifact_dir)
    chain_path = artifact_dir / "chain.txt"
    if not chain_path.is_file():
        raise IOError(f"missing chain dump {chain_path}")
    historians = {}
    for path in sorted(artifact_dir.glob("historian*.txt")):
        stem = path.stem.removeprefix("historian")
        # Only the spelling write_artifacts gives a node id, so `historian01`
        # can neither stand in for nor replace `historian1`.
        if not (stem.isascii() and stem.isdigit() and str(int(stem)) == stem):
            continue
        historians[int(stem)] = _read_verbatim(path)
    if not historians:
        raise IOError(f"no historian dumps found in {artifact_dir}")
    return audit_artifacts(_read_verbatim(chain_path), historians)


def _read_verbatim(path: Path) -> str:
    """File text with its line ends untouched (read_text would turn `\r\n`
    into `\n` before the strict parsers see it). An undecodable byte becomes
    U+FFFD, so its line is reported, not fatal."""
    return path.read_bytes().decode("utf-8", errors="replace")
