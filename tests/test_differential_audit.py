"""Differential at-rest fuzz: the offline audit against the storage validator.

A short seeded run whose plan ends in drawn at-rest edits through the
Historian's own mutators (`attacks.run_plan`, the runner every scenario
uses): value edits, deletes, rows no ledger index covers, and one record
edited at several of its holders. The audit of the edited dumps must flag
exactly the duties the edits damaged, and exactly what each node's next
validator cycle flags; a flagged record is recovered exactly when another
listed holder still holds it intact; uncovered rows show only in the audit.

The test reads both sides' outputs only: it hashes dump lines itself and
shares no code with the audit or the validator.
"""

import hashlib
from collections import Counter
from datetime import timedelta

import hypothesis.strategies as st
from hypothesis import given, settings

from histchain.attacks import run_plan
from histchain.audit import INTACT, audit_artifacts
from histchain.config import SimConfig
from histchain.envelope import MeasurementVector
from histchain.ledger import dump_chain
from histchain.sim import Simulation
from histchain.storage import TAMPERED_RECOVERED, TAMPERED_UNRECOVERABLE

EDITS = ("value", "delete", "uncovered", "several")


def line_digests(dump: str) -> dict[str, tuple[str, str]]:
    """SHA-256 hex of each dump line -> the line's (sensor name, minute)."""
    return {hashlib.sha256(line.encode("utf-8")).hexdigest(): tuple(line.split("|")[:2])
            for line in dump.splitlines()}


def draw_edits(data, damaged, uncovered):
    """An at-rest plan step: drawn edits through each Historian's own
    mutators, noted in `damaged` as (node id, ledger digest hex) and in
    `uncovered` as (node id, key)."""
    def edit(sim):
        stores = {node_id: node.historian for node_id, node in sim.nodes.items()}
        chain = sim.chain_module.chain
        indexes = [ix for block in chain.blocks for ix in block.indexes]
        key_of = {d: key for store in stores.values()
                  for d, key in line_digests(store.dump()).items()}
        for kind in data.draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=6)):
            if kind == "uncovered":
                node_id = data.draw(st.sampled_from(sorted(stores)))
                name = data.draw(st.sampled_from(["Sensor 1", "Sensor 2", "Sensor 9"]))
                at = chain.tip.minted_at + timedelta(minutes=data.draw(st.integers(1, 3)))
                row = MeasurementVector(name, at, (data.draw(st.integers(0, 9)), 0))
                stores[node_id].overwrite(row)
                uncovered.add((node_id, row.key))
                continue
            ix = data.draw(st.sampled_from(indexes))
            digest_hex = ix.vector_digest
            if kind == "several":
                holders = data.draw(st.lists(st.sampled_from(ix.replica_ids), min_size=2,
                                             max_size=len(ix.replica_ids), unique=True))
            else:
                holders = [data.draw(st.sampled_from(ix.replica_ids))]
            bump = data.draw(st.integers(1, 3))
            key = key_of[digest_hex]
            for node_id in holders:
                record = stores[node_id].get(key)
                if record is None:
                    continue
                if kind == "delete":
                    stores[node_id].delete(key)
                else:
                    stores[node_id].tamper(key, tuple(v + bump for v in record.values))
                damaged.add((node_id, digest_hex))
    return edit


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), minutes=st.integers(1, 6), data=st.data())
def test_audit_flags_what_the_next_validator_cycle_flags(seed, minutes, data):
    sim = Simulation(SimConfig(seed=seed))
    damaged: set[tuple[int, str]] = set()
    uncovered: set[tuple[int, tuple[str, str]]] = set()
    run_plan(sim, minutes, {minutes - 1: [draw_edits(data, damaged, uncovered)]})
    chain = sim.chain_module.chain
    stores = {node_id: node.historian for node_id, node in sim.nodes.items()}
    indexes = [ix for block in chain.blocks for ix in block.indexes]

    report = audit_artifacts(dump_chain(chain), {n: s.dump() for n, s in stores.items()})
    assert report.chain_issue is None and report.malformed == []
    flagged = report.flagged()
    assert {(f.node_id, f.expected_digest) for f in flagged} == damaged
    assert set(report.uncovered) == uncovered

    intact_at = {(f.node_id, f.expected_digest) for f in report.findings if f.verdict == INTACT}
    holders_of = {ix.vector_digest: ix.replica_ids for ix in indexes}
    recoverable = {(node_id, d) for node_id, d in damaged
                   if any((h, d) in intact_at for h in holders_of[d] if h != node_id)}

    for node_id in sorted(sim.nodes):
        audited = [f for f in report.findings if f.node_id == node_id]
        cycle = sim.nodes[node_id].validate_cycle(chain)
        assert len(cycle) == len(audited)
        assert Counter(f.key[1] for f in cycle if f.verdict != INTACT) \
            == Counter(f.key[1] for f in audited if f.verdict != INTACT)
        expected = Counter(
            (f.key[1], TAMPERED_RECOVERED if (node_id, f.expected_digest) in recoverable
             else TAMPERED_UNRECOVERABLE)
            for f in audited if f.verdict != INTACT)
        assert Counter((f.key[1], f.verdict) for f in cycle if f.verdict != INTACT) == expected
        assert not {f.key for f in cycle} & {key for n, key in uncovered if n == node_id}

    for node_id, store in stores.items():
        held = line_digests(store.dump())
        for n, d in damaged:
            if n == node_id:
                assert (d in held) == ((n, d) in recoverable)
        assert {(node_id, key) for key in held.values()} >= \
            {row for row in uncovered if row[0] == node_id}
