"""Synthetic artifact set for the offline_audit workload, with its ground truth.

The set looks like the output of a clean multi-hour run: one block per
simulated minute carrying one index per sensor, three holders per index,
Sensor 1 originating on node1 and Sensor 2 on node2 as in the simulator.
Building it through the program's public functions takes well under a second,
where producing the same history with `Simulation.run` would take minutes.

After the clean set is built, a seeded handful of historian lines is edited
and one line is deleted. The ground truth maps each damaged copy, keyed by
(holder node id, ledger digest hex), to the verdict the audit must give it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from histchain import audit, envelope, ledger, minter

N_NODES = 6
REPLICATION = 3
VALUES_PER_VECTOR = 10
START = datetime(2020, 12, 23, 17, 26)
SENSOR_ORIGINS = (("Sensor 1", 1), ("Sensor 2", 2))


@dataclass
class ArtifactSet:
    chain_text: str
    historian_texts: dict[int, str]
    truth: dict[tuple[int, str], str]
    n_indexes: int
    minutes: int

    def write(self, outdir) -> Path:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "chain.txt").write_text(self.chain_text, encoding="utf-8")
        for node_id, text in self.historian_texts.items():
            (outdir / f"historian{node_id}.txt").write_text(text, encoding="utf-8")
        return outdir


def generate(seed: int, minutes: int, n_edits: int = 5, n_deleted: int = 1) -> ArtifactSet:
    """Clean set over `minutes` minutes, then `n_edits` edited and `n_deleted` deleted lines."""
    rng = random.Random(f"offline_audit:{seed}")
    chain = ledger.Chain()
    lines: dict[int, list[tuple[str, str]]] = {i: [] for i in range(1, N_NODES + 1)}
    n_indexes = 0
    for k in range(minutes):
        ts = START + timedelta(minutes=k)
        indexes = []
        for name, origin in SENSOR_ORIGINS:
            values = tuple(rng.randint(0, 10) for _ in range(VALUES_PER_VECTOR))
            vector = envelope.MeasurementVector(name, ts, values)
            digest = envelope.vector_digest(vector)
            holders = minter.draw_replicas(origin, N_NODES, REPLICATION, rng)
            indexes.append(ledger.LedgerIndex(digest, ts, holders))
            line = envelope.canonical_serialize(vector).decode("utf-8")
            for node_id in holders:
                lines[node_id].append((digest.hex, line))
        chain.append(ledger.make_block(indexes, chain.tip.block_hash, ts))
        n_indexes += len(indexes)

    # Damage distinct (node, minute) pairs only: two damaged copies sharing a
    # minute on one node cannot be told apart by any audit.
    slots = [(node_id, pos) for node_id in sorted(lines) for pos in range(len(lines[node_id]))]
    truth: dict[tuple[int, str], str] = {}
    damaged_minutes: set[tuple[int, str]] = set()
    deleted: set[tuple[int, int]] = set()
    while len(truth) < n_edits + n_deleted:
        node_id, pos = rng.choice(slots)
        digest_hex, line = lines[node_id][pos]
        name, minute, values_text = line.split("|")
        if (node_id, minute) in damaged_minutes:
            continue
        damaged_minutes.add((node_id, minute))
        if len(truth) < n_edits:
            values = values_text.split(",")
            i = rng.randrange(len(values))
            values[i] = str(int(values[i]) + 1 + rng.randrange(5))
            lines[node_id][pos] = (digest_hex, f"{name}|{minute}|{','.join(values)}")
            truth[(node_id, digest_hex)] = audit.MISMATCH
        else:
            deleted.add((node_id, pos))
            truth[(node_id, digest_hex)] = audit.MISSING

    historian_texts = {
        node_id: "".join(line + "\n" for pos, (_, line) in enumerate(entries)
                         if (node_id, pos) not in deleted)
        for node_id, entries in lines.items()
    }
    return ArtifactSet(ledger.dump_chain(chain), historian_texts, truth, n_indexes, minutes)
