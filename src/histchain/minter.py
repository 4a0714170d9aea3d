"""The single block-minting module: buffers, for each index submission it
accepts, the ledger index it will mint, with its replica holders drawn as the
submission is accepted; mints a block of the interval's buffer when it is not
empty; and announces the new tip to every storage node under its own key. Each
INDEX reaches `collect` through Simulation.intake, which authenticates it and
checks that a storage node sent it.
"""

from __future__ import annotations

import random
from datetime import datetime

from . import events as ev
from .envelope import KeyDirectory, NodeKeys, seal
from .ledger import Block, Chain, LedgerIndex, make_block, parse_vector_ref
from .wire import LOG


def draw_replicas(origin: int, n_nodes: int, replication_factor: int,
                  rng: random.Random) -> tuple[int, ...]:
    """Origin first, then replication_factor-1 distinct others drawn uniformly."""
    others = [i for i in range(1, n_nodes + 1) if i != origin]
    return (origin, *rng.sample(others, replication_factor - 1))


class ChainModule:
    """Sole writer of the chain; trusted and unattackable in this model."""

    def __init__(self, keys: NodeKeys, directory: KeyDirectory, transport,
                 event_log: ev.EventLog, rng: random.Random,
                 n_storage_nodes: int, replication_factor: int,
                 crypto_rng: random.Random):
        self.keys = keys
        self.directory = directory
        self.transport = transport
        self.events = event_log
        self.rng = rng  # replica-choice stream
        self.crypto_rng = crypto_rng
        self.n_storage_nodes = n_storage_nodes
        self.replication_factor = replication_factor
        self.chain = Chain()
        self.buffer: list[LedgerIndex] = []
        # Every digest buffered or minted: each is indexed once.
        self.indexed: set[str] = set()

    def collect(self, sender: str, plaintext: bytes) -> bool:
        """Buffer the ledger index of storage node `sender`'s submission for
        the open interval, its holders drawn now: `sender` first. One that
        does not parse, or whose digest is already buffered or minted, raises
        INDEX_REJECTED, draws nothing and returns False."""
        try:
            origin = int(sender.removeprefix("node"))
            vector_digest, captured_at = parse_vector_ref(plaintext)
        except ValueError:
            self.events.alarm("chain", ev.INDEX_REJECTED,
                              f"index from {sender} authentic but malformed")
            return False
        if vector_digest in self.indexed:
            self.events.alarm("chain", ev.INDEX_REJECTED,
                              f"index from {sender} repeats {vector_digest}, "
                              "already buffered or minted; dropped")
            return False
        self.indexed.add(vector_digest)
        self.buffer.append(LedgerIndex(
            vector_digest, captured_at,
            draw_replicas(origin, self.n_storage_nodes, self.replication_factor, self.rng)))
        self.events.info("chain", ev.INDEX_ACCEPTED,
                         f"index from {sender} verified: {vector_digest}")
        return True

    def close_interval(self, minted_at: datetime) -> Block | None:
        """Mint one block of the buffered indexes and send each storage node
        its own sealed LOG of the new tip; nothing if none came."""
        indexes, self.buffer = self.buffer, []
        if not indexes:
            self.events.info("chain", ev.NO_BLOCK,
                             "no authentic index this interval; chain unchanged")
            return None
        block = make_block(indexes, self.chain.tip.block_hash, minted_at)
        self.chain.append(block)
        self.events.info("chain", ev.BLOCK_MINTED,
                         f"hash={block.block_hash} n_indexes={len(indexes)}")
        for i in range(1, self.n_storage_nodes + 1):
            name = f"node{i}"
            self.transport.send(name, LOG, seal(
                block.block_hash.encode("ascii"), self.keys, name,
                self.directory.enc_pub(name), self.crypto_rng))
        return block
