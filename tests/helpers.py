"""Shared test utilities: chain building, single-field mutation machinery,
and handing a receiver a frame as the wire would."""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta

from histchain.envelope import Digest, SignedEnvelope, digest
from histchain.ledger import Block, Chain, LedgerIndex, make_block
from histchain.sim import NodeTransport
from histchain.wire import REPLICA_REQ, pack_frame


def flip_hex_char(hex_str: str, pos: int = 0) -> str:
    c = hex_str[pos]
    return hex_str[:pos] + ("1" if c == "0" else "0") + hex_str[pos + 1:]


def build_chain(n_blocks: int, indexes_per_block: int = 2, seed: int = 0) -> Chain:
    """Synthetic chain with plausible indexes; deterministic given the seed."""
    chain = Chain()
    ts = datetime(2020, 12, 23, 17, 26)
    counter = seed
    for b in range(n_blocks):
        indexes = []
        for i in range(indexes_per_block):
            counter += 1
            d = digest(f"record-{counter}".encode())
            origin = (counter % 6) + 1
            replicas = [origin] + [x for x in range(1, 7) if x != origin][:2]
            indexes.append(LedgerIndex(d, ts, tuple(replicas)))
        chain.append(make_block(indexes, chain.tip.block_hash, ts))
        ts += timedelta(minutes=1)
    return chain


def _mutate_index(ix: LedgerIndex, kind: str) -> LedgerIndex:
    if kind == "digest":
        return dataclasses.replace(ix, vector_digest=Digest(flip_hex_char(ix.vector_digest.hex)))
    if kind == "captured_at":
        return dataclasses.replace(ix, captured_at=ix.captured_at + timedelta(minutes=1))
    if kind == "replica_ids":
        ids = list(ix.replica_ids)
        ids[0], ids[1] = ids[1], ids[0]
        return dataclasses.replace(ix, replica_ids=tuple(ids))
    raise ValueError(kind)


BLOCK_MUTATIONS = ("minted_at", "block_hash", "prev_block_hash",
                   "index_digest", "index_captured_at", "index_replica_ids")


def mutate_block(block: Block, kind: str) -> Block:
    """Return a copy of the block with exactly one field changed."""
    if kind == "minted_at":
        return dataclasses.replace(block, minted_at=block.minted_at + timedelta(minutes=1))
    if kind == "block_hash":
        return dataclasses.replace(
            block, block_hash=Digest(flip_hex_char(block.block_hash.hex)))
    if kind == "prev_block_hash":
        return dataclasses.replace(
            block, prev_block_hash=Digest(flip_hex_char(block.prev_block_hash.hex)))
    if kind.startswith("index_"):
        if not block.indexes:
            raise ValueError("block has no indexes to mutate")
        indexes = list(block.indexes)
        indexes[0] = _mutate_index(indexes[0], kind.removeprefix("index_"))
        return dataclasses.replace(block, indexes=tuple(indexes))
    raise ValueError(kind)


def mutated_chain(chain: Chain, position: int, kind: str) -> Chain:
    blocks = list(chain.blocks)
    blocks[position] = mutate_block(blocks[position], kind)
    return Chain.from_blocks(blocks)


def flip_body(env: SignedEnvelope, mask: int = 0x01) -> SignedEnvelope:
    """`env` with its last ciphertext byte, a body byte, XORed with `mask`."""
    ct = bytearray(env.ciphertext)
    ct[-1] ^= mask
    return dataclasses.replace(env, ciphertext=bytes(ct))


def deliver(sim, sender: str, receiver: str, msg_type: int, env: SignedEnvelope):
    """Hand `receiver` `env` in a frame whose header names `sender`, as the
    wire hands it over, whether or not a link joins the two. Returns the
    answer frame for a REPLICA_REQ."""
    data = pack_frame(NodeTransport(sim, sender).frame(receiver, msg_type, env))
    if msg_type == REPLICA_REQ:
        return sim._answer(receiver, data)
    return sim._deliver(receiver, data)
