"""Append-only hash-chained ledger: blocks of vector indexes linked by prev hash.

A block's hash covers the previous block hash, the canonical serialization of
its indexes, and its mint timestamp, so any field mutation anywhere in a built
chain is detectable by full re-verification.

Verification is incremental by identity: a Chain remembers the block list it
last verified successfully, and verify_chain re-checks only what follows the
longest prefix whose blocks are the very same objects at the same positions.
Blocks are frozen, so a changed block is a different object and is verified in
full; a chain built with Chain(), Chain.from_blocks or parse_chain_dump starts
with nothing verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from .config import fmt_minute, parse_minute
from .envelope import Digest, digest

GENESIS_MINTED_AT = datetime(1970, 1, 1, 0, 0)

BAD_GENESIS = "bad_genesis"
LINK_MISMATCH = "link_mismatch"
HASH_MISMATCH = "hash_mismatch"
EMPTY_INDEXES = "empty_indexes"


class ChainLinkError(ValueError):
    """Appended block does not link to the current tip."""


class UnknownBlockError(KeyError):
    """Requested block hash is not present in the chain."""


class EmptyBlockError(ValueError):
    """A block must carry at least one index."""


class DumpFormatError(ValueError):
    """Chain dump file is malformed."""


@dataclass(frozen=True)
class LedgerIndex:
    """One stored vector: its digest, capture time, and the ordered holder list.

    replica_ids[0] is the origin node; the rest are the randomly assigned
    replica holders, all distinct.
    """

    vector_digest: Digest
    captured_at: datetime
    replica_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "replica_ids", tuple(self.replica_ids))
        if not self.replica_ids:
            raise ValueError("replica list is empty")
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ValueError(f"replica ids not distinct: {self.replica_ids}")

    def line(self) -> str:
        ids = ",".join(str(i) for i in self.replica_ids)
        return f"{self.vector_digest.hex}|{fmt_minute(self.captured_at)}|{ids}"


def serialize_indexes(indexes) -> str:
    return "\n".join(ix.line() for ix in indexes)


def block_preimage(prev_hash_hex: str, indexes, minted_at: datetime) -> bytes:
    return f"{prev_hash_hex}\n{serialize_indexes(indexes)}\n{fmt_minute(minted_at)}".encode("utf-8")


@dataclass(frozen=True)
class Block:
    indexes: tuple[LedgerIndex, ...]
    block_hash: Digest
    prev_block_hash: Digest
    minted_at: datetime


def make_block(indexes, prev_hash: Digest, minted_at: datetime) -> Block:
    """Mint a block over a non-empty index list; pure function of its inputs."""
    indexes = tuple(indexes)
    if not indexes:
        raise EmptyBlockError("refusing to mint a block with no indexes")
    block_hash = digest(block_preimage(prev_hash.hex, indexes, minted_at))
    return Block(indexes, block_hash, prev_hash, minted_at)


def genesis_block() -> Block:
    prev = Digest("0" * 64)
    block_hash = digest(block_preimage(prev.hex, (), GENESIS_MINTED_AT))
    return Block((), block_hash, prev, GENESIS_MINTED_AT)


class Chain:
    """Single-writer chain; append is the only mutation and readers see snapshots."""

    def __init__(self):
        self.blocks: list[Block] = [genesis_block()]
        self._by_hash: dict[str, Block] = {self.blocks[0].block_hash.hex: self.blocks[0]}
        self._verified: list[Block] = []

    @classmethod
    def from_blocks(cls, blocks) -> "Chain":
        """Rebuild from stored blocks without validation; pair with verify_chain."""
        chain = cls()
        chain.blocks = list(blocks)
        chain._by_hash = {b.block_hash.hex: b for b in chain.blocks}
        return chain

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def __len__(self) -> int:
        return len(self.blocks)

    def append(self, block: Block):
        if block.prev_block_hash.hex != self.tip.block_hash.hex:
            raise ChainLinkError(
                f"block links to {block.prev_block_hash.hex[:12]}.., "
                f"tip is {self.tip.block_hash.hex[:12]}.."
            )
        self.blocks.append(block)
        self._by_hash[block.block_hash.hex] = block

    def lookup(self, block_hash_hex: str) -> Block:
        try:
            return self._by_hash[block_hash_hex]
        except KeyError:
            raise UnknownBlockError(block_hash_hex) from None


@dataclass(frozen=True)
class FirstBadBlock:
    position: int
    reason: str


def _verified_prefix(blocks: list[Block], verified: list[Block]) -> int:
    """Length of the leading run of blocks identical (`is`) to the verified ones."""
    for pos, (block, seen) in enumerate(zip(blocks, verified)):
        if block is not seen:
            return pos
    return min(len(blocks), len(verified))


def verify_chain(chain: Chain) -> FirstBadBlock | None:
    """Recompute every hash and link; None means valid, else the earliest violation.

    Blocks identical to the ones the last successful call verified, in the
    same positions, are not recomputed.
    """
    blocks = list(chain.blocks)
    start = _verified_prefix(blocks, chain._verified)
    if start == 0 and (not blocks or blocks[0] != genesis_block()):
        return FirstBadBlock(0, BAD_GENESIS)
    for pos in range(max(start, 1), len(blocks)):
        block = blocks[pos]
        if block.prev_block_hash.hex != blocks[pos - 1].block_hash.hex:
            return FirstBadBlock(pos, LINK_MISMATCH)
        if not block.indexes:
            return FirstBadBlock(pos, EMPTY_INDEXES)
        recomputed = digest(
            block_preimage(block.prev_block_hash.hex, block.indexes, block.minted_at))
        if recomputed.hex != block.block_hash.hex:
            return FirstBadBlock(pos, HASH_MISMATCH)
    chain._verified = blocks
    return None


# Chain dump: bit-exact text artifact, one `block|` line per block followed by
# one `index|` line per index.

def dump_chain(chain: Chain) -> str:
    lines = []
    for pos, block in enumerate(chain.blocks):
        lines.append(
            f"block|{pos}|{fmt_minute(block.minted_at)}"
            f"|{block.block_hash.hex}|{block.prev_block_hash.hex}"
        )
        for ix in block.indexes:
            lines.append(f"index|{ix.line()}")
    return "".join(line + "\n" for line in lines)


def parse_chain_dump(text: str) -> Chain:
    blocks: list[Block] = []
    current: dict | None = None

    def finish():
        if current is not None:
            blocks.append(Block(
                tuple(current["indexes"]), current["hash"],
                current["prev"], current["minted_at"],
            ))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("|")
        try:
            if parts[0] == "block":
                if len(parts) != 5:
                    raise ValueError("block line needs 5 fields")
                finish()
                pos = int(parts[1])
                if pos != len(blocks):
                    raise ValueError(f"position {pos} out of order")
                current = {
                    "minted_at": parse_minute(parts[2]),
                    "hash": Digest(parts[3]),
                    "prev": Digest(parts[4]),
                    "indexes": [],
                }
            elif parts[0] == "index":
                if current is None or len(parts) != 4:
                    raise ValueError("index line outside a block or malformed")
                current["indexes"].append(LedgerIndex(
                    Digest(parts[1]),
                    parse_minute(parts[2]),
                    tuple(int(i) for i in parts[3].split(",")),
                ))
            else:
                raise ValueError(f"unknown record type {parts[0]!r}")
        except (ValueError, KeyError) as exc:
            raise DumpFormatError(f"line {lineno}: {exc}") from None
    finish()
    if not blocks:
        raise DumpFormatError("empty chain dump")
    return Chain.from_blocks(blocks)
