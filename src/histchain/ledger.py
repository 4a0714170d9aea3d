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

Every field of a chain dump and of a `digest|minute` body is read strictly: a
digest only as lowercase SHA-256 hex, and a minute, a position or a replica id
only in the spelling the writer gives it (config.parse_minute, plain decimal);
lines end in `\n` alone, so one chain has one dump. These checks run once,
where the text enters. The constructors check nothing, since only the minter
builds ledger values of its own, and verify_chain judges whether each block
links and holds an index.

Each index builds its `digest|minute|ids` line once, on construction; the
block preimage and the dump read it. parse_chain_dump matches each line once
against one full-line pattern for its kind, which checks the digests and the
numbers, so a parsed index takes its minute and its line from the dump text
without formatting either again. verify_chain still re-hashes the preimage of
every block of a parsed chain. A Digest is a str of its hex, used as it is.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime

from .config import DECIMAL_PATTERN, MINUTE_PATTERN, fmt_minute, parse_minute
from .envelope import Digest, digest

GENESIS_MINTED_AT = datetime(1970, 1, 1, 0, 0)

BAD_GENESIS = "bad_genesis"
LINK_MISMATCH = "link_mismatch"
HASH_MISMATCH = "hash_mismatch"
EMPTY_INDEXES = "empty_indexes"


class DumpFormatError(ValueError):
    """Chain dump file is malformed."""


@dataclass(frozen=True, slots=True)
class LedgerIndex:
    """One stored vector: its digest, capture time, and the ordered holder list.

    replica_ids[0] is the origin node; the rest are the randomly assigned
    replica holders, all distinct (draw_replicas draws them so; a dump is
    checked for it). minute is the ISO capture minute and line the index's
    `digest|minute|ids` text in the chain dump and the block preimage; both
    are built once, on construction.
    """

    vector_digest: Digest
    captured_at: datetime
    replica_ids: tuple[int, ...]
    minute: str = field(init=False, repr=False, compare=False)
    line: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        minute = fmt_minute(self.captured_at)
        ids = ",".join(map(str, self.replica_ids))
        object.__setattr__(self, "minute", minute)
        object.__setattr__(self, "line", f"{self.vector_digest}|{minute}|{ids}")

    @classmethod
    def _parsed(cls, vector_digest: Digest, captured_at: datetime, ids: tuple[int, ...],
                minute: str, line: str) -> "LedgerIndex":
        """An index read from a dump line whose fields are already checked,
        holders included: minute and line are that line's own text, so
        neither is formatted again."""
        ix = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(ix, "vector_digest", vector_digest)
        setattr_(ix, "captured_at", captured_at)
        setattr_(ix, "replica_ids", ids)
        setattr_(ix, "minute", minute)
        setattr_(ix, "line", line)
        return ix


_SHA256_HEX = re.compile("[0-9a-f]{64}")


def format_vector_ref(vector_digest: Digest, captured_at: datetime) -> bytes:
    """`digest hex|ISO minute`: the body of an INDEX submission and of a REPLICA_REQ."""
    return f"{vector_digest}|{fmt_minute(captured_at)}".encode("ascii")


def parse_vector_ref(body: bytes) -> tuple[Digest, datetime]:
    """Inverse of format_vector_ref; raises ValueError unless the body is a
    lowercase SHA-256 hex digest and a strict ISO minute joined by one `|`.
    The only wire text that becomes a Digest enters here."""
    digest_hex, minute = body.decode("ascii").split("|")
    if _SHA256_HEX.fullmatch(digest_hex) is None:
        raise ValueError(f"not a sha256 hex digest: {digest_hex!r}")
    return Digest(digest_hex), parse_minute(minute)


def serialize_indexes(indexes) -> str:
    return "\n".join([ix.line for ix in indexes])


def block_preimage(prev_hash: str, indexes, minted_at: datetime) -> bytes:
    return f"{prev_hash}\n{serialize_indexes(indexes)}\n{fmt_minute(minted_at)}".encode("utf-8")


@dataclass(frozen=True, slots=True)
class Block:
    indexes: tuple[LedgerIndex, ...]
    block_hash: Digest
    prev_block_hash: Digest
    minted_at: datetime


def make_block(indexes, prev_hash: Digest, minted_at: datetime) -> Block:
    """Mint a block over `indexes`; pure function of its inputs. The minter
    passes a non-empty list; verify_chain flags a block without one."""
    indexes = tuple(indexes)
    block_hash = digest(block_preimage(prev_hash, indexes, minted_at))
    return Block(indexes, block_hash, prev_hash, minted_at)


def genesis_block() -> Block:
    return make_block((), Digest("0" * 64), GENESIS_MINTED_AT)


class Chain:
    """Single-writer chain; append is the only mutation. Readers take the tip
    or walk the blocks: a block announcement must name the tip, so nothing
    looks a block up by hash."""

    def __init__(self):
        self.blocks: list[Block] = [genesis_block()]
        self._verified: list[Block] = []

    @classmethod
    def from_blocks(cls, blocks) -> "Chain":
        """Rebuild from stored blocks without validation; pair with verify_chain."""
        chain = cls()
        chain.blocks = list(blocks)
        return chain

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def __len__(self) -> int:
        return len(self.blocks)

    def append(self, block: Block):
        """Add `block` as the new tip; the one writer mints it on the tip, and
        verify_chain flags a block that does not link."""
        self.blocks.append(block)


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
        if block.prev_block_hash != blocks[pos - 1].block_hash:
            return FirstBadBlock(pos, LINK_MISMATCH)
        if not block.indexes:
            return FirstBadBlock(pos, EMPTY_INDEXES)
        recomputed = digest(
            block_preimage(block.prev_block_hash, block.indexes, block.minted_at))
        if recomputed != block.block_hash:
            return FirstBadBlock(pos, HASH_MISMATCH)
    chain._verified = blocks
    return None


# Chain dump: bit-exact text artifact, one `block|` line per block followed by
# one `index|` line per index.

def chain_lines(chain: Chain) -> Iterator[str]:
    """The chain dump's lines one at a time, each ending in `\n`."""
    for pos, block in enumerate(chain.blocks):
        yield (f"block|{pos}|{fmt_minute(block.minted_at)}"
               f"|{block.block_hash}|{block.prev_block_hash}\n")
        for ix in block.indexes:
            yield f"index|{ix.line}\n"


def dump_chain(chain: Chain) -> str:
    return "".join(chain_lines(chain))


@functools.cache
def _dump_line_patterns() -> tuple[re.Pattern, re.Pattern]:
    """Full-line patterns of a block line and an index line in the one
    spelling dump_chain writes: lowercase SHA-256 hex, config.MINUTE_PATTERN
    minutes (config.parse_minute checks the date), and positions and replica
    ids as config.DECIMAL_PATTERN. Compiled on the first parse, so a run
    that reads no dump never pays."""
    decimal, minute, hex64 = DECIMAL_PATTERN, MINUTE_PATTERN, _SHA256_HEX.pattern
    return (re.compile(rf"block\|({decimal})\|({minute})\|({hex64})\|({hex64})"),
            re.compile(rf"index\|({hex64})\|({minute})\|({decimal}(?:,{decimal})*)"))


def _parse_holders(text: str) -> tuple[int, ...]:
    ids = tuple(map(int, text.split(",")))
    if len(set(ids)) != len(ids):
        raise ValueError(f"replica ids not distinct: {ids}")
    return ids


def parse_chain_dump(text: str) -> Chain:
    """Inverse of dump_chain; raises DumpFormatError unless every line,
    blank ones included, is a `block|` or `index|` line ended by `\n` alone.

    Each line is matched once against the full pattern of its kind, which
    checks every digest and number; each distinct minute is parsed once, and
    each distinct holder list is checked once for a repeated holder.
    """
    # (minted_at, block hash, prev hash, indexes) of each block line so far.
    headers: list[tuple[datetime, Digest, Digest, list[LedgerIndex]]] = []
    indexes: list[LedgerIndex] | None = None
    # Minutes and holder lists repeat from line to line: parse each spelling once.
    minute = functools.cache(parse_minute)
    holders = functools.cache(_parse_holders)
    block_line, index_line = _dump_line_patterns()

    *lines, unterminated = text.split("\n")
    if unterminated:
        raise DumpFormatError(f"line {len(lines) + 1}: no trailing newline")
    for lineno, raw in enumerate(lines, start=1):
        try:
            match = index_line.fullmatch(raw)
            if match is not None:
                if indexes is None:
                    raise ValueError("index line before the first block line")
                digest_hex, minute_text, ids = match.groups()
                # raw[6:] is the text after `index|`: the index's own line.
                indexes.append(LedgerIndex._parsed(
                    Digest(digest_hex), minute(minute_text), holders(ids),
                    minute_text, raw[6:]))
                continue
            match = block_line.fullmatch(raw)
            if match is None:
                raise ValueError(f"not a block or index line in dump form: {raw!r}")
            position, minute_text, block_hash, prev_hash = match.groups()
            if position != str(len(headers)):
                raise ValueError(f"position {position!r} out of order")
            indexes = []
            headers.append((minute(minute_text), Digest(block_hash),
                            Digest(prev_hash), indexes))
        except ValueError as exc:
            raise DumpFormatError(f"line {lineno}: {exc}") from None
    if not headers:
        raise DumpFormatError("empty chain dump")
    return Chain.from_blocks(Block(tuple(ixs), block_hash, prev_hash, minted_at)
                             for minted_at, block_hash, prev_hash, ixs in headers)
