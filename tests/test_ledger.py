"""Hash-chained ledger structure, verification, and traversal tests."""

import hashlib
from datetime import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from histchain.config import fmt_minute
from histchain.envelope import digest
from histchain.ledger import (
    BAD_GENESIS,
    EMPTY_INDEXES,
    EmptyBlockError,
    HASH_MISMATCH,
    LINK_MISMATCH,
    Chain,
    ChainLinkError,
    DumpFormatError,
    LedgerIndex,
    UnknownBlockError,
    dump_chain,
    genesis_block,
    make_block,
    parse_chain_dump,
    verify_chain,
)
from .helpers import BLOCK_MUTATIONS, build_chain, mutated_chain

TS = datetime(2020, 12, 23, 3, 24)


def one_index(payload=b"vector-bytes", replicas=(1, 6, 3), ts=TS):
    return LedgerIndex(digest(payload), ts, tuple(replicas))


class TestLedgerIndex:
    def test_replicas_must_be_distinct(self):
        with pytest.raises(ValueError):
            one_index(replicas=(1, 6, 6))

    def test_origin_kept_first(self):
        ix = one_index(replicas=(4, 2, 5))
        assert ix.replica_ids[0] == 4

    def test_line_format(self):
        ix = one_index()
        assert ix.line() == f"{digest(b'vector-bytes').hex}|2020-12-23T03:24|1,6,3"


class TestMakeBlock:
    def test_deterministic(self):
        genesis = genesis_block()
        a = make_block([one_index()], genesis.block_hash, TS)
        b = make_block([one_index()], genesis.block_hash, TS)
        assert a.block_hash == b.block_hash

    def test_single_index_block_links_to_prev(self):
        genesis = genesis_block()
        block = make_block([one_index()], genesis.block_hash, TS)
        assert block.indexes == (one_index(),)
        assert block.prev_block_hash == genesis.block_hash

    def test_empty_refused(self):
        with pytest.raises(EmptyBlockError):
            make_block([], genesis_block().block_hash, TS)

    def test_hash_matches_standalone_recomputation(self):
        # Oracle: rebuild the preimage by hand and hash it with hashlib.
        genesis = genesis_block()
        ix = one_index()
        block = make_block([ix], genesis.block_hash, TS)
        preimage = (
            f"{genesis.block_hash.hex}\n"
            f"{ix.vector_digest.hex}|{fmt_minute(TS)}|1,6,3\n"
            f"{fmt_minute(TS)}"
        ).encode()
        assert block.block_hash.hex == hashlib.sha256(preimage).hexdigest()


class TestChainAppend:
    def test_append_to_genesis(self):
        chain = Chain()
        chain.append(make_block([one_index()], chain.tip.block_hash, TS))
        assert len(chain) == 2

    def test_stale_prev_rejected(self):
        chain = Chain()
        stale = make_block([one_index()], digest(b"not the tip"), TS)
        with pytest.raises(ChainLinkError):
            chain.append(stale)
        assert len(chain) == 1

    def test_hundred_appends_verify_valid(self):
        chain = build_chain(100)
        assert verify_chain(chain) is None

    @given(st.integers(min_value=1, max_value=30))
    @settings(deadline=None, max_examples=15)
    def test_any_length_valid_after_appends(self, n):
        assert verify_chain(build_chain(n)) is None


class TestVerifyChain:
    def test_mutated_index_digest_flags_position(self):
        chain = build_chain(50)
        bad = verify_chain(mutated_chain(chain, 7, "index_digest"))
        assert bad is not None and bad.position == 7 and bad.reason == HASH_MISMATCH

    def test_swapped_blocks_flag_first_position(self):
        chain = build_chain(20)
        blocks = list(chain.blocks)
        blocks[5], blocks[12] = blocks[12], blocks[5]
        bad = verify_chain(Chain.from_blocks(blocks))
        assert bad is not None and bad.position == 5
        assert bad.reason == LINK_MISMATCH

    def test_mutated_prev_hash_is_link_mismatch(self):
        chain = build_chain(10)
        bad = verify_chain(mutated_chain(chain, 4, "prev_block_hash"))
        assert bad is not None and bad.position == 4 and bad.reason == LINK_MISMATCH

    def test_mutated_genesis_flagged(self):
        chain = build_chain(5)
        bad = verify_chain(mutated_chain(chain, 0, "minted_at"))
        assert bad is not None and bad.position == 0 and bad.reason == BAD_GENESIS

    def test_emptied_block_flagged(self):
        import dataclasses
        chain = build_chain(5)
        blocks = list(chain.blocks)
        blocks[3] = dataclasses.replace(blocks[3], indexes=())
        bad = verify_chain(Chain.from_blocks(blocks))
        assert bad is not None and bad.position == 3 and bad.reason == EMPTY_INDEXES

    def test_every_field_mutation_detected_everywhere(self):
        # Immutability-by-detection, quantified over all fields of all blocks.
        chain = build_chain(20)
        for position in range(len(chain.blocks)):
            for kind in BLOCK_MUTATIONS:
                if position == 0 and kind.startswith("index_"):
                    continue  # genesis has no indexes
                bad = verify_chain(mutated_chain(chain, position, kind))
                assert bad is not None, f"{kind}@{position} went undetected"
                assert bad.position == position, (kind, position, bad)


class TestWalkBack:
    def test_unknown_hash_rejected(self):
        chain = build_chain(3)
        with pytest.raises(UnknownBlockError):
            chain.lookup("ab" * 32)


class TestChainDump:
    def test_round_trip_bit_exact(self):
        chain = build_chain(8)
        text = dump_chain(chain)
        reparsed = parse_chain_dump(text)
        assert dump_chain(reparsed) == text
        assert verify_chain(reparsed) is None

    def test_rejects_garbage(self):
        with pytest.raises(DumpFormatError):
            parse_chain_dump("not a dump\n")
        with pytest.raises(DumpFormatError):
            parse_chain_dump("")

    def test_rejects_out_of_order_positions(self):
        chain = build_chain(3)
        lines = dump_chain(chain).splitlines()
        lines[0] = lines[0].replace("block|0", "block|1", 1)
        with pytest.raises(DumpFormatError):
            parse_chain_dump("\n".join(lines))
