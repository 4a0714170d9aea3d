"""Hash-chained ledger structure, verification, and traversal tests."""

import hashlib
import re
from datetime import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from histchain.config import fmt_minute
from histchain.envelope import MeasurementVector, digest, vector_digest
from histchain.ledger import (
    BAD_GENESIS,
    Block,
    EMPTY_INDEXES,
    HASH_MISMATCH,
    LINK_MISMATCH,
    Chain,
    DumpFormatError,
    LedgerIndex,
    dump_chain,
    format_vector_ref,
    genesis_block,
    make_block,
    parse_chain_dump,
    parse_vector_ref,
    verify_chain,
)
from .helpers import BLOCK_MUTATIONS, build_chain, mutated_chain

TS = datetime(2020, 12, 23, 3, 24)


def one_index(payload=b"vector-bytes", replicas=(1, 6, 3), ts=TS):
    return LedgerIndex(digest(payload), ts, tuple(replicas))


def each_digest_source():
    """(source, digest) from every place a Digest is built: the two hashes,
    the wire body reader, a parsed chain dump and the genesis block."""
    vector = MeasurementVector("Sensor 1", TS, (6, 7, 7))
    parsed = parse_chain_dump(dump_chain(build_chain(1, indexes_per_block=1)))
    block = parsed.blocks[1]
    return [
        ("digest", digest(b"vector-bytes")),
        ("vector_digest", vector_digest(vector)),
        ("parse_vector_ref", parse_vector_ref(format_vector_ref(digest(b"x"), TS))[0]),
        ("parse_chain_dump.block_hash", block.block_hash),
        ("parse_chain_dump.prev_block_hash", block.prev_block_hash),
        ("parse_chain_dump.vector_digest", block.indexes[0].vector_digest),
        ("genesis_block.block_hash", genesis_block().block_hash),
        ("genesis_block.prev_block_hash", genesis_block().prev_block_hash),
    ]


class TestDigestContract:
    """A digest reads as its lowercase hex text every way a caller reads
    it: as itself, through str() or an f-string, or through `.hex`."""

    @pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in each_digest_source()])
    def test_reads_as_its_hex_text(self, d):
        assert str(d) == f"{d}" == d.hex == d
        assert re.fullmatch("[0-9a-f]{64}", str(d))
        assert hash(d) == hash(d.hex)
        assert type(d.hex) is str


class TestLedgerIndex:
    def test_origin_kept_first(self):
        ix = one_index(replicas=(4, 2, 5))
        assert ix.replica_ids[0] == 4

    def test_line_format(self):
        ix = one_index()
        assert ix.line == f"{digest(b'vector-bytes')}|2020-12-23T03:24|1,6,3"


class TestVectorRef:
    def test_round_trip_keeps_wire_bytes(self):
        d = digest(b"vector")
        ts = datetime(2020, 12, 23, 17, 27)
        body = format_vector_ref(d, ts)
        assert body == f"{d}|2020-12-23T17:27".encode("ascii")
        assert parse_vector_ref(body) == (d, ts)

    @pytest.mark.parametrize("body", [
        b"XYZ|2020-12-23T17:27",
        b"deadbeef|2020-12-23T17:27",
        ("g" * 64 + "|2020-12-23T17:27").encode(),
        ("AB" * 32 + "|2020-12-23T17:27").encode(),
        ("ab" * 32 + "|2020-12-23 17:27").encode(),
        ("ab" * 32 + "|2020-12-23T17:27|1").encode(),
        "ab\u00e9|2020-12-23T17:27".encode("utf-8"),
        b"",
    ])
    def test_malformed_body_raises_value_error(self, body):
        with pytest.raises(ValueError):
            parse_vector_ref(body)


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

    def test_empty_block_fails_verification(self):
        chain = Chain()
        chain.append(make_block([], chain.tip.block_hash, TS))
        bad = verify_chain(chain)
        assert bad is not None and (bad.position, bad.reason) == (1, EMPTY_INDEXES)

    def test_hash_matches_standalone_recomputation(self):
        # Oracle: rebuild the preimage by hand and hash it with hashlib.
        genesis = genesis_block()
        ix = one_index()
        block = make_block([ix], genesis.block_hash, TS)
        preimage = (
            f"{genesis.block_hash}\n"
            f"{ix.vector_digest}|{fmt_minute(TS)}|1,6,3\n"
            f"{fmt_minute(TS)}"
        ).encode()
        assert block.block_hash == hashlib.sha256(preimage).hexdigest()


class TestChainAppend:
    def test_append_to_genesis(self):
        chain = Chain()
        chain.append(make_block([one_index()], chain.tip.block_hash, TS))
        assert len(chain) == 2

    def test_stale_prev_fails_verification(self):
        chain = Chain()
        chain.append(make_block([one_index()], digest(b"not the tip"), TS))
        bad = verify_chain(chain)
        assert bad is not None and (bad.position, bad.reason) == (1, LINK_MISMATCH)

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
        with pytest.raises(DumpFormatError, match="out of order"):
            parse_chain_dump("\n".join(lines) + "\n")

    def test_rejects_index_line_before_first_block(self):
        lines = dump_chain(build_chain(2)).splitlines()
        index_line = next(line for line in lines if line.startswith("index|"))
        with pytest.raises(DumpFormatError,
                           match="^line 1: index line before the first block line$"):
            parse_chain_dump("\n".join([index_line, *lines]) + "\n")

    @pytest.mark.parametrize("respell", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\x0b"),
        lambda text: text.replace("\n", "\n\n", 1),
        lambda text: text.replace("\n", "\n  \n", 1),
        lambda text: text + "\n",
        lambda text: text[:-1],
    ], ids=["crlf", "vt", "blank_line", "whitespace_line", "trailing_blank",
            "no_final_newline"])
    def test_rejects_second_spelling_of_a_line_end(self, respell):
        text = dump_chain(build_chain(2))
        with pytest.raises(DumpFormatError):
            parse_chain_dump(respell(text))

    @pytest.mark.parametrize("old, new", [
        ("block|1|", "block|01|"),
        ("block|1|", "block|+1|"),
        ("|2020-12-23T17:26|", "|2020-12-23 17:26|"),
        ("|2020-12-23T17:26|", "|2020-12-23T17:26:00|"),
    ])
    def test_rejects_second_spelling_of_a_field(self, old, new):
        text = dump_chain(build_chain(2))
        assert old in text
        with pytest.raises(DumpFormatError):
            parse_chain_dump(text.replace(old, new, 1))

    def test_rejects_repeated_replica_id(self):
        chain = Chain()
        chain.append(make_block([one_index(replicas=(1, 6, 3))], chain.tip.block_hash, TS))
        text = dump_chain(chain)
        assert "|1,6,3\n" in text
        with pytest.raises(DumpFormatError, match="not distinct"):
            parse_chain_dump(text.replace("|1,6,3\n", "|1,6,6\n"))

    @pytest.mark.parametrize("respell", ["0{}", "+{}", " {}", "{}_0"])
    def test_rejects_replica_id_not_in_plain_decimal(self, respell):
        lines = dump_chain(build_chain(2)).splitlines()
        pos = next(i for i, line in enumerate(lines) if line.startswith("index|"))
        head, ids = lines[pos].rsplit("|", 1)
        first, rest = ids.split(",", 1)
        lines[pos] = f"{head}|{respell.format(first)},{rest}"
        with pytest.raises(DumpFormatError):
            parse_chain_dump("\n".join(lines) + "\n")


# Characters the dump is made of, plus look-alikes a loose parser might accept.
DUMP_CHARS = st.sampled_from("0123456789abcdefABCDEF|,:-T \n\r\t+_٣１") | st.characters()
THREE_BLOCKS = dump_chain(build_chain(3))


@st.composite
def one_char_edit(draw, text):
    """text with one drawn character substituted, inserted or deleted. The
    place is drawn field by field (a field, a `|` or a line end first), so a
    one-digit position is hit as often as a 64-character digest."""
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"[^|\n]+|[|\n]", text)]))
    kind = draw(st.sampled_from(["substitute", "insert", "delete"]))
    if kind == "insert":
        pos = draw(st.integers(start, end))
        return text[:pos] + draw(DUMP_CHARS) + text[pos:]
    pos = draw(st.integers(start, end - 1))
    new = draw(DUMP_CHARS) if kind == "substitute" else ""
    return text[:pos] + new + text[pos + 1:]


class TestDumpStrictness:
    @given(one_char_edit(THREE_BLOCKS))
    @example(THREE_BLOCKS.replace("|1,", "|01,", 1))
    @example(THREE_BLOCKS.replace("block|1|", "block|+1|", 1))
    @example(THREE_BLOCKS.replace("T17:27|", "T17:2\u0667|", 1))
    @example(THREE_BLOCKS.replace("index|b", "index|B", 1))
    @example(THREE_BLOCKS.replace("|2,1,3", "|\u0662,1,3", 1))
    @settings(deadline=None, max_examples=400)
    def test_edited_dump_is_rejected_or_round_trips(self, edited):
        """A parsed dump has one spelling and only values the writer could
        hold: an edit either fails to parse or is the dump of the chain it
        parses to, with every digest lowercase SHA-256 hex and every holder
        list free of repeats. The constructors check neither, so the test
        does; the chain is rebuilt from its values first, since a parsed
        index keeps its line's text."""
        try:
            chain = parse_chain_dump(edited)
        except DumpFormatError:
            return
        indexes = [ix for block in chain.blocks for ix in block.indexes]
        digests = [ix.vector_digest for ix in indexes] + [
            d for block in chain.blocks for d in (block.block_hash, block.prev_block_hash)]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
        assert all(len(set(ix.replica_ids)) == len(ix.replica_ids) for ix in indexes)
        rebuilt = Chain.from_blocks(
            Block(tuple(LedgerIndex(ix.vector_digest, ix.captured_at, ix.replica_ids)
                        for ix in block.indexes),
                  block.block_hash, block.prev_block_hash, block.minted_at)
            for block in chain.blocks)
        assert dump_chain(rebuilt) == edited
