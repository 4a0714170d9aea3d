"""Frame codec, link FIFO, and interceptor hook tests."""

import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given

from histchain.envelope import SignedEnvelope, generate_node_keys, seal
from histchain.wire import (
    BAD_LENGTH,
    HEADER_LEN,
    MEASUREMENT,
    MSG_TYPES,
    REPLICA_REQ,
    TRUNCATED,
    UNKNOWN_TYPE,
    DecodeError,
    EncodeError,
    EndpointRegistry,
    Frame,
    Network,
    decode_frame,
    pack_envelope,
    pack_frame,
    unpack_envelope,
)

FRAMES = st.builds(
    Frame,
    version=st.just(1),
    msg_type=st.sampled_from(MSG_TYPES),
    sender_id=st.integers(min_value=0, max_value=0xFFFF),
    recipient_id=st.integers(min_value=0, max_value=0xFFFF),
    payload=st.binary(min_size=0, max_size=300),
)


class TestFrameCodec:
    @given(FRAMES)
    def test_round_trip(self, frame):
        assert decode_frame(pack_frame(frame)) == frame

    def test_empty_bytes_truncated(self):
        with pytest.raises(DecodeError) as exc:
            decode_frame(b"")
        assert exc.value.reason == TRUNCATED

    def test_declared_length_one_long_is_bad_length(self):
        frame = Frame(1, MEASUREMENT, 101, 1, b"abc")
        raw = bytearray(pack_frame(frame))
        raw[6:10] = struct.pack(">I", len(frame.payload) + 1)
        with pytest.raises(DecodeError) as exc:
            decode_frame(bytes(raw))
        assert exc.value.reason == BAD_LENGTH

    def test_unknown_msg_type(self):
        raw = bytearray(pack_frame(Frame(1, MEASUREMENT, 101, 1, b"")))
        raw[1] = 99
        with pytest.raises(DecodeError) as exc:
            decode_frame(bytes(raw))
        assert exc.value.reason == UNKNOWN_TYPE

    def test_unknown_version(self):
        raw = bytearray(pack_frame(Frame(1, MEASUREMENT, 101, 1, b"")))
        raw[0] = 2
        with pytest.raises(DecodeError) as exc:
            decode_frame(bytes(raw))
        assert exc.value.reason == UNKNOWN_TYPE

    def test_encode_rejects_malformed(self):
        with pytest.raises(EncodeError):
            pack_frame(Frame(1, MEASUREMENT, 70000, 0, b""))

    def test_pack_writes_any_header_that_fits(self):
        frame = Frame(7, 99, 101, 1, b"abc")
        raw = pack_frame(frame)
        assert raw == bytes([7, 99, 0, 101, 0, 1, 0, 0, 0, 3]) + b"abc"
        with pytest.raises(DecodeError) as exc:
            decode_frame(raw)
        assert exc.value.reason == UNKNOWN_TYPE
        with pytest.raises(EncodeError):
            pack_frame(Frame(1, 256, 0, 0, b""))

    def test_header_is_ten_bytes(self):
        assert HEADER_LEN == 10
        assert len(pack_frame(Frame(1, MEASUREMENT, 1, 2, b""))) == 10


class TestEnvelopePacking:
    def test_round_trip(self):
        env = SignedEnvelope("plc1", "node1", b"ciphertext-bytes", b"signature-bytes")
        payload = pack_envelope(env)
        assert unpack_envelope(payload, "plc1", "node1") == env

    def test_sealed_envelope_survives_packing(self):
        rng = random.Random(0)
        sender = generate_node_keys("plc1", rng)
        recipient = generate_node_keys("node1", rng)
        env = seal(b"reading bytes", sender, "node1", recipient.enc_pub, rng)
        assert unpack_envelope(pack_envelope(env), "plc1", "node1") == env

    def test_truncated_prefix(self):
        with pytest.raises(DecodeError):
            unpack_envelope(b"\x00\x01", "a", "b")

    def test_short_ciphertext(self):
        with pytest.raises(DecodeError):
            unpack_envelope(struct.pack(">I", 10) + b"abc", "a", "b")


def small_network(trace=False):
    registry = EndpointRegistry(2)
    network = Network(registry, trace=trace)
    network.add_link("plc1", "node1")
    network.add_link("node1", "node2")
    network.add_link("node2", "node1")
    return registry, network


def frame_to(registry, src, dst, payload=b"x", msg_type=MEASUREMENT):
    return Frame(1, msg_type, registry.wire_id(src), registry.wire_id(dst), payload)


def intercept(network, src, dst, fn):
    network.links[(src, dst)].interceptor = fn


class TestNetwork:
    """The network carries bytes; each test's receiver decodes what it gets."""

    def test_fifo_order_preserved(self):
        registry, network = small_network()
        seen = []
        for i in range(20):
            network.send(frame_to(registry, "plc1", "node1", payload=bytes([i])))
        network.pump(lambda receiver, data: seen.append(decode_frame(data).payload[0]))
        assert seen == list(range(20))

    def test_interleaved_links_and_handler_sends_deliver_in_send_order(self):
        registry, network = small_network()
        got = []

        def deliver(receiver, data):
            payload = decode_frame(data).payload
            got.append((receiver, payload))
            if payload == b"p0":
                network.send(frame_to(registry, "node1", "node2", payload=b"h0"))

        for src, dst, payload in (("plc1", "node1", b"p0"), ("node2", "node1", b"q0"),
                                  ("plc1", "node1", b"p1"), ("node1", "node2", b"r0")):
            network.send(frame_to(registry, src, dst, payload=payload))
        network.pump(deliver)
        assert got == [("node1", b"p0"), ("node1", b"q0"), ("node1", b"p1"),
                       ("node2", b"r0"), ("node2", b"h0")]

    def test_no_interceptor_bit_identical(self):
        registry, network = small_network()
        sent = frame_to(registry, "plc1", "node1", payload=b"exact-bytes")
        got = []
        network.send(sent)
        network.pump(lambda receiver, data: got.append(data))
        assert got == [pack_frame(sent)]

    def test_identity_interceptor_same_as_none(self):
        registry, network = small_network()
        intercept(network, "plc1", "node1", lambda f: f)
        sent = frame_to(registry, "plc1", "node1", payload=b"exact-bytes")
        got = []
        network.send(sent)
        network.pump(lambda receiver, data: got.append(data))
        assert got == [pack_frame(sent)]

    def test_mutating_interceptor_leaves_header_intact(self):
        registry, network = small_network()

        def flip(frame):
            return Frame(frame.version, frame.msg_type, frame.sender_id,
                         frame.recipient_id, bytes(b ^ 0xFF for b in frame.payload))

        intercept(network, "plc1", "node1", flip)
        sent = frame_to(registry, "plc1", "node1", payload=b"\x00\x01")
        got = []
        network.send(sent)
        network.pump(lambda receiver, data: got.append(decode_frame(data)))
        assert got[0].payload == b"\xff\xfe"
        assert (got[0].msg_type, got[0].sender_id, got[0].recipient_id) == \
               (sent.msg_type, sent.sender_id, sent.recipient_id)

    def test_rewritten_header_is_carried_as_written(self):
        """The network decodes nothing, so a header no receiver takes still
        reaches its receiver, which decides the frame's fate."""
        registry, network = small_network(trace=True)
        intercept(network, "plc1", "node1",
                  lambda f: Frame(f.version, 99, f.sender_id, f.recipient_id, f.payload))
        sent = frame_to(registry, "plc1", "node1", payload=b"zz")
        got = []
        network.send(sent)
        network.pump(lambda receiver, data: got.append((receiver, data)))
        rewritten = pack_frame(Frame(1, 99, sent.sender_id, sent.recipient_id, b"zz"))
        assert got == [("node1", rewritten)]
        assert network.trace == [rewritten]
        with pytest.raises(DecodeError) as exc:
            decode_frame(rewritten)
        assert exc.value.reason == UNKNOWN_TYPE

    def test_drop_never_delivers(self):
        registry, network = small_network()
        intercept(network, "plc1", "node1", lambda f: None)
        network.send(frame_to(registry, "plc1", "node1"))
        got = []
        network.pump(lambda receiver, data: got.append(data))
        assert got == []

    def test_passive_tap_transcript_equals_traffic(self):
        registry, network = small_network()
        captured = []

        def tap(frame):
            captured.append(frame)
            return frame

        intercept(network, "plc1", "node1", tap)
        frames = [frame_to(registry, "plc1", "node1", payload=bytes([i]))
                  for i in range(5)]
        got = []
        for f in frames:
            network.send(f)
        network.pump(lambda receiver, data: got.append(decode_frame(data)))
        assert captured == frames == got

    def test_round_trip_passes_both_interceptors(self):
        registry, network = small_network()
        hops = []
        intercept(network, "node1", "node2", lambda f: hops.append("out") or f)
        intercept(network, "node2", "node1", lambda f: hops.append("back") or f)
        requests = []

        def responder(receiver, data):
            requests.append((receiver, decode_frame(data).msg_type))
            return frame_to(registry, "node2", "node1", payload=b"reply",
                            msg_type=REPLICA_REQ)

        response = network.round_trip(
            frame_to(registry, "node1", "node2", msg_type=REPLICA_REQ),
            responder)
        assert response is not None and decode_frame(response).payload == b"reply"
        assert requests == [("node2", REPLICA_REQ)]
        assert hops == ["out", "back"]

    def test_round_trip_drop_returns_none(self):
        """None whichever leg is dropped; a dropped answer was still made."""
        for link, made in ((("node1", "node2"), []), (("node2", "node1"), ["node2"])):
            registry, network = small_network()
            intercept(network, *link, lambda f: None)
            answered = []

            def responder(receiver, data):
                answered.append(receiver)
                return frame_to(registry, "node2", "node1", msg_type=REPLICA_REQ)

            response = network.round_trip(
                frame_to(registry, "node1", "node2", msg_type=REPLICA_REQ),
                responder)
            assert (response, answered) == (None, made)

    def test_trace_records_delivered_bytes(self):
        registry, network = small_network(trace=True)
        sent = frame_to(registry, "plc1", "node1", payload=b"zz")
        network.send(sent)
        network.pump(lambda receiver, data: None)
        assert network.trace == [pack_frame(sent)]
