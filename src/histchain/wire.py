"""Simulated wire: framed delivery in send order, with per-link interceptor hooks.

Frame layout (big-endian), bit-exact:

    version(1) | msg_type(1) | sender_id(2) | recipient_id(2)
    | payload_len(4) | payload

The payload of every frame is a packed envelope: ciphertext_len(4) followed by
the ciphertext and then the signature bytes: the payload's hex digest and 64
bytes that authenticate it, the sender's Ed25519 signature or, in a
REPLICA_RESP, an HMAC-SHA512 tag under its request's agreement (envelope.py).
Adversaries sit on links as interceptors: pure functions Frame -> Frame
(mutate) or None (drop).

The wire carries bytes and decodes nothing. A link's delivered frame goes on
the wire as pack_frame writes it, any header included: an honest frame comes
from NodeTransport.frame, which writes FRAME_VERSION and a known type, so the
version and the type are checked once, by decode_frame at the receiver. The
network hands each delivered frame's bytes to one `(receiver, bytes)`
callable, and the receiver decodes them in one place,
Simulation.unpack_frame: a header decode_frame rejects, a type the receiver
does not take at that point, an unknown endpoint, a recipient other than the
receiver or a payload that does not unpack is dropped there with
MALFORMED_PAYLOAD from the receiver. A link delivers to the endpoint its
sender addressed, whatever the recipient an interceptor writes.

A traced network keeps each delivered frame as the bytes object its receiver
is handed, so the trace costs the frames' own size; they are hexed only as
Simulation.write_artifacts writes them to wire_trace.txt.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .envelope import SignedEnvelope

FRAME_VERSION = 1

MEASUREMENT = 1
INDEX = 2
LOG = 3
REPLICA_REQ = 4
REPLICA_RESP = 5
MSG_TYPES = (MEASUREMENT, INDEX, LOG, REPLICA_REQ, REPLICA_RESP)

HEADER = struct.Struct(">BBHHI")
HEADER_LEN = HEADER.size  # 10

TRUNCATED = "truncated"
BAD_LENGTH = "bad_length"
UNKNOWN_TYPE = "unknown_type"

# NodeTransport.round_trip's result when an answer arrived but the requester
# dropped it, raising the alarm itself; the network itself never returns it.
ANSWER_DROPPED = object()


class EncodeError(ValueError):
    """A header field too wide for its slot."""


class DecodeError(ValueError):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


@dataclass(frozen=True)
class Frame:
    version: int
    msg_type: int
    sender_id: int
    recipient_id: int
    payload: bytes


def pack_frame(frame: Frame) -> bytes:
    """The frame's bytes, whatever its version and type; raises EncodeError
    only for a field too wide for its place in the header."""
    try:
        header = HEADER.pack(frame.version, frame.msg_type, frame.sender_id,
                             frame.recipient_id, len(frame.payload))
    except struct.error as exc:
        raise EncodeError(f"header field out of range: {exc}") from None
    return header + frame.payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < HEADER_LEN:
        raise DecodeError(TRUNCATED, f"{len(data)} bytes, header needs {HEADER_LEN}")
    version, msg_type, sender, recipient, payload_len = HEADER.unpack_from(data)
    if version != FRAME_VERSION or msg_type not in MSG_TYPES:
        raise DecodeError(UNKNOWN_TYPE, f"version={version} msg_type={msg_type}")
    if len(data) - HEADER_LEN != payload_len:
        raise DecodeError(BAD_LENGTH,
                          f"declared {payload_len}, actual {len(data) - HEADER_LEN}")
    return Frame(version, msg_type, sender, recipient, data[HEADER_LEN:])


def pack_envelope(env: SignedEnvelope) -> bytes:
    return struct.pack(">I", len(env.ciphertext)) + env.ciphertext + env.signature


def unpack_envelope(payload: bytes, sender_id: str, recipient_id: str) -> SignedEnvelope:
    if len(payload) < 4:
        raise DecodeError(TRUNCATED, "envelope length prefix missing")
    (ct_len,) = struct.unpack_from(">I", payload)
    if len(payload) < 4 + ct_len:
        raise DecodeError(BAD_LENGTH, "ciphertext shorter than declared")
    ciphertext = payload[4:4 + ct_len]
    signature = payload[4 + ct_len:]
    return SignedEnvelope(sender_id, recipient_id, ciphertext, signature)


class EndpointRegistry:
    """Wire ids for named endpoints: storage nodes 1..N, PLCs, chain module."""

    def __init__(self, n_storage_nodes: int):
        self._by_name = {f"node{i}": i for i in range(1, n_storage_nodes + 1)}
        self._by_name["plc1"] = 101
        self._by_name["plc2"] = 102
        self._by_name["chain"] = 200
        self._by_id = {v: k for k, v in self._by_name.items()}

    def wire_id(self, name: str) -> int:
        return self._by_name[name]

    def name(self, wire_id: int) -> str:
        return self._by_id[wire_id]


# An interceptor returns the frame to put on the wire, or None to drop it. It
# may rewrite any header field within its width; a field too wide for its slot
# is a programming error, and pack_frame's EncodeError propagates to the sender.
Interceptor = Callable[[Frame], Optional[Frame]]


class Link:
    """One directed link between two endpoints; at most one interceptor.
    `carried` counts the frames it has put on the wire, interceptor's
    rewrites included and its drops not."""

    __slots__ = ("interceptor", "carried")

    def __init__(self):
        self.interceptor: Interceptor | None = None
        self.carried = 0

    def apply(self, frame: Frame) -> Frame | None:
        if self.interceptor is None:
            return frame
        return self.interceptor(frame)


class Network:
    """Owns all links and delivery; endpoints never touch the queue directly.

    One queue holds every frame in flight as (receiving endpoint, bytes) in
    send order, whatever its link, so `pump` delivers in send order. The
    network decodes nothing: a frame's fate past its link is its receiver's.
    With `trace`, `self.trace` lists every delivered frame, in the order the
    frames went on the wire, as the very bytes object its receiver is handed:
    no copy, no hex.
    """

    def __init__(self, registry: EndpointRegistry, trace: bool = False):
        self.registry = registry
        self.links: dict[tuple[str, str], Link] = {}
        self._queue: deque[tuple[str, bytes]] = deque()
        self.trace: list[bytes] | None = [] if trace else None

    def add_link(self, src: str, dst: str):
        self.links[(src, dst)] = Link()

    def _transmit(self, link: Link, frame: Frame) -> bytes | None:
        """The bytes `link` delivers for a sent frame, or None if dropped."""
        delivered = link.apply(frame)
        if delivered is None:
            return None
        data = pack_frame(delivered)
        link.carried += 1
        if self.trace is not None:
            self.trace.append(data)
        return data

    def send(self, frame: Frame):
        src = self.registry.name(frame.sender_id)
        dst = self.registry.name(frame.recipient_id)
        data = self._transmit(self.links[(src, dst)], frame)
        if data is not None:
            self._queue.append((dst, data))

    def pump(self, deliver: Callable[[str, bytes], None]):
        """Hand queued frames' bytes to `deliver(receiver, data)` in send
        order until quiet; `deliver` may send more."""
        while self._queue:
            deliver(*self._queue.popleft())

    def round_trip(self, frame: Frame,
                   answer: Callable[[str, bytes], Frame | None]) -> bytes | None:
        """Synchronous request/response over a link pair, interceptors included;
        `answer(receiver, request_bytes)` returns the response frame or None.
        Returns the response's bytes as delivered, or None if none came back."""
        src = self.registry.name(frame.sender_id)
        dst = self.registry.name(frame.recipient_id)
        data = self._transmit(self.links[(src, dst)], frame)
        response = None if data is None else answer(dst, data)
        if response is None:
            return None
        return self._transmit(self.links[(dst, src)], response)
