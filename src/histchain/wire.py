"""Simulated wire: framed delivery in send order, with per-link interceptor hooks.

Frame layout (big-endian), bit-exact:

    version(1) | msg_type(1) | sender_id(2) | recipient_id(2)
    | payload_len(4) | payload

The payload of every frame is a packed envelope: ciphertext_len(4) followed by
the ciphertext and then the signature bytes. Adversaries sit on links as
interceptors: pure functions Frame -> Frame (mutate) or None (drop).

The wire carries bytes. The sender encodes with encode_frame, which refuses a
frame no honest endpoint sends; an interceptor's rewrite goes on the wire as
pack_frame writes it, any header included; the receiver decodes with
decode_frame, so a frame with an unknown version or type is handed to the
network's on_malformed callback instead of being delivered. A frame that
decodes goes to one `(receiver, frame)` callable, where Simulation.unpack_frame
is the one gate on type: the chain takes INDEX, a node MEASUREMENT or LOG from
the queue, REPLICA_REQ as responder and REPLICA_RESP as requester, and any
other type is dropped with MALFORMED_PAYLOAD from the receiver.
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

# A round trip's result when an answer arrived but its requester dropped it,
# raising the alarm itself; None means no answer arrived.
ANSWER_DROPPED = object()


class EncodeError(ValueError):
    """Frame fields out of range at the sender."""


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


def encode_frame(frame: Frame) -> bytes:
    """Sender-side pack_frame: also refuses a version or type decode_frame rejects."""
    if frame.version != FRAME_VERSION:
        raise EncodeError(f"unsupported version {frame.version}")
    if frame.msg_type not in MSG_TYPES:
        raise EncodeError(f"unknown msg_type {frame.msg_type}")
    return pack_frame(frame)


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
# (receiving endpoint name, msg_type, sender_id, why decode_frame rejected the frame)
MalformedHandler = Callable[[str, int, int, str], None]


@dataclass
class InterceptorHandle:
    src: str
    dst: str


class Link:
    """One directed link between two endpoints; at most one interceptor."""

    def __init__(self):
        self.interceptor: Interceptor | None = None

    def apply(self, frame: Frame) -> Frame | None:
        if self.interceptor is None:
            return frame
        return self.interceptor(frame)


class Network:
    """Owns all links and delivery; endpoints never touch the queue directly.

    One queue holds every frame in flight as (receiving endpoint, bytes) in
    send order, whatever its link, so `pump` delivers in send order. A frame
    that decode_frame rejects at the receiver is not delivered; its header and
    the reason go to on_malformed with the receiving endpoint's name.
    """

    def __init__(self, registry: EndpointRegistry, on_malformed: MalformedHandler,
                 trace: bool = False):
        self.registry = registry
        self.links: dict[tuple[str, str], Link] = {}
        self._queue: deque[tuple[str, bytes]] = deque()
        self.trace: list[str] | None = [] if trace else None
        self.on_malformed = on_malformed

    def add_link(self, src: str, dst: str) -> Link:
        link = self.links.get((src, dst))
        if link is None:
            link = Link()
            self.links[(src, dst)] = link
        return link

    def install_interceptor(self, src: str, dst: str,
                            fn: Interceptor) -> tuple[InterceptorHandle, bool]:
        """Install on a link; returns (handle, replaced_existing). Last install wins."""
        link = self.links[(src, dst)]
        replaced = link.interceptor is not None
        link.interceptor = fn
        return InterceptorHandle(src, dst), replaced

    def remove_interceptor(self, handle: InterceptorHandle):
        self.links[(handle.src, handle.dst)].interceptor = None

    def _transmit(self, link: Link, frame: Frame) -> bytes | None:
        """The bytes `link` delivers for a sent frame, or None if dropped.

        A frame no honest endpoint sends raises EncodeError here, at the sender.
        """
        data = encode_frame(frame)
        delivered = link.apply(frame)
        if delivered is None:
            return None
        if delivered is not frame:
            data = pack_frame(delivered)
        if self.trace is not None:
            self.trace.append(data.hex())
        return data

    def _receive(self, receiver: str, data: bytes) -> Frame | None:
        try:
            return decode_frame(data)
        except DecodeError as exc:
            _, msg_type, sender_id, _, _ = HEADER.unpack_from(data)
            self.on_malformed(receiver, msg_type, sender_id, str(exc))
            return None

    def send(self, frame: Frame):
        src = self.registry.name(frame.sender_id)
        dst = self.registry.name(frame.recipient_id)
        link = self.links[(src, dst)]
        data = self._transmit(link, frame)
        if data is not None:
            self._queue.append((dst, data))

    def pump(self, deliver: Callable[[str, Frame], None]):
        """Deliver queued frames in send order until quiet; `deliver` may send more."""
        while self._queue:
            receiver, data = self._queue.popleft()
            frame = self._receive(receiver, data)
            if frame is not None:
                deliver(receiver, frame)

    def round_trip(self, frame: Frame,
                   answer: Callable[[str, Frame], Frame | None]) -> Frame | object | None:
        """Synchronous request/response over a link pair, interceptors included;
        `answer(receiver, request)` returns the response frame or None. Returns
        the response; None if none came back, or ANSWER_DROPPED if it came back
        but does not decode."""
        src = self.registry.name(frame.sender_id)
        dst = self.registry.name(frame.recipient_id)
        data = self._transmit(self.links[(src, dst)], frame)
        request = None if data is None else self._receive(dst, data)
        if request is None:
            return None
        response = answer(dst, request)
        if response is None:
            return None
        data = self._transmit(self.links[(dst, src)], response)
        if data is None:
            return None
        frame = self._receive(src, data)
        return ANSWER_DROPPED if frame is None else frame
