"""Node keys, canonical measurement serialization, hashing, and sealed envelopes.

Every inter-node message travels as a SignedEnvelope built from two pieces:

* ciphertext: the payload encrypted to the recipient's public encryption key.
  Hybrid layout so any payload length seals without size errors:

      eph_x25519_pub (32) | wrap_nonce (12) | wrapped_sym_key (48)
      | body_nonce (16) | body (len(payload))

  The symmetric body key is wrapped with ChaCha20-Poly1305 under an
  HKDF-derived key from an ephemeral X25519 exchange; the body itself is a
  plain ChaCha20 stream so in-transit bit flips surface as a digest mismatch
  at the receiver rather than a decryption failure.

* signature: the payload digest in hex, followed by an Ed25519 signature over
  those digest bytes by the sender. Carrying the digest alongside its
  signature lets a receiver report both the claimed and the rebuilt digest
  when they disagree.

open_envelope() decrypts, recomputes the payload digest, authenticates the
claimed digest, and compares the two; any disagreement raises AuthError and
the message must be discarded.
"""

from __future__ import annotations

import base64
import hashlib
import os
import random
import re
from dataclasses import dataclass
from datetime import datetime

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .config import MINUTE_FMT, fmt_minute

EPH_PUB_LEN = 32
WRAP_NONCE_LEN = 12
WRAPPED_KEY_LEN = 48  # 32-byte key + 16-byte Poly1305 tag
BODY_NONCE_LEN = 16
CIPHER_HEADER_LEN = EPH_PUB_LEN + WRAP_NONCE_LEN + WRAPPED_KEY_LEN + BODY_NONCE_LEN
SIG_LEN = 64  # Ed25519 signature size

_HKDF_INFO = b"histchain envelope key wrap"


class SerializationError(ValueError):
    """Measurement vector cannot be serialized or parsed."""


class AuthError(Exception):
    """Envelope failed authentication; the payload must be discarded.

    kind is "decrypt_failed" or "digest_mismatch". For digest mismatches the
    claimed (as received) and rebuilt digests are kept for the alarm log.
    """

    DECRYPT_FAILED = "decrypt_failed"
    DIGEST_MISMATCH = "digest_mismatch"

    def __init__(self, kind: str, detail: str, claimed: str | None = None,
                 rebuilt: str | None = None):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
        self.claimed = claimed
        self.rebuilt = rebuilt


_SHA256_HEX = re.compile("[0-9a-f]{64}")


@dataclass(frozen=True)
class Digest:
    """Lowercase hex SHA-256 fingerprint."""

    hex: str

    def __post_init__(self):
        if not _SHA256_HEX.fullmatch(self.hex):
            raise ValueError(f"not a sha256 hex digest: {self.hex!r}")

    def __str__(self) -> str:
        return self.hex


def digest(data: bytes) -> Digest:
    return Digest(hashlib.sha256(data).hexdigest())


@dataclass(frozen=True)
class MeasurementVector:
    """One sensor's readings for one interval; the unit of storage and hashing."""

    sensor_name: str
    captured_at: datetime
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SerializationError("measurement vector has no values")
        if any(not isinstance(v, int) or v < 0 for v in self.values):
            raise SerializationError("values must be non-negative integers")
        if not self.sensor_name or "|" in self.sensor_name:
            raise SerializationError(f"bad sensor name {self.sensor_name!r}")
        if self.captured_at.second or self.captured_at.microsecond:
            raise SerializationError("captured_at must be minute-aligned")

    @property
    def key(self) -> tuple[str, str]:
        return (self.sensor_name, fmt_minute(self.captured_at))


def canonical_serialize(vector: MeasurementVector) -> bytes:
    """Stable, injective byte form: name|ISO-minute|comma-joined values."""
    values = ",".join(str(v) for v in vector.values)
    return f"{vector.sensor_name}|{fmt_minute(vector.captured_at)}|{values}".encode("utf-8")


def parse_canonical(data: bytes) -> MeasurementVector:
    """Inverse of canonical_serialize; rejects anything off-format."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"not utf-8: {exc}") from None
    parts = text.split("|")
    if len(parts) != 3:
        raise SerializationError(f"expected 3 fields, got {len(parts)}")
    name, stamp, values_text = parts
    try:
        captured_at = datetime.strptime(stamp, MINUTE_FMT)
    except ValueError as exc:
        raise SerializationError(f"bad timestamp {stamp!r}: {exc}") from None
    try:
        values = tuple(int(v) for v in values_text.split(","))
    except ValueError as exc:
        raise SerializationError(f"bad values {values_text!r}: {exc}") from None
    return MeasurementVector(name, captured_at, values)


def vector_digest(vector: MeasurementVector) -> Digest:
    return digest(canonical_serialize(vector))


@dataclass
class NodeKeys:
    """One node's two keypairs: encryption (X25519) and signature (Ed25519)."""

    node_id: str
    enc_priv: X25519PrivateKey
    enc_pub: X25519PublicKey
    sig_priv: Ed25519PrivateKey
    sig_pub: Ed25519PublicKey


def generate_node_keys(node_id: str, rng: random.Random | None = None) -> NodeKeys:
    enc_priv = X25519PrivateKey.from_private_bytes(_rand_bytes(rng, 32))
    sig_priv = Ed25519PrivateKey.from_private_bytes(_rand_bytes(rng, 32))
    return NodeKeys(node_id, enc_priv, enc_priv.public_key(),
                    sig_priv, sig_priv.public_key())


def _rand_bytes(rng: random.Random | None, n: int) -> bytes:
    return os.urandom(n) if rng is None else rng.randbytes(n)


class KeyDirectory:
    """Globally known public key halves, looked up by node id."""

    def __init__(self):
        self._enc: dict[str, X25519PublicKey] = {}
        self._sig: dict[str, Ed25519PublicKey] = {}

    def register(self, keys: NodeKeys):
        self._enc[keys.node_id] = keys.enc_pub
        self._sig[keys.node_id] = keys.sig_pub

    def enc_pub(self, node_id: str) -> X25519PublicKey:
        return self._enc[node_id]

    def sig_pub(self, node_id: str) -> Ed25519PublicKey:
        return self._sig[node_id]


@dataclass(frozen=True)
class SignedEnvelope:
    sender_id: str
    recipient_id: str
    ciphertext: bytes
    signature: bytes


def seal(plaintext: bytes, sender: NodeKeys, recipient_id: str,
         recipient_enc_pub: X25519PublicKey,
         rng: random.Random | None = None) -> SignedEnvelope:
    """Encrypt plaintext to the recipient and sign its digest as the sender."""
    sym_key = _rand_bytes(rng, 32)
    eph_priv = X25519PrivateKey.from_private_bytes(_rand_bytes(rng, 32))
    shared = eph_priv.exchange(recipient_enc_pub)
    wrap_key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HKDF_INFO).derive(shared)
    wrap_nonce = _rand_bytes(rng, WRAP_NONCE_LEN)
    wrapped = ChaCha20Poly1305(wrap_key).encrypt(wrap_nonce, sym_key, None)
    body_nonce = _rand_bytes(rng, BODY_NONCE_LEN)
    body = Cipher(ChaCha20(sym_key, body_nonce), mode=None).encryptor().update(plaintext)
    eph_pub = eph_priv.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    ciphertext = eph_pub + wrap_nonce + wrapped + body_nonce + body

    claimed = digest(plaintext).hex.encode("ascii")
    signature = claimed + sender.sig_priv.sign(claimed)
    return SignedEnvelope(sender.node_id, recipient_id, ciphertext, signature)


def open_envelope(env: SignedEnvelope, recipient: NodeKeys,
                  sender_sig_pub: Ed25519PublicKey) -> bytes:
    """Decrypt and authenticate an envelope; raises AuthError on any failure."""
    ct = env.ciphertext
    if len(ct) < CIPHER_HEADER_LEN:
        raise AuthError(AuthError.DECRYPT_FAILED, "ciphertext too short")
    eph_pub = ct[:EPH_PUB_LEN]
    wrap_nonce = ct[EPH_PUB_LEN:EPH_PUB_LEN + WRAP_NONCE_LEN]
    wrapped = ct[EPH_PUB_LEN + WRAP_NONCE_LEN:EPH_PUB_LEN + WRAP_NONCE_LEN + WRAPPED_KEY_LEN]
    body_nonce = ct[CIPHER_HEADER_LEN - BODY_NONCE_LEN:CIPHER_HEADER_LEN]
    body = ct[CIPHER_HEADER_LEN:]
    try:
        shared = recipient.enc_priv.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        wrap_key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HKDF_INFO).derive(shared)
        sym_key = ChaCha20Poly1305(wrap_key).decrypt(wrap_nonce, wrapped, None)
    except (InvalidTag, ValueError) as exc:
        raise AuthError(AuthError.DECRYPT_FAILED, f"key unwrap failed: {exc}") from None
    plaintext = Cipher(ChaCha20(sym_key, body_nonce), mode=None).decryptor().update(body)

    rebuilt = digest(plaintext).hex
    claimed_bytes = env.signature[:-SIG_LEN]
    sig = env.signature[-SIG_LEN:]
    claimed = claimed_bytes.decode("ascii", errors="replace")
    try:
        sender_sig_pub.verify(sig, claimed_bytes)
    except InvalidSignature:
        raise AuthError(
            AuthError.DIGEST_MISMATCH,
            "claimed digest cannot be authenticated against the sender key",
            claimed=claimed, rebuilt=rebuilt,
        ) from None
    if claimed != rebuilt:
        raise AuthError(
            AuthError.DIGEST_MISMATCH,
            "rebuilt digest disagrees with the signed digest",
            claimed=claimed, rebuilt=rebuilt,
        )
    return plaintext


# Keystore file: one record per node, node id then the four key blobs
# (enc private, enc public, sig private, sig public) as base64 raw bytes.

def save_keystore(path, keystore: dict[str, NodeKeys]):
    lines = []
    for node_id, keys in keystore.items():
        blobs = [
            keys.enc_priv.private_bytes(
                serialization.Encoding.Raw, serialization.PrivateFormat.Raw,
                serialization.NoEncryption()),
            keys.enc_pub.public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw),
            keys.sig_priv.private_bytes(
                serialization.Encoding.Raw, serialization.PrivateFormat.Raw,
                serialization.NoEncryption()),
            keys.sig_pub.public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw),
        ]
        encoded = " ".join(base64.b64encode(b).decode("ascii") for b in blobs)
        lines.append(f"{node_id} {encoded}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_keystore(path) -> dict[str, NodeKeys]:
    keystore = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            node_id, *blobs = line.split(" ")
            if len(blobs) != 4:
                raise ValueError(f"keystore record for {node_id!r} needs 4 key blobs")
            enc_priv_b, enc_pub_b, sig_priv_b, sig_pub_b = (
                base64.b64decode(b) for b in blobs
            )
            keystore[node_id] = NodeKeys(
                node_id,
                X25519PrivateKey.from_private_bytes(enc_priv_b),
                X25519PublicKey.from_public_bytes(enc_pub_b),
                Ed25519PrivateKey.from_private_bytes(sig_priv_b),
                Ed25519PublicKey.from_public_bytes(sig_pub_b),
            )
    return keystore
