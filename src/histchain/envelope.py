"""Node keys, canonical measurement serialization, hashing, and sealed envelopes.

Every inter-node message travels as a SignedEnvelope built from two pieces:

* ciphertext: the payload encrypted to the recipient's public encryption key.
  Hybrid layout so any payload length seals without size errors:

      eph_x25519_pub (32) | wrap_nonce (12) | wrapped_sym_key (48)
      | body_nonce (16) | body (len(payload))

  The symmetric body key is wrapped with ChaCha20-Poly1305 under an
  HKDF-derived key from an ephemeral X25519 exchange, with `eph_x25519_pub |
  body_nonce` as associated data, so the tag covers every header byte: an
  edited nonce cannot re-key the body stream, and a flipped bit X25519 masks
  in the public key still fails. The body itself is a plain ChaCha20 stream
  so in-transit bit flips surface as a digest mismatch at the receiver rather
  than a decryption failure.

  seal draws a fresh ephemeral key per envelope unless it is handed one from
  ephemeral_key(). The minter hands one key to the six seals of a block
  announcement: reusing one ephemeral across the recipients of one broadcast
  is as secure as fresh randomness for each (Bellare, Boldyreva and Staddon,
  "Randomness Re-use in Multi-recipient Encryption Schemes", PKC 2003;
  Kurosawa, PKC 2002). Each envelope still does its own exchange with its
  addressee's key and draws its own wrap nonce, symmetric key and body nonce,
  so only the key-pair generation is shared.

* signature: the payload digest in hex, followed by an Ed25519 signature over
  those digest bytes by the sender. Carrying the digest alongside its
  signature lets a receiver report both the claimed and the rebuilt digest
  when they disagree.

open_envelope() decrypts, recomputes the payload digest, authenticates the
claimed digest, and compares the two; any disagreement raises AuthError and
the message must be discarded.

Ed25519 is deterministic (RFC 8032): a signature is a pure function of the key
and the message, and so is whether a (public key, message, signature) triple
verifies. Many envelopes share one: the minter's six LOG announcements sign
the same block hash, and both replica holders of a vector get the origin's
signature over the same record. So the Ed25519 sign and verify calls go
through two small LRU caches of fixed size, _sign and _check_signature. Only
triples that verified are remembered, because lru_cache does not keep a call
that raised, so a forged, flipped or wrong-key signature is checked, and
rejected, on every open. Everything else still runs for every envelope: the
X25519 exchange, HKDF, the key wrap, the body stream, the payload digest and
its comparison with the signed one. Per clean interval that makes 11 real
signs and 11 real verifications for 18 envelopes, under 13 ephemeral key
pairs. Each Simulation starts with both caches empty.

A measurement's canonical form is `name|ISO minute|v1,v2,...` with the values
in plain decimal. A MeasurementVector builds these bytes once, on
construction, and keeps them as `canonical`: they are what a Historian dump
writes and what vector_digest hashes, so the validator hashes exactly the
bytes at rest. vector_digest recomputes the SHA-256 str Digest per call; nothing
caches one. parse_canonical is strict: it accepts exactly the bytes a vector's
`canonical` holds, so one record has one spelling and one digest. It reads a
record with one full-line match that admits only that spelling, and the
vector it returns keeps the input bytes as `canonical`. A sensor name holds
no `|` and no line boundary, so a record is always one dump line.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from datetime import datetime
from functools import cache, lru_cache
from itertools import repeat

from cryptography.exceptions import InvalidSignature, InvalidTag
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

from .config import DECIMAL_PATTERN, MINUTE_PATTERN, fmt_minute

EPH_PUB_LEN = 32
WRAP_NONCE_LEN = 12
WRAPPED_KEY_LEN = 48  # 32-byte key + 16-byte Poly1305 tag
BODY_NONCE_LEN = 16
CIPHER_HEADER_LEN = EPH_PUB_LEN + WRAP_NONCE_LEN + WRAPPED_KEY_LEN + BODY_NONCE_LEN
SIG_LEN = 64  # Ed25519 signature size

_HKDF_INFO = b"histchain envelope key wrap"
# An interval's repeated signatures fall within a few dozen envelopes of each
# other, so a small fixed bound keeps every repeat and little else.
_SIGNATURE_CACHE_SIZE = 64


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


class Digest(str):
    """Lowercase hex SHA-256 fingerprint, formatted, compared and hashed as
    that text. It checks nothing: hashlib writes lowercase hex, and outside
    text is checked where it enters, by ledger.parse_vector_ref and the
    chain-dump patterns. `hex` is kept only for the benchmark's reads."""

    __slots__ = ()

    @property
    def hex(self) -> str:
        return str(self)


def digest(data: bytes) -> Digest:
    """SHA-256 of data."""
    return Digest(hashlib.sha256(data).hexdigest())


@dataclass(frozen=True, slots=True)
class MeasurementVector:
    """One sensor's readings for one interval; the unit of storage and hashing.

    key is (sensor_name, ISO capture minute) and canonical is the record's
    canonical bytes; both are computed once on construction.
    """

    sensor_name: str
    captured_at: datetime
    values: tuple[int, ...]
    key: tuple[str, str] = field(init=False, repr=False, compare=False)
    canonical: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise SerializationError("measurement vector has no values")
        if not all(map(isinstance, values, repeat(int))) or min(values) < 0:
            raise SerializationError("values must be non-negative integers")
        name = self.sensor_name
        # splitlines() != [name] also catches the empty name and a trailing break.
        if "|" in name or name.splitlines() != [name]:
            raise SerializationError(f"bad sensor name {name!r}")
        captured_at = self.captured_at
        if captured_at.second or captured_at.microsecond or captured_at.tzinfo is not None:
            raise SerializationError("captured_at must be a naive, minute-aligned time")
        minute = fmt_minute(captured_at)
        try:
            canonical = f"{name}|{minute}|{','.join(map(int.__repr__, values))}".encode("utf-8")
        except ValueError as exc:  # a lone surrogate, or an int too long for str()
            raise SerializationError(f"record has no canonical form: {exc}") from None
        object.__setattr__(self, "key", (name, minute))
        object.__setattr__(self, "canonical", canonical)


def canonical_serialize(vector: MeasurementVector) -> bytes:
    """Stable, injective byte form: name|ISO-minute|comma-joined values."""
    return vector.canonical


@cache
def _canonical_record_pattern() -> re.Pattern:
    """Full-line pattern of a record in the one spelling a vector's
    `canonical` holds: a name with no `|` and nothing str.splitlines breaks
    on, a config.MINUTE_PATTERN minute (fromisoformat checks the date), and
    config.DECIMAL_PATTERN values. Compiled on the first parse, not at
    import, like the chain-dump patterns."""
    name = r"[^|\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+"
    decimal = DECIMAL_PATTERN
    return re.compile(rf"({name})\|({MINUTE_PATTERN})\|({decimal}(?:,{decimal})*)")


def parse_canonical(data: bytes) -> MeasurementVector:
    """Inverse of canonical_serialize; raises SerializationError unless
    `data` is a vector's canonical bytes.

    The text is read with one full-line match that accepts only the
    canonical spelling, so the vector is built from the matched fields
    without running its constructor's checks again: no minute is formatted,
    no value written back, and `canonical` is `data` itself."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"not utf-8: {exc}") from None
    match = _canonical_record_pattern().fullmatch(text)
    if match is None:
        raise SerializationError(f"not in canonical form: {text!r}")
    name, minute, values_text = match.groups()
    try:
        captured_at = datetime.fromisoformat(minute)
    except ValueError as exc:
        raise SerializationError(f"bad timestamp {minute!r}: {exc}") from None
    try:
        values = tuple(map(int, values_text.split(",")))
    except ValueError as exc:  # more digits than int() reads
        raise SerializationError(f"bad values {values_text!r}: {exc}") from None
    vector = object.__new__(MeasurementVector)
    setattr_ = object.__setattr__
    setattr_(vector, "sensor_name", name)
    setattr_(vector, "captured_at", captured_at)
    setattr_(vector, "values", values)
    setattr_(vector, "key", (name, minute))
    setattr_(vector, "canonical", data)
    return vector


def vector_digest(vector: MeasurementVector) -> Digest:
    """SHA-256 of the record's canonical bytes, recomputed on every call."""
    return digest(vector.canonical)


@dataclass
class NodeKeys:
    """One node's two keypairs: encryption (X25519) and signature (Ed25519)."""

    node_id: str
    enc_priv: X25519PrivateKey
    enc_pub: X25519PublicKey
    sig_priv: Ed25519PrivateKey
    sig_pub: Ed25519PublicKey


def generate_node_keys(node_id: str, rng: random.Random) -> NodeKeys:
    enc_priv = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    sig_priv = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
    return NodeKeys(node_id, enc_priv, enc_priv.public_key(),
                    sig_priv, sig_priv.public_key())


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


@lru_cache(maxsize=_SIGNATURE_CACHE_SIZE)
def _sign(sig_priv: Ed25519PrivateKey, claimed: bytes) -> bytes:
    """Ed25519 signature of `claimed`; private keys hash by identity."""
    return sig_priv.sign(claimed)


@lru_cache(maxsize=_SIGNATURE_CACHE_SIZE)
def _check_signature(pub_raw: bytes, claimed: bytes, sig: bytes) -> None:
    """Raises InvalidSignature unless `sig` signs `claimed` under the raw
    public key; only a triple that verified is cached."""
    Ed25519PublicKey.from_public_bytes(pub_raw).verify(sig, claimed)


def clear_signature_caches():
    """Empty both caches; a Simulation calls this when it starts. A finished
    run's entries cannot hit again (its private keys live on only in the
    cache), and kept, they hold the allocator's memory and raise peak RSS."""
    _sign.cache_clear()
    _check_signature.cache_clear()


def ephemeral_key(rng: random.Random) -> X25519PrivateKey:
    """A fresh X25519 ephemeral key pair drawn from `rng`."""
    return X25519PrivateKey.from_private_bytes(rng.randbytes(32))


def seal(plaintext: bytes, sender: NodeKeys, recipient_id: str,
         recipient_enc_pub: X25519PublicKey, rng: random.Random,
         eph_priv: X25519PrivateKey | None = None) -> SignedEnvelope:
    """Encrypt plaintext to the recipient and sign its digest as the sender;
    every random byte comes from `rng`, so a seeded stream gives the same bytes.
    `eph_priv`, from ephemeral_key(), is one broadcast's shared ephemeral;
    without it a fresh one is drawn."""
    sym_key = rng.randbytes(32)
    if eph_priv is None:
        eph_priv = ephemeral_key(rng)
    shared = eph_priv.exchange(recipient_enc_pub)
    wrap_key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HKDF_INFO).derive(shared)
    wrap_nonce = rng.randbytes(WRAP_NONCE_LEN)
    body_nonce = rng.randbytes(BODY_NONCE_LEN)
    eph_pub = eph_priv.public_key().public_bytes_raw()
    wrapped = ChaCha20Poly1305(wrap_key).encrypt(wrap_nonce, sym_key, eph_pub + body_nonce)
    body = Cipher(ChaCha20(sym_key, body_nonce), mode=None).encryptor().update(plaintext)
    ciphertext = eph_pub + wrap_nonce + wrapped + body_nonce + body

    claimed = digest(plaintext).encode("ascii")
    signature = claimed + _sign(sender.sig_priv, claimed)
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
        sym_key = ChaCha20Poly1305(wrap_key).decrypt(wrap_nonce, wrapped, eph_pub + body_nonce)
    except (InvalidTag, ValueError) as exc:
        raise AuthError(AuthError.DECRYPT_FAILED, f"key unwrap failed: {exc}") from None
    plaintext = Cipher(ChaCha20(sym_key, body_nonce), mode=None).decryptor().update(body)

    rebuilt = digest(plaintext)
    claimed_bytes = env.signature[:-SIG_LEN]
    sig = env.signature[-SIG_LEN:]
    claimed = claimed_bytes.decode("ascii", errors="replace")
    try:
        _check_signature(sender_sig_pub.public_bytes_raw(), claimed_bytes, sig)
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
