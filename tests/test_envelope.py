"""Canonical serialization, hashing, and seal/open envelope tests."""

import hashlib
import random
from datetime import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from histchain.envelope import (
    AuthError,
    CIPHER_HEADER_LEN,
    Digest,
    KeyDirectory,
    MeasurementVector,
    SerializationError,
    canonical_serialize,
    digest,
    generate_node_keys,
    load_keystore,
    open_envelope,
    parse_canonical,
    save_keystore,
    seal,
    vector_digest,
)

# SHA-256 of the empty string, the algorithm's published test vector.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

SENSOR_NAME = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="|"),
    min_size=1, max_size=20,
)
MINUTE = st.datetimes(
    min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)
).map(lambda d: d.replace(second=0, microsecond=0))
VALUES = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30)
VECTORS = st.builds(
    lambda n, t, v: MeasurementVector(n, t, tuple(v)), SENSOR_NAME, MINUTE, VALUES)


def fresh_keys(seed=0):
    rng = random.Random(seed)
    sender = generate_node_keys("plc1", rng)
    recipient = generate_node_keys("node1", rng)
    return sender, recipient


class TestCanonicalForm:
    def test_example_bytes(self):
        v = MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), (2, 5))
        assert canonical_serialize(v) == b"Sensor 1|2020-12-23T17:27|2,5"

    def test_one_value_differs_bytes_differ(self):
        a = MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), (2, 5))
        b = MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), (2, 6))
        assert canonical_serialize(a) != canonical_serialize(b)

    def test_empty_values_rejected(self):
        with pytest.raises(SerializationError):
            MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), ())

    def test_pipe_in_name_rejected(self):
        with pytest.raises(SerializationError):
            MeasurementVector("Sensor|1", datetime(2020, 12, 23, 17, 27), (1,))

    def test_unaligned_timestamp_rejected(self):
        with pytest.raises(SerializationError):
            MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27, 30), (1,))

    @given(VECTORS)
    def test_round_trip(self, vector):
        assert parse_canonical(canonical_serialize(vector)) == vector

    @given(VECTORS, VECTORS)
    def test_injective(self, a, b):
        if a != b:
            assert canonical_serialize(a) != canonical_serialize(b)

    @pytest.mark.parametrize("garbage", [
        b"", b"Sensor 1", b"Sensor 1|2020-12-23T17:27",
        b"Sensor 1|17:27|1,2", b"Sensor 1|2020-12-23T17:27|one,two",
        b"Sensor 1|2020-12-23T17:27|1,2|extra", b"\xff\xfe",
    ])
    def test_parse_rejects_garbage(self, garbage):
        with pytest.raises(SerializationError):
            parse_canonical(garbage)


class TestDigest:
    def test_empty_input_matches_published_vector(self):
        assert digest(b"").hex == SHA256_EMPTY

    def test_matches_hashlib_oracle(self):
        data = b"Sensor 1|2020-12-23T17:27|6,7,7,6,7,7,6,7,7,6"
        assert digest(data).hex == hashlib.sha256(data).hexdigest()

    def test_deterministic(self):
        assert digest(b"abc") == digest(b"abc")

    def test_configurable_hash_length(self):
        assert len(digest(b"abc").hex) == 64

    def test_digest_type_validates(self):
        with pytest.raises(ValueError):
            Digest("deadbeef")
        with pytest.raises(ValueError):
            Digest("g" * 64)

    @given(st.one_of(
        st.text(max_size=70),
        st.text(alphabet="0123456789abcdefABCDEF \t\n\u0663", min_size=62, max_size=66),
        st.text(alphabet="0123456789abcdef", min_size=63, max_size=65),
    ))
    @example("0" * 64)
    @example("A" * 64)
    @example("a" * 63 + "F")
    @example(" " + "a" * 63)
    @example("a" * 63 + " ")
    @example("a" * 32 + " " + "a" * 31)
    @example("a" * 63 + "\n")
    @example("\u0663" * 64)
    @example("0" * 63 + "\u0663")
    @example("a" * 63)
    @example("a" * 65)
    @example("a" * 40)
    def test_validation_matches_reference_predicate(self, text):
        if len(text) == 64 and all(c in "0123456789abcdef" for c in text):
            assert Digest(text).hex == text
        else:
            with pytest.raises(ValueError):
                Digest(text)

    @given(st.binary(min_size=1, max_size=200), st.data())
    def test_bit_flip_changes_digest(self, data, draw):
        pos = draw.draw(st.integers(min_value=0, max_value=len(data) - 1))
        bit = draw.draw(st.integers(min_value=0, max_value=7))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        assert digest(bytes(flipped)) != digest(data)


class TestSealOpen:
    def test_round_trip(self):
        sender, recipient = fresh_keys()
        env = seal(b"payload bytes", sender, "node1", recipient.enc_pub)
        assert open_envelope(env, recipient, sender.sig_pub) == b"payload bytes"

    def test_wrong_signer_rejected(self):
        sender, recipient = fresh_keys()
        other = generate_node_keys("plc2", random.Random(9))
        env = seal(b"payload", sender, "node1", recipient.enc_pub)
        with pytest.raises(AuthError):
            open_envelope(env, recipient, other.sig_pub)

    def test_wrong_recipient_decrypt_failed(self):
        sender, recipient = fresh_keys()
        other = generate_node_keys("node2", random.Random(9))
        env = seal(b"payload", sender, "node1", recipient.enc_pub)
        with pytest.raises(AuthError) as exc:
            open_envelope(env, other, sender.sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_body_flip_reports_both_digests(self):
        sender, recipient = fresh_keys()
        plaintext = b"Sensor 1|2020-12-23T17:27|6,7,7,6,7,7,6,7,7,6"
        env = seal(plaintext, sender, "node1", recipient.enc_pub)
        ct = bytearray(env.ciphertext)
        ct[CIPHER_HEADER_LEN] ^= 0xFF
        tampered = type(env)(env.sender_id, env.recipient_id, bytes(ct), env.signature)
        with pytest.raises(AuthError) as exc:
            open_envelope(tampered, recipient, sender.sig_pub)
        assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert exc.value.claimed == digest(plaintext).hex
        assert exc.value.rebuilt is not None
        assert exc.value.rebuilt != exc.value.claimed

    def test_signature_flip_rejected(self):
        sender, recipient = fresh_keys()
        env = seal(b"payload", sender, "node1", recipient.enc_pub)
        sig = bytearray(env.signature)
        sig[-1] ^= 0x01
        tampered = type(env)(env.sender_id, env.recipient_id, env.ciphertext, bytes(sig))
        with pytest.raises(AuthError):
            open_envelope(tampered, recipient, sender.sig_pub)

    def test_ciphertext_hides_plaintext(self):
        sender, recipient = fresh_keys()
        plaintext = canonical_serialize(
            MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), (2, 5)))
        env = seal(plaintext, sender, "node1", recipient.enc_pub)
        assert plaintext not in env.ciphertext
        assert b"Sensor 1" not in env.ciphertext

    def test_seal_deterministic_given_rng(self):
        sender, recipient = fresh_keys()
        env1 = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        env2 = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        assert env1 == env2

    def test_digest_of_opened_vector_matches_standalone_oracle(self):
        sender, recipient = fresh_keys()
        vector = MeasurementVector(
            "Sensor 1", datetime(2020, 12, 23, 17, 27),
            (6, 7, 7, 6, 7, 7, 6, 7, 7, 6))
        env = seal(canonical_serialize(vector), sender, "node1", recipient.enc_pub)
        plaintext = open_envelope(env, recipient, sender.sig_pub)
        oracle = hashlib.sha256(canonical_serialize(vector)).hexdigest()
        assert vector_digest(parse_canonical(plaintext)).hex == oracle

    @settings(deadline=None, max_examples=50)
    @given(st.binary(min_size=0, max_size=400))
    def test_round_trip_property(self, payload):
        sender, recipient = fresh_keys()
        env = seal(payload, sender, "node1", recipient.enc_pub, random.Random(1))
        assert open_envelope(env, recipient, sender.sig_pub) == payload

    @settings(deadline=None, max_examples=50)
    @given(st.binary(min_size=1, max_size=120), st.data())
    def test_single_byte_mutation_always_rejected(self, payload, draw):
        sender, recipient = fresh_keys()
        env = seal(payload, sender, "node1", recipient.enc_pub, random.Random(2))
        target = draw.draw(st.sampled_from(["ciphertext", "signature"]))
        blob = bytearray(getattr(env, target))
        pos = draw.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        delta = draw.draw(st.integers(min_value=1, max_value=255))
        blob[pos] = (blob[pos] + delta) % 256
        mutated = type(env)(
            env.sender_id, env.recipient_id,
            bytes(blob) if target == "ciphertext" else env.ciphertext,
            bytes(blob) if target == "signature" else env.signature,
        )
        with pytest.raises(AuthError):
            open_envelope(mutated, recipient, sender.sig_pub)


class TestKeystore:
    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(3)
        keystore = {name: generate_node_keys(name, rng)
                    for name in ("plc1", "node1", "chain")}
        path = tmp_path / "keys.txt"
        save_keystore(path, keystore)
        loaded = load_keystore(path)
        assert set(loaded) == set(keystore)
        env = seal(b"check", keystore["plc1"], "node1", loaded["node1"].enc_pub)
        assert open_envelope(env, loaded["node1"], keystore["plc1"].sig_pub) == b"check"

    def test_directory_lookup(self):
        directory = KeyDirectory()
        keys = generate_node_keys("node1", random.Random(4))
        directory.register(keys)
        assert directory.enc_pub("node1") is keys.enc_pub
        assert directory.sig_pub("node1") is keys.sig_pub
