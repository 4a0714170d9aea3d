"""Canonical serialization, hashing, and seal/open envelope tests."""

import hashlib
import random
from collections import Counter
from datetime import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from histchain import envelope
from histchain.envelope import (
    Agreement,
    AuthError,
    CIPHER_HEADER_LEN,
    EPH_PUB_LEN,
    KeyDirectory,
    MeasurementVector,
    SIG_LEN,
    SerializationError,
    canonical_serialize,
    clear_signature_caches,
    digest,
    generate_node_keys,
    open_envelope,
    parse_canonical,
    seal,
    vector_digest,
)
from histchain.config import SimConfig
from histchain.sim import Simulation
from histchain.wire import LOG, REPLICA_REQ, REPLICA_RESP, decode_frame, unpack_envelope

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
        assert digest(b"") == SHA256_EMPTY

    def test_matches_hashlib_oracle(self):
        data = b"Sensor 1|2020-12-23T17:27|6,7,7,6,7,7,6,7,7,6"
        assert digest(data) == hashlib.sha256(data).hexdigest()

    def test_deterministic(self):
        assert digest(b"abc") == digest(b"abc")

    def test_configurable_hash_length(self):
        assert len(digest(b"abc")) == 64

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
        env = seal(b"payload bytes", sender, "node1", recipient.enc_pub, random.Random(1))
        assert open_envelope(env, recipient, sender.sig_pub) == b"payload bytes"

    def test_wrong_signer_rejected(self):
        sender, recipient = fresh_keys()
        other = generate_node_keys("plc2", random.Random(9))
        env = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(2))
        with pytest.raises(AuthError):
            open_envelope(env, recipient, other.sig_pub)

    def test_wrong_recipient_decrypt_failed(self):
        sender, recipient = fresh_keys()
        other = generate_node_keys("node2", random.Random(9))
        env = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(3))
        with pytest.raises(AuthError) as exc:
            open_envelope(env, other, sender.sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_body_flip_reports_both_digests(self):
        sender, recipient = fresh_keys()
        plaintext = b"Sensor 1|2020-12-23T17:27|6,7,7,6,7,7,6,7,7,6"
        env = seal(plaintext, sender, "node1", recipient.enc_pub, random.Random(4))
        ct = bytearray(env.ciphertext)
        ct[CIPHER_HEADER_LEN] ^= 0xFF
        tampered = type(env)(env.sender_id, env.recipient_id, bytes(ct), env.signature)
        with pytest.raises(AuthError) as exc:
            open_envelope(tampered, recipient, sender.sig_pub)
        assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert exc.value.claimed == digest(plaintext)
        assert exc.value.rebuilt is not None
        assert exc.value.rebuilt != exc.value.claimed

    def test_ciphertext_shorter_than_header_decrypt_failed(self):
        sender, recipient = fresh_keys()
        env = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(7))
        short = type(env)(env.sender_id, env.recipient_id,
                          env.ciphertext[:CIPHER_HEADER_LEN - 1], env.signature)
        with pytest.raises(AuthError) as exc:
            open_envelope(short, recipient, sender.sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED
        assert exc.value.detail == "ciphertext too short"

    def test_signature_flip_rejected(self):
        sender, recipient = fresh_keys()
        env = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        sig = bytearray(env.signature)
        sig[-1] ^= 0x01
        tampered = type(env)(env.sender_id, env.recipient_id, env.ciphertext, bytes(sig))
        with pytest.raises(AuthError):
            open_envelope(tampered, recipient, sender.sig_pub)

    def test_ciphertext_hides_plaintext(self):
        sender, recipient = fresh_keys()
        plaintext = canonical_serialize(
            MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 27), (2, 5)))
        env = seal(plaintext, sender, "node1", recipient.enc_pub, random.Random(6))
        assert plaintext not in env.ciphertext
        assert b"Sensor 1" not in env.ciphertext

    def test_seal_deterministic_given_rng(self):
        sender, recipient = fresh_keys()
        env1 = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        env2 = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        assert env1 == env2

    def test_shared_ephemeral_opens_only_at_each_addressee(self):
        """One plaintext sealed to two recipients under one ephemeral: both
        ciphertexts carry its public key, and each opens only where it is
        addressed, since each wrap key comes from that addressee's exchange."""
        sender, first = fresh_keys()
        second = generate_node_keys("node2", random.Random(9))
        rng = random.Random(8)
        eph_priv = envelope.ephemeral_key(rng)
        envs = [seal(b"block hash", sender, keys.node_id, keys.enc_pub, rng, eph_priv)
                for keys in (first, second)]
        eph_pub = eph_priv.public_key().public_bytes_raw()
        assert [env.ciphertext[:32] for env in envs] == [eph_pub, eph_pub]
        assert envs[0].ciphertext[32:] != envs[1].ciphertext[32:]
        for env, own, other in ((envs[0], first, second), (envs[1], second, first)):
            assert open_envelope(env, own, sender.sig_pub) == b"block hash"
            with pytest.raises(AuthError) as exc:
                open_envelope(env, other, sender.sig_pub)
            assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_each_block_announcement_has_its_own_ephemeral(self):
        """Seed 42, 10 intervals: the six LOG frames of each interval share
        one ephemeral public key, and no other frame of the run carries it."""
        sim = Simulation(SimConfig(seed=42, trace_wire=True))
        sim.run(10)
        frames = [decode_frame(data) for data in sim.network.trace]
        eph_pubs = [unpack_envelope(f.payload, "", "").ciphertext[:32] for f in frames]
        logs = [pub for f, pub in zip(frames, eph_pubs) if f.msg_type == LOG]
        assert len(logs) == 6 * 10
        per_block = [set(logs[i:i + 6]) for i in range(0, len(logs), 6)]
        assert all(len(pubs) == 1 for pubs in per_block)
        counts = Counter(eph_pubs)
        assert [counts[pub] for (pub,) in per_block] == [6] * 10

    def test_digest_of_opened_vector_matches_standalone_oracle(self):
        sender, recipient = fresh_keys()
        vector = MeasurementVector(
            "Sensor 1", datetime(2020, 12, 23, 17, 27),
            (6, 7, 7, 6, 7, 7, 6, 7, 7, 6))
        env = seal(canonical_serialize(vector), sender, "node1", recipient.enc_pub,
                   random.Random(7))
        plaintext = open_envelope(env, recipient, sender.sig_pub)
        oracle = hashlib.sha256(canonical_serialize(vector)).hexdigest()
        assert vector_digest(parse_canonical(plaintext)) == oracle

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

    @pytest.mark.parametrize("pos, edit", [
        (102, lambda byte: (byte + 168) % 256),  # body nonce: re-keys the stream
        (31, lambda byte: byte ^ 0x80),  # top bit of the public key, which X25519 masks
    ], ids=["body_nonce", "masked_pub_key_bit"])
    def test_header_edit_that_still_decrypts_is_rejected(self, pos, edit):
        """Both edits open to the original one-byte payload unless the key
        wrap authenticates the header."""
        sender, recipient = fresh_keys()
        env = seal(b"\x00", sender, "node1", recipient.enc_pub, random.Random(2))
        ct = bytearray(env.ciphertext)
        ct[pos] = edit(ct[pos])
        mutated = type(env)(env.sender_id, env.recipient_id, bytes(ct), env.signature)
        with pytest.raises(AuthError) as exc:
            open_envelope(mutated, recipient, sender.sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED


def with_ciphertext(env, ciphertext):
    return type(env)(env.sender_id, env.recipient_id, ciphertext, env.signature)


class TestReplyAgreement:
    """A replica answer is sealed and opened under its request's agreement:
    the X25519 secret of the request's ephemeral key and the addressee's
    static key, which the asker's seal and the addressee's open record."""

    def round_trip(self, seed, answer=b"Sensor 1|2020-12-23T17:27|2,5"):
        """(asker keys, origin keys, request, answer, the asker's agreement)
        of one request from node2 to node1 and node1's answer to it."""
        asker = generate_node_keys("node2", random.Random(9))
        origin = generate_node_keys("node1", random.Random(10))
        rng = random.Random(seed)
        asked = Agreement()
        request = seal(b"digest|minute", asker, "node1", origin.enc_pub, rng, reply=asked)
        served = Agreement()
        assert open_envelope(request, origin, asker.sig_pub, served) == b"digest|minute"
        assert (served.eph_pub, served.secret) == (asked.eph_pub, asked.secret)
        reply = seal(answer, origin, "node2", None, rng, reply=served)
        return asker, origin, request, reply, asked

    def test_reply_opens_only_with_its_own_requests_agreement(self):
        asker, origin, request, reply, asked = self.round_trip(1)
        assert request.ciphertext[:EPH_PUB_LEN] == reply.ciphertext[:EPH_PUB_LEN] \
            == asked.eph_pub
        assert open_envelope(reply, asker, origin.sig_pub, asked) == \
            b"Sensor 1|2020-12-23T17:27|2,5"
        with pytest.raises(AuthError) as exc:  # under the asker's static key
            open_envelope(reply, asker, origin.sig_pub)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_reply_under_one_agreement_fails_under_another(self):
        asker, origin, _, reply, _ = self.round_trip(1)
        *_, other = self.round_trip(2)
        with pytest.raises(AuthError) as exc:
            open_envelope(reply, asker, origin.sig_pub, other)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    @pytest.mark.parametrize("pos", [0, EPH_PUB_LEN - 1, EPH_PUB_LEN],
                             ids=["eph_first_byte", "eph_last_byte", "wrap_nonce"])
    def test_flipped_ephemeral_field_or_wrap_nonce_fails_the_unwrap(self, pos):
        asker, origin, _, reply, asked = self.round_trip(3)
        ct = bytearray(reply.ciphertext)
        ct[pos] ^= 0x01
        with pytest.raises(AuthError) as exc:
            open_envelope(with_ciphertext(reply, bytes(ct)), asker, origin.sig_pub, asked)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_request_does_not_open_as_a_reply(self):
        """The request and its answer share a secret but not a wrap key: the
        request's is HKDF under another label."""
        asker, _, request, _, asked = self.round_trip(4)
        with pytest.raises(AuthError) as exc:
            open_envelope(request, asker, asker.sig_pub, asked)
        assert exc.value.kind == AuthError.DECRYPT_FAILED

    def test_flipped_reply_body_reports_both_digests(self):
        plaintext = b"Sensor 1|2020-12-23T17:27|6,7,7,6,7,7,6,7,7,6"
        asker, origin, _, reply, asked = self.round_trip(5, plaintext)
        ct = bytearray(reply.ciphertext)
        ct[CIPHER_HEADER_LEN] ^= 0xFF
        with pytest.raises(AuthError) as exc:
            open_envelope(with_ciphertext(reply, bytes(ct)), asker, origin.sig_pub, asked)
        assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert exc.value.claimed == digest(plaintext)
        assert exc.value.rebuilt not in (None, exc.value.claimed)

    def test_failed_open_records_no_agreement(self):
        asker, origin, request, _, _ = self.round_trip(6)
        agreement = Agreement()
        with pytest.raises(AuthError):
            open_envelope(request, origin, origin.sig_pub, agreement)
        assert (agreement.eph_pub, agreement.secret) == (None, None)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=SIG_LEN - 1),
           st.integers(min_value=0, max_value=7))
    def test_flipped_tag_bit_rejected(self, pos, bit):
        """An answer's last SIG_LEN bytes are an HMAC-SHA512 tag over its
        digest; any flipped bit of it fails the open."""
        plaintext = b"Sensor 1|2020-12-23T17:27|2,5"
        asker, origin, _, reply, asked = self.round_trip(7, plaintext)
        sig = bytearray(reply.signature)
        sig[len(sig) - SIG_LEN + pos] ^= 1 << bit
        with pytest.raises(AuthError) as exc:
            open_envelope(with_signature(reply, bytes(sig)), asker, origin.sig_pub, asked)
        assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert exc.value.claimed == exc.value.rebuilt == digest(plaintext)
        assert "request's agreement" in exc.value.detail

    def test_holders_signature_in_place_of_the_tag_rejected(self):
        """An answer carrying the holder's genuine Ed25519 signature over its
        digest, the layout of a signed envelope, does not open: an answer is
        authenticated by its request's agreement alone."""
        asker, origin, _, reply, asked = self.round_trip(8)
        claimed = reply.signature[:-SIG_LEN]
        signed = with_signature(reply, claimed + origin.sig_priv.sign(claimed))
        with pytest.raises(AuthError) as exc:
            open_envelope(signed, asker, origin.sig_pub, asked)
        assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert exc.value.claimed == exc.value.rebuilt

    def test_answer_neither_signs_nor_verifies(self):
        """Sealing and opening an answer leaves both signature caches as
        they were: no Ed25519 sign, verify or cache hit. Both ends record
        the same agreement, so sealing under the asker's copy makes the
        answer the origin's copy would."""
        plaintext = b"Sensor 1|2020-12-23T17:27|2,5"
        asker, origin, _, _, asked = self.round_trip(11)
        before = envelope._sign.cache_info(), envelope._check_signature.cache_info()
        reply = seal(plaintext, origin, "node2", None, random.Random(12), reply=asked)
        assert open_envelope(reply, asker, origin.sig_pub, asked) == plaintext
        assert (envelope._sign.cache_info(), envelope._check_signature.cache_info()) == before

    def test_each_answer_repeats_its_requests_ephemeral_alone(self):
        """Seed 42, 10 intervals: each REPLICA_RESP frame starts its
        ciphertext with the ephemeral public key of the REPLICA_REQ it
        answers, which it follows on the wire, and no other frame carries
        that key."""
        sim = Simulation(SimConfig(seed=42, trace_wire=True))
        sim.run(10)
        frames = [decode_frame(data) for data in sim.network.trace]
        eph_pubs = [unpack_envelope(f.payload, "", "").ciphertext[:EPH_PUB_LEN]
                    for f in frames]
        answers = [i for i, f in enumerate(frames) if f.msg_type == REPLICA_RESP]
        assert len(answers) == 4 * 10
        assert all(frames[i - 1].msg_type == REPLICA_REQ for i in answers)
        assert all((frames[i].sender_id, frames[i].recipient_id)
                   == (frames[i - 1].recipient_id, frames[i - 1].sender_id) for i in answers)
        assert all(eph_pubs[i] == eph_pubs[i - 1] for i in answers)
        counts = Counter(eph_pubs)
        assert all(counts[eph_pubs[i]] == 2 for i in answers)


def with_signature(env, signature):
    return type(env)(env.sender_id, env.recipient_id, env.ciphertext, signature)


class TestSignatureMemo:
    """A signature is computed, and a triple verified, once while cached; a
    check that failed is never remembered, so it fails on every open."""

    def opened_genuine(self, payload=b"payload"):
        sender, recipient = fresh_keys()
        clear_signature_caches()
        env = seal(payload, sender, "node1", recipient.enc_pub, random.Random(3))
        assert open_envelope(env, recipient, sender.sig_pub) == payload
        assert open_envelope(env, recipient, sender.sig_pub) == payload
        info = envelope._check_signature.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        return sender, recipient, env

    def assert_rejected_and_not_cached(self, env, recipient, sig_pub):
        for _ in range(2):
            with pytest.raises(AuthError) as exc:
                open_envelope(env, recipient, sig_pub)
            assert exc.value.kind == AuthError.DIGEST_MISMATCH
        assert envelope._check_signature.cache_info().currsize == 1

    @settings(deadline=None, max_examples=60)
    # The signature field is the 64-byte hex digest, then the Ed25519 signature.
    @given(st.integers(min_value=0, max_value=64 + SIG_LEN - 1),
           st.integers(min_value=0, max_value=7))
    def test_flipped_signature_byte_rejected_after_genuine_open(self, pos, bit):
        sender, recipient, env = self.opened_genuine()
        flipped = bytearray(env.signature)
        flipped[pos] ^= 1 << bit
        self.assert_rejected_and_not_cached(
            with_signature(env, bytes(flipped)), recipient, sender.sig_pub)

    def test_swapped_claimed_digest_rejected_after_genuine_open(self):
        sender, recipient, env = self.opened_genuine()
        other = digest(b"another payload").encode("ascii")
        swapped = with_signature(env, other + env.signature[-SIG_LEN:])
        self.assert_rejected_and_not_cached(swapped, recipient, sender.sig_pub)

    def test_cached_signature_of_another_payload_still_fails_the_digest(self):
        """Both triples verify and are cached; the rebuilt digest still decides."""
        sender, recipient, env = self.opened_genuine()
        other = seal(b"another payload", sender, "node1", recipient.enc_pub, random.Random(8))
        open_envelope(other, recipient, sender.sig_pub)
        for _ in range(2):
            with pytest.raises(AuthError) as exc:
                open_envelope(with_signature(env, other.signature), recipient, sender.sig_pub)
            assert exc.value.kind == AuthError.DIGEST_MISMATCH
            assert exc.value.claimed == digest(b"another payload")
            assert exc.value.rebuilt == digest(b"payload")

    def test_other_endpoints_key_rejected_after_genuine_open(self):
        _, recipient, env = self.opened_genuine()
        other = generate_node_keys("plc2", random.Random(9))
        self.assert_rejected_and_not_cached(env, recipient, other.sig_pub)

    def test_memoised_seal_matches_a_recomputed_signature(self):
        sender, recipient = fresh_keys()
        clear_signature_caches()
        first = seal(b"payload", sender, "node1", recipient.enc_pub, random.Random(5))
        again = seal(b"payload", sender, "node2", recipient.enc_pub, random.Random(6))
        assert envelope._sign.cache_info().hits == 1
        claimed = digest(b"payload").encode("ascii")
        assert first.signature == again.signature == claimed + sender.sig_priv.sign(claimed)

    def test_caches_have_a_fixed_bound(self):
        for cached in (envelope._sign, envelope._check_signature):
            assert cached.cache_info().maxsize == envelope._SIGNATURE_CACHE_SIZE


class TestKeystore:
    def test_directory_lookup(self):
        directory = KeyDirectory()
        keys = generate_node_keys("node1", random.Random(4))
        directory.register(keys)
        assert directory.enc_pub("node1") is keys.enc_pub
        assert directory.sig_pub("node1") is keys.sig_pub
