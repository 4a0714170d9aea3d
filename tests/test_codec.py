"""The strict ISO-minute and record codec: every parser accepts exactly the
bytes its writer produces, so one value has one spelling."""

from datetime import datetime, timezone

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from histchain.config import MINUTE_FMT, ConfigError, fmt_minute, parse_minute
from histchain.envelope import (
    MeasurementVector,
    SerializationError,
    canonical_serialize,
    digest,
    parse_canonical,
)
from histchain.ledger import format_vector_ref, parse_vector_ref

NAIVE = st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59))
MINUTES = NAIVE.map(lambda t: t.replace(second=0, microsecond=0))
NAMES = st.text(min_size=1, max_size=12).filter(lambda name: "|" not in name)
VALUES = st.lists(st.integers(min_value=0, max_value=10**30), min_size=1, max_size=12)
VECTORS = st.builds(MeasurementVector, NAMES, MINUTES, VALUES)

# Values int() reads that canonical_serialize never writes.
LAX_VALUES = [" +3", "3_0", "03", "٣", "3 ", "-0"]
# Stamps a lenient parser reads that fmt_minute never writes.
LAX_STAMPS = [
    "2020-1-3T1:2",
    "٢٠٢٠-12-23T17:26",
    "2020-12-23T17:26:00",
    "2020-12-23 17:26",
    "20201223T1726",
    "2020-12-23T17:26Z",
    "2020-12-23T17:26+00:00",
    "2020-12-23T17",
    "2020-12-23",
]
STAMPS = st.one_of(MINUTES.map(fmt_minute), st.sampled_from(LAX_STAMPS), st.text(max_size=20))
VALUE_TEXTS = st.one_of(
    VALUES.map(lambda vs: ",".join(map(str, vs))),
    st.lists(st.sampled_from(LAX_VALUES + ["0", "7", "12"]), min_size=1).map(",".join),
    st.text(max_size=20),
)
RECORD_TEXTS = st.builds(lambda n, s, v: f"{n}|{s}|{v}", st.text(max_size=12), STAMPS, VALUE_TEXTS)


def accepts_only_canonical(data: bytes):
    """parse_canonical either rejects `data` or writes the very same bytes back."""
    try:
        vector = parse_canonical(data)
    except SerializationError:
        return
    assert canonical_serialize(vector) == data


class TestMinute:
    @given(NAIVE)
    def test_format_matches_strftime(self, t):
        assert fmt_minute(t) == t.strftime(MINUTE_FMT)

    @given(MINUTES)
    def test_round_trip(self, t):
        assert parse_minute(fmt_minute(t)) == t

    @given(STAMPS)
    @example("2020-1-3T1:2")
    @example("٢٠٢٠-12-23T17:26")
    @example("2020-12-23T17:26:00")
    @example("2020-12-23 17:26")
    @example("20201223T1726")
    @example("2020-12-23T17:26Z")
    @example("2020-12-23T17:26+00:00")
    def test_parses_only_what_fmt_minute_writes(self, text):
        try:
            parsed = parse_minute(text)
        except ConfigError:
            return
        assert fmt_minute(parsed) == text

    @pytest.mark.parametrize("text", LAX_STAMPS)
    def test_lax_stamps_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_minute(text)


class TestRecord:
    @given(VECTORS)
    def test_round_trip(self, vector):
        assert parse_canonical(canonical_serialize(vector)) == vector

    @given(RECORD_TEXTS)
    @example("Sensor 1|2020-12-23T17:26| +3")
    @example("Sensor 1|2020-12-23T17:26|3_0")
    @example("Sensor 1|2020-12-23T17:26|03")
    @example("Sensor 1|2020-12-23T17:26|٣")
    @example("Sensor 1|2020-1-3T1:2|3")
    @example("Sensor 1|٢٠٢٠-12-23T17:26|3")
    @example("Sensor 1|2020-12-23T17:26:00|3")
    @example("Sensor 1|2020-12-23 17:26|3")
    @example("Sensor 1|20201223T1726|3")
    @example("Sensor 1|2020-12-23T17:26Z|3")
    @example("Sensor 1|2020-12-23T17:26+00:00|3")
    def test_parses_only_canonical_text(self, text):
        accepts_only_canonical(text.encode("utf-8"))

    @given(st.binary(max_size=60))
    def test_parses_only_canonical_bytes(self, data):
        accepts_only_canonical(data)

    @pytest.mark.parametrize("values", LAX_VALUES)
    def test_lax_values_rejected(self, values):
        with pytest.raises(SerializationError):
            parse_canonical(f"Sensor 1|2020-12-23T17:26|{values}".encode("utf-8"))

    @pytest.mark.parametrize("stamp", LAX_STAMPS)
    def test_lax_stamps_rejected(self, stamp):
        with pytest.raises(SerializationError):
            parse_canonical(f"Sensor 1|{stamp}|3".encode("utf-8"))

    def test_zone_aware_time_rejected(self):
        aware = datetime(2020, 12, 23, 17, 26, tzinfo=timezone.utc)
        with pytest.raises(SerializationError):
            MeasurementVector("Sensor 1", aware, (1,))


class TestVectorRef:
    @given(MINUTES)
    def test_round_trip(self, t):
        d = digest(b"vector")
        assert parse_vector_ref(format_vector_ref(d, t)) == (d, t)

    @given(STAMPS)
    @example("2020-1-3T1:2")
    @example("٢٠٢٠-12-23T17:26")
    @example("2020-12-23T17:26:00")
    @example("2020-12-23 17:26")
    @example("20201223T1726")
    @example("2020-12-23T17:26Z")
    @example("2020-12-23T17:26+00:00")
    def test_parses_only_what_format_writes(self, stamp):
        body = f"{digest(b'vector').hex}|{stamp}".encode("utf-8")
        try:
            parsed = parse_vector_ref(body)
        except ValueError:
            return
        assert format_vector_ref(*parsed) == body

    @pytest.mark.parametrize("stamp", LAX_STAMPS)
    def test_lax_stamps_rejected(self, stamp):
        with pytest.raises(ValueError):
            parse_vector_ref(f"{digest(b'vector').hex}|{stamp}".encode("utf-8"))
