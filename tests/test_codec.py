"""The strict ISO-minute and record codec: every parser accepts exactly the
bytes its writer produces, so one value has one spelling."""

from datetime import datetime, timezone

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from histchain.config import MINUTE_FMT, ConfigError, fmt_minute, parse_minute
from histchain.envelope import (
    MeasurementVector,
    SerializationError,
    canonical_serialize,
    digest,
    parse_canonical,
)
from histchain.ledger import format_vector_ref, parse_vector_ref
from histchain.storage import Historian

NAIVE = st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59))
MINUTES = NAIVE.map(lambda t: t.replace(second=0, microsecond=0))
NAMES = st.text(min_size=1, max_size=12).filter(
    lambda name: "|" not in name and name.splitlines() == [name])
# Every boundary str.splitlines() splits on; none may sit in a sensor name.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
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

    @given(st.text(min_size=1, max_size=12))
    @example("Sensor\n1")
    @example("Sensor\r1")
    @example("Sensor\r\n1")
    @example("Sensor\v1")
    @example("Sensor\f1")
    @example("Sensor\x1c1")
    @example("Sensor\x1d1")
    @example("Sensor\x1e1")
    @example("Sensor\x851")
    @example("Sensor\u20281")
    @example("Sensor\u20291")
    @example("Sensor 1\n")
    def test_accepted_name_survives_a_historian_dump(self, name):
        """A name either is refused or comes back from the one-line-per-record dump."""
        try:
            vector = MeasurementVector(name, datetime(2020, 12, 23, 17, 26), (1,))
        except SerializationError:
            return
        historian = Historian(1)
        historian.put_new(vector)
        assert Historian.load(1, historian.dump()).records() == [vector]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    def test_line_break_in_name_rejected(self, brk):
        with pytest.raises(SerializationError):
            MeasurementVector(f"Sensor{brk}1", datetime(2020, 12, 23, 17, 26), (1,))
        with pytest.raises(SerializationError):
            parse_canonical(f"Sensor{brk}1|2020-12-23T17:26|1".encode("utf-8"))

    def test_int_subclass_values_written_in_plain_decimal(self):
        vector = MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 26), (True, 2))
        assert vector.canonical == b"Sensor 1|2020-12-23T17:26|1,2"
        assert parse_canonical(vector.canonical) == vector

    def test_zone_aware_time_rejected(self):
        aware = datetime(2020, 12, 23, 17, 26, tzinfo=timezone.utc)
        with pytest.raises(SerializationError):
            MeasurementVector("Sensor 1", aware, (1,))


def reference_parse(data: bytes) -> MeasurementVector:
    """The record parser as it was before the full-line match: split the
    fields, read them leniently, build the vector through its checking
    constructor and accept only if it writes back the very same bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"not utf-8: {exc}") from None
    parts = text.split("|")
    if len(parts) != 3:
        raise SerializationError(f"expected 3 fields, got {len(parts)}")
    name, stamp, values_text = parts
    try:
        captured_at = datetime.fromisoformat(stamp)
    except ValueError as exc:
        raise SerializationError(f"bad timestamp {stamp!r}: {exc}") from None
    try:
        values = tuple(map(int, values_text.split(",")))
    except ValueError as exc:
        raise SerializationError(f"bad values {values_text!r}: {exc}") from None
    vector = MeasurementVector(name, captured_at, values)
    if vector.canonical != data:
        raise SerializationError(f"not in canonical form: {text!r}")
    return vector


def parse_or_none(parse, data: bytes) -> MeasurementVector | None:
    try:
        return parse(data)
    except SerializationError:
        return None


def assert_parses_like_reference(data: bytes):
    """parse_canonical accepts exactly what reference_parse accepts, and
    returns an equal record with the same key, bytes and exact int values."""
    parsed, expected = parse_or_none(parse_canonical, data), parse_or_none(reference_parse, data)
    assert (parsed is None) == (expected is None), data
    if parsed is not None:
        assert parsed == expected
        assert parsed.key == expected.key
        assert parsed.canonical == expected.canonical == data
        assert all(type(value) is int for value in parsed.values)


# What an edit of a canonical line puts in: a field separator, a character
# int() or fromisoformat might read, or a line break, each a third of the time.
EDIT_CHARS = st.one_of(
    st.sampled_from([*"|,-:T", " "]),
    st.sampled_from(["0", "1", "٢", "²", "+", "_"]),
    st.sampled_from(LINE_BREAKS),
)


@st.composite
def edited_records(draw) -> str:
    """A canonical line with one character replaced, inserted or deleted in
    one of its three fields."""
    fields = draw(VECTORS).canonical.decode("utf-8").split("|")
    i = draw(st.integers(min_value=0, max_value=2))
    text = fields[i]
    pos = draw(st.integers(min_value=0, max_value=len(text)))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        fields[i] = text[:pos] + text[pos + 1:]
    else:
        fields[i] = text[:pos] + draw(EDIT_CHARS) + text[pos + (edit == "replace"):]
    return "|".join(fields)


class TestAgainstReferenceParser:
    """Differential test of parse_canonical against reference_parse."""

    @settings(deadline=None, max_examples=1000)
    @given(edited_records())
    def test_edited_canonical_line(self, text):
        assert_parses_like_reference(text.encode("utf-8"))

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(RECORD_TEXTS, st.text()))
    @example("Sensor 1|0999-12-23T17:26|3")
    @example("Sensor 1|0000-12-23T17:26|3")
    @example("Sensor 1|2020-12-23T24:00|3")
    @example("Sensor 1|2021-02-29T17:26|3")
    @example("Sensor 1|2020-02-29T17:26|3")
    @example("Sensor 1|٢٠٢٠-12-23T17:26|3")
    @example("Sensor 1|2020-12-23T17:٢٦|3")
    @example("Sensor 1|2020-12-23T17:26|" + "1" * 4300)
    @example("Sensor 1|2020-12-23T17:26|" + "1" * 4301)
    @example("Sensor 1|2020-12-23T17:26|3,")
    @example("|2020-12-23T17:26|3")
    @example("Sensor\u20281|2020-12-23T17:26|3")
    @example("Sensor\x1c1|2020-12-23T17:26|3")
    @example("Sensor|1|2020-12-23T17:26|3")
    def test_text(self, text):
        assert_parses_like_reference(text.encode("utf-8", "surrogatepass"))

    @settings(deadline=None, max_examples=200)
    @given(st.binary(max_size=60))
    @example(b"\xed\xa0\x80|2020-12-23T17:26|3")
    @example(b"Sensor 1|2020-12-23T17:26|3\n")
    @example(b"Sensor \xc2\x85|2020-12-23T17:26|3")
    def test_bytes(self, data):
        assert_parses_like_reference(data)


class TestHistorianDump:
    """Historian.load reads `\n`-terminated canonical lines and nothing else."""

    @given(st.lists(st.one_of(
        st.sampled_from(["Sensor 1|2020-12-23T17:26|1", "Sensor 2|2020-12-23T17:26|2"]),
        st.sampled_from(["\n", " "] + LINE_BREAKS),
        RECORD_TEXTS), max_size=8).map("".join))
    @example("Sensor 1|2020-12-23T17:26|1\r\n\n  \nSensor 2|2020-12-23T17:26|2\x0b")
    @example("Sensor 1|2020-12-23T17:26|1\n\nSensor 2|2020-12-23T17:26|2\n")
    @example("Sensor 1|2020-12-23T17:26|1")
    def test_loads_only_what_dump_writes(self, text):
        malformed: list[int] = []
        historian = Historian.load(1, text, malformed)
        if not malformed:
            assert historian.dump() == text

    @pytest.mark.parametrize("text, bad_lines", [
        ("Sensor 1|2020-12-23T17:26|1\r\nSensor 2|2020-12-23T17:26|2\n", [1]),
        ("Sensor 1|2020-12-23T17:26|1\n\nSensor 2|2020-12-23T17:26|2\n", [2]),
        ("Sensor 1|2020-12-23T17:26|1\n  \nSensor 2|2020-12-23T17:26|2\n", [2]),
        ("Sensor 1|2020-12-23T17:26|1\x0bSensor 2|2020-12-23T17:26|2\n", [1]),
        ("Sensor 1|2020-12-23T17:26|1\nSensor 2|2020-12-23T17:26|2", [2]),
        ("Sensor 1|2020-12-23T17:26|1\r\n\n  \nSensor 2|2020-12-23T17:26|2\x0b",
         [1, 2, 3, 4]),
        ("\ud800|2020-12-23T17:27|1\nSensor 2|2020-12-23T17:26|2\n", [1]),
    ], ids=["crlf", "blank", "whitespace", "vt", "no_final_newline", "all", "lone_surrogate"])
    def test_second_spellings_rejected(self, text, bad_lines):
        with pytest.raises(SerializationError):
            Historian.load(1, text)
        malformed: list[int] = []
        Historian.load(1, text, malformed)
        assert malformed == bad_lines


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
        body = f"{digest(b'vector')}|{stamp}".encode("utf-8")
        try:
            parsed = parse_vector_ref(body)
        except ValueError:
            return
        assert format_vector_ref(*parsed) == body

    @pytest.mark.parametrize("stamp", LAX_STAMPS)
    def test_lax_stamps_rejected(self, stamp):
        with pytest.raises(ValueError):
            parse_vector_ref(f"{digest(b'vector')}|{stamp}".encode("utf-8"))

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
    def test_digest_field_matches_reference_predicate(self, digest_text):
        """The digest of a body is read only as lowercase SHA-256 hex: the
        one check on wire text that becomes a Digest."""
        body = f"{digest_text}|2020-12-23T17:27".encode("utf-8")
        if len(digest_text) == 64 and all(c in "0123456789abcdef" for c in digest_text):
            assert parse_vector_ref(body)[0] == digest_text
        else:
            with pytest.raises(ValueError):
                parse_vector_ref(body)
