"""Historian against a plain model: every accessor must agree with a dict of
key -> record and the documented grouping rule, order included."""

import dataclasses
from datetime import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from histchain.config import fmt_minute
from histchain.envelope import MeasurementVector
from histchain.storage import DuplicateRecordError, Historian

NAMES = ("Sensor 1", "Sensor 2", "Sensor 3")
TIMES = tuple(datetime(2020, 12, 23, 17, m) for m in (26, 27, 28))
MINUTES = tuple(fmt_minute(t) for t in TIMES) + ("2020-12-23T17:29",)

NAME = st.sampled_from(NAMES)
TIME = st.sampled_from(TIMES)
VALUES = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4).map(tuple)

OPS = st.lists(st.one_of(
    st.tuples(st.just("put_new"), NAME, TIME, VALUES),
    st.tuples(st.just("overwrite"), NAME, TIME, VALUES),
    st.tuples(st.just("delete"), NAME, TIME),
    st.tuples(st.just("tamper"), NAME, TIME, VALUES),
    st.tuples(st.just("reload")),
), max_size=40)


class Model:
    """Independent oracle: a dict of key -> record in arrival order (an
    overwrite keeps the key's place), and the minutes in the order each first
    got a record, a minute being forgotten once `delete` empties it."""

    def __init__(self):
        self.by_key: dict[tuple[str, str], MeasurementVector] = {}
        self.minutes: list[str] = []

    def store(self, record: MeasurementVector):
        self.by_key[record.key] = record
        if record.key[1] not in self.minutes:
            self.minutes.append(record.key[1])

    def delete(self, key: tuple[str, str]):
        self.by_key.pop(key, None)
        if key[1] in self.minutes and not self.at_time(key[1]):
            self.minutes.remove(key[1])

    def at_time(self, minute: str) -> list[MeasurementVector]:
        return [r for r in self.by_key.values() if r.key[1] == minute]

    def records(self) -> list[MeasurementVector]:
        return [r for minute in self.minutes for r in self.at_time(minute)]


def apply(historian: Historian, model: Model, op) -> Historian:
    kind, *args = op
    if kind == "reload":
        return Historian.load(historian.node_id, historian.dump())
    name, time = args[0], args[1]
    key = (name, fmt_minute(time))
    record = MeasurementVector(name, time, args[2]) if len(args) > 2 else None
    present = key in model.by_key
    if kind == "put_new":
        if present:
            with pytest.raises(DuplicateRecordError):
                historian.put_new(record)
        else:
            historian.put_new(record)
            model.store(record)
    elif kind == "overwrite":
        historian.overwrite(record)
        model.store(record)
    elif kind == "delete":
        historian.delete(key)
        model.delete(key)
    elif present:
        assert historian.tamper(key, args[2]) == model.by_key[key]
        model.store(record)
    else:
        with pytest.raises(KeyError):
            historian.tamper(key, args[2])
    return historian


@settings(deadline=None, max_examples=200)
@given(OPS)
def test_at_time_matches_linear_scan_after_every_step(ops):
    historian, model = Historian(1), Model()
    for op in ops:
        historian = apply(historian, model, op)
        assert len(historian) == len(model.by_key)
        assert historian.records() == model.records()
        assert historian.dump() == "".join(r.canonical.decode() + "\n" for r in model.records())
        for minute in MINUTES:
            assert historian.at_time(minute) == model.at_time(minute)
            for name in NAMES:
                assert historian.get((name, minute)) == model.by_key.get((name, minute))


def test_record_is_frozen():
    record = MeasurementVector("Sensor 1", TIMES[0], (2, 5))
    assert record.key == ("Sensor 1", MINUTES[0])
    assert record.canonical == b"Sensor 1|2020-12-23T17:26|2,5"
    for field, value in (("values", (9, 9)), ("sensor_name", "Sensor 9"),
                         ("captured_at", TIMES[1]), ("key", ("Sensor 9", MINUTES[1])),
                         ("canonical", b"Sensor 1|2020-12-23T17:26|9,9")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)


def test_tamper_changes_the_persisted_line():
    historian = Historian(1)
    historian.put_new(MeasurementVector("Sensor 1", TIMES[0], (2, 5)))
    historian.put_new(MeasurementVector("Sensor 2", TIMES[0], (4, 4)))
    old = historian.tamper(("Sensor 1", MINUTES[0]), (2, 6))
    assert old.canonical == b"Sensor 1|2020-12-23T17:26|2,5"
    assert historian.get(("Sensor 1", MINUTES[0])).canonical == b"Sensor 1|2020-12-23T17:26|2,6"
    assert historian.dump() == "Sensor 1|2020-12-23T17:26|2,6\nSensor 2|2020-12-23T17:26|4,4\n"
