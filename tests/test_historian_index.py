"""Historian minute index: at_time must agree with a linear scan, order included."""

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


def linear_scan(historian: Historian, minute: str) -> list[MeasurementVector]:
    return [r for r in historian.records() if r.key[1] == minute]


def apply(historian: Historian, op) -> Historian:
    kind, *args = op
    if kind == "reload":
        return Historian.load(historian.node_id, historian.dump())
    name, time = args[0], args[1]
    key = (name, fmt_minute(time))
    present = historian.get(key) is not None
    if kind == "put_new":
        if present:
            with pytest.raises(DuplicateRecordError):
                historian.put_new(MeasurementVector(name, time, args[2]))
        else:
            historian.put_new(MeasurementVector(name, time, args[2]))
    elif kind == "overwrite":
        historian.overwrite(MeasurementVector(name, time, args[2]))
    elif kind == "delete":
        historian.delete(key)
    elif present:
        historian.tamper(key, args[2])
    else:
        with pytest.raises(KeyError):
            historian.tamper(key, args[2])
    return historian


@settings(deadline=None, max_examples=200)
@given(OPS)
def test_at_time_matches_linear_scan_after_every_step(ops):
    historian = Historian(1)
    for op in ops:
        historian = apply(historian, op)
        for minute in MINUTES:
            assert historian.at_time(minute) == linear_scan(historian, minute)


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
