"""The record contract: messages, versions and read results are immutable values.

One message object is cast to many queues and one ``Version`` sits in a store
and a write cache at once, so every record must refuse assignment and
deletion, compare and hash by class and value, build the same object from
positional and keyword arguments, and survive the pickling that carries it
across shard pipes (inside ``Wire`` tuples) with its type, equality and
``metadata_bytes()`` intact.  None of this depends on how a record is built.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.consistency.events import CommitEvent, ReadEvent
from repro.consistency.streaming import RetiredTip
from repro.core import messages
from repro.core.client import ReadResult, TransactionHandle
from repro.sim.trace import TraceRecord
from repro.storage.version import Version
from repro.workload.generator import TransactionSpec

VERSION = Version("p0:k000001", "v", 9, (4, 2), 1, (("p1:k000002", 3),))
GROUP = messages.ReplicatedTx((4, 2), 9, (("p0:k000001", "v"),), 1, 0.25, (3, 4))

#: A sample value per field annotation; anything else gets a distinct tuple.
SAMPLES = {
    "str": "s",
    "DepKey": "p0:k000003",
    "int": 11,
    "Timestamp": 12,
    "Shardstamp": 13,
    "VvEntryId": 2,
    "float": 0.5,
    "bool": True,
    "Snapshot": (5, 6),
    "Deps": (("p1:k000002", 3),),
    "TransactionId": (7, 1),
    "Tuple[int, int]": (8, 1),
    "Versions": (("p0:k000001", VERSION),),
    "Groups": (GROUP,),
    "Optional[Version]": VERSION,
}

RECORDS = [
    cls
    for _, cls in inspect.getmembers(messages, inspect.isclass)
    if cls.__module__ == messages.__name__
] + [
    Version, ReadResult, TransactionHandle, TransactionSpec, ReadEvent, CommitEvent,
    TraceRecord, RetiredTip,
]


def values(cls):
    """One value per field, in declaration order, distinct across fields."""
    return [
        SAMPLES.get(field.type, ("value", index))
        for index, field in enumerate(dataclasses.fields(cls))
    ]


def build(cls):
    return cls(*values(cls))


by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)


def test_records_cover_every_message():
    assert len(RECORDS) >= 30


@by_name
def test_fields_refuse_assignment_and_deletion(cls):
    record = build(cls)
    for field, value in zip(dataclasses.fields(cls), values(cls)):
        with pytest.raises(AttributeError):
            setattr(record, field.name, ("changed",))
        with pytest.raises(AttributeError):
            delattr(record, field.name)
        assert getattr(record, field.name) == value


@by_name
def test_unknown_attributes_are_refused(cls):
    record = build(cls)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.not_a_field = 1


@by_name
def test_equal_records_hash_equal(cls):
    assert build(cls) == build(cls)
    assert hash(build(cls)) == hash(build(cls))
    assert build(cls) != values(cls)


def test_equality_compares_the_class():
    assert messages.HeartbeatMsg(5) != messages.GstBroadcastMsg(5)
    assert messages.DepCheckReq("p0:k000001", 3) != messages.DepCheckResp("p0:k000001", 3)
    assert messages.HeartbeatMsg(5) == messages.HeartbeatMsg(5)
    assert messages.HeartbeatMsg(5) != messages.HeartbeatMsg(6)


@by_name
def test_keyword_and_positional_construction_agree(cls):
    names = [field.name for field in dataclasses.fields(cls)]
    positional = build(cls)
    keyword = cls(**dict(zip(names, values(cls))))
    assert positional == keyword
    assert type(keyword) is cls
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(cls)))
    assert repr(keyword) == f"{cls.__qualname__}({shown})"


@by_name
def test_omitted_fields_take_their_declared_defaults(cls):
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    record = cls(*values(cls)[: len(required)])
    for field in dataclasses.fields(cls)[len(required):]:
        assert getattr(record, field.name) == field.default


@by_name
def test_pickle_round_trip_keeps_type_equality_and_footprint(cls):
    record = build(cls)
    wire = [(0.5, "dc0/p0", "dc1/p0", record)]
    [(_, _, _, copy)] = pickle.loads(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls
    assert copy == record and hash(copy) == hash(record)
    if hasattr(cls, "metadata_bytes"):
        assert copy.metadata_bytes() == record.metadata_bytes()
