"""Guard: every protocol message is a ``__slots__`` dataclass.

The simulation allocates one message object per protocol step, so a slotless
dataclass (whose instances carry a ``__dict__``) is a hot-path regression.
A future field added without ``slots=True`` would silently reintroduce the
per-instance dict — this test catches that.  Every message, ``Version`` and
``ReadResult`` must also come from the one record factory, so that a record
declared with a bare ``@dataclass(frozen=True, slots=True)`` (immutable, but
paying ``object.__setattr__`` per field) fails here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.consistency.events import CommitEvent, ReadEvent
from repro.core import messages
from repro.core.client import ReadResult, TransactionHandle
from repro.record import is_record
from repro.sim.network import Envelope
from repro.storage.version import Version
from repro.workload.generator import TransactionSpec


def message_classes():
    return [
        obj
        for _, obj in inspect.getmembers(messages, inspect.isclass)
        if obj.__module__ == messages.__name__
    ]


def test_module_defines_messages():
    assert len(message_classes()) >= 15


@pytest.mark.parametrize("cls", message_classes(), ids=lambda c: c.__name__)
def test_message_is_slotted_dataclass(cls):
    assert dataclasses.is_dataclass(cls), f"{cls.__name__} is not a dataclass"
    assert "__slots__" in vars(cls), f"{cls.__name__} does not define __slots__"


@pytest.mark.parametrize("cls", message_classes(), ids=lambda c: c.__name__)
def test_message_instances_have_no_dict(cls):
    fields = dataclasses.fields(cls)
    placeholder = {
        "str": "k",
        "int": 0,
        "float": 0.0,
    }
    kwargs = {}
    for f in fields:
        # Field types are string annotations; a crude map suffices to build
        # one instance of each message.
        kwargs[f.name] = placeholder.get(f.type, ())
    instance = cls(**kwargs)
    assert not hasattr(instance, "__dict__"), f"{cls.__name__} instances carry a __dict__"


@pytest.mark.parametrize("cls", [Envelope, Version], ids=lambda c: c.__name__)
def test_fabric_dataclasses_are_slotted(cls):
    assert "__slots__" in vars(cls)


@pytest.mark.parametrize(
    "cls",
    message_classes()
    + [Version, ReadResult, TransactionHandle, TransactionSpec, ReadEvent, CommitEvent],
    ids=lambda c: c.__name__,
)
def test_built_by_the_record_factory(cls):
    assert is_record(cls), f"{cls.__name__} is not built by repro.record.record"
