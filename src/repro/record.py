"""Sealed records: immutable slotted dataclasses at near-open construction cost.

Messages, item versions and read results are built once per protocol step and
then shared: one ``ReplicateMsg`` is cast to every peer, one ``Version`` sits
in a store and a write cache at once.  Nobody may mutate them after
construction, and the runtime enforces it.  ``dataclass(frozen=True)``
enforces it too, but its ``__init__`` routes every field through
``object.__setattr__``, which made a ``Version`` about five times dearer to
build than a plain slotted class.

:func:`record` keeps the guarantee and drops the price by building *open*,
then sealing:

* the class body becomes an unfrozen slotted dataclass, the private *open*
  base, which owns the slots, ``__eq__``/``__hash__``/``__repr__`` and any
  methods;
* the public class is a ``__slots__ = ()`` subclass whose ``__setattr__`` and
  ``__delattr__`` raise :class:`~dataclasses.FrozenInstanceError`;
* its generated ``__new__`` allocates an open instance (``_open()``: the open
  base has no ``__init__``, so that is two C calls), fills the slots with
  plain attribute stores (which the interpreter specialises, because the open
  type defines no ``__setattr__``), and only then switches ``__class__`` to
  the sealed type.

A record stays a dataclass with the same fields, defaults and ``repr``;
``==`` and ``hash`` still compare the class; it constructs positionally or
by keyword, and it pickles as ``(cls, field values)``.  The one thing the
seal does not stop is ``object.__setattr__`` called on purpose.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any, Dict, List, TypeVar

T = TypeVar("T", bound=type)


def _refuse_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: T) -> T:
    """Build ``cls`` as a sealed record (see the module docstring).

    Fields may have plain defaults; ``default_factory``, a field's
    ``init=False`` and ``__post_init__`` are refused, since the generated
    ``__new__`` is the whole construction.
    """
    open_cls = dataclass(slots=True, init=False, unsafe_hash=True)(cls)
    if hasattr(open_cls, "__post_init__"):
        raise TypeError(f"record {cls.__qualname__} cannot have __post_init__")
    namespace: Dict[str, Any] = {"_open": open_cls}
    params: List[str] = []
    names = [field.name for field in fields(open_cls)]
    for field in fields(open_cls):
        if field.default_factory is not MISSING or not field.init:
            raise TypeError(f"record field {cls.__qualname__}.{field.name} needs a plain default")
        if field.default is MISSING:
            params.append(field.name)
        else:
            namespace[f"_default_{field.name}"] = field.default
            params.append(f"{field.name}=_default_{field.name}")
    stores = "".join(f"    self.{name} = {name}\n" for name in names)
    values = "".join(f"self.{name}, " for name in names)
    exec(
        f"def __new__(cls, {', '.join(params)}):\n"
        f"    self = _open()\n{stores}"
        f"    self.__class__ = cls\n"
        f"    return self\n"
        f"def __reduce__(self):\n"
        f"    return (type(self), ({values}))\n",
        namespace,
    )
    for name in ("__new__", "__reduce__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return type(cls.__name__, (open_cls,), {
        "__slots__": (),
        "__new__": namespace["__new__"],
        "__setattr__": _refuse_setattr,
        "__delattr__": _refuse_delattr,
        "__reduce__": namespace["__reduce__"],
        "__doc__": open_cls.__doc__,
        "__module__": open_cls.__module__,
        "__qualname__": open_cls.__qualname__,
    })


def is_record(cls: type) -> bool:
    """Whether ``cls`` was built by :func:`record`."""
    return vars(cls).get("__setattr__") is _refuse_setattr
