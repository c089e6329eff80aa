"""Record bases: ==, hash and repr over a class's ``_fields``.

A record class lists its fields once, in ``_fields``, and writes its own
straight-line ``__init__``. ``Record`` is mutable and unhashable: a message,
a piece of node state or a run's records. ``Frozen`` refuses every
assignment and deletion after ``__init__``, which stores through
``object.__setattr__``, and hashes the tuple of its fields. Slots that are
not in ``_fields`` stay outside ==, hash and repr: values derived from the
fields (a hash, an encoding), or a report's in-memory ledgers.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
