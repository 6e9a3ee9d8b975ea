"""Plain value records: the equality, hash and repr that ``@dataclass``
would generate, without importing ``dataclasses`` or building code per class
at import time (both show up in every CLI process's start-up).

A subclass names its fields in ``_fields`` and writes its own ``__init__``;
a frozen one sets each field with ``set_field(self, name, value)``, which
keeps the instance's attributes as fast to read as a dataclass's.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord", "set_field"]

set_field = object.__setattr__


class Record:
    """Equal exactly to another instance of the same class with equal fields
    (never to a tuple or a subclass instance); unhashable, as it is mutable.
    Fields whose name starts with ``_`` are compared but left out of the
    repr."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        shown = [f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_"]
        return f"{type(self).__qualname__}({', '.join(shown)})"


class FrozenRecord(Record):
    """A record whose fields cannot change after ``__init__``; it hashes like
    the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable (cannot delete {name!r})")
