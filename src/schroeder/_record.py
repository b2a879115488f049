"""The base of the package's frozen value records.

A record is a class of a few named fields, fixed at construction.  It is
written by hand, not with ``dataclasses``: that module imports ``inspect``
and builds each class's methods with ``exec``, which every command would pay
at start-up.  Not a ``typing.NamedTuple`` either: a record is no tuple, so it
never equals one and cannot be unpacked.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A frozen record whose fields are the slots named in ``_fields``.

    A subclass sets ``__slots__ = _fields = (...)`` and an ``__init__`` with
    its signature and defaults, which passes every field, in order, to
    ``Record.__init__``.  Equality and hash are those of the field tuple,
    between records of one class; the repr is ``Name(field=value, ...)``;
    assignment and deletion raise AttributeError; pickling goes through the
    constructor, so its checks run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
