"""The base class of the package's immutable records.

A record lists its fields in ``__slots__`` and sets each one once, in its own
``__init__``, through :data:`set_field`.  Two records are equal when they
have the same class and equal fields, and a record hashes its field tuple;
a record that must compare by identity sets ``__eq__`` and ``__hash__`` back
to ``object``'s.
"""

from __future__ import annotations

from operator import attrgetter

#: How a record's ``__init__`` sets a field, past :meth:`Frozen.__setattr__`.
set_field = object.__setattr__


class Frozen:
    """A slots record whose fields cannot be reassigned or deleted after __init__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):  # a subclass adding no field keeps its parent's
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
