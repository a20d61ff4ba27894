"""The base class of the package's immutable records.

A record declares its fields once, in ``__slots__``, and is built with one
value per field, in that order: :meth:`Frozen.__init__` stores each through
its slot descriptor.  A record that checks its arguments keeps an
``__init__`` that ends in ``super().__init__(...)``.  Two records are equal
when they have the same class and equal fields, and a record hashes its field
tuple; a record that must compare by identity sets ``__eq__`` and
``__hash__`` back to ``object``'s.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """A slots record whose fields cannot be reassigned or deleted after __init__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):  # a subclass adding no field keeps its parent's
            cls._fields = attrgetter(*cls.__slots__)
            # the slot descriptors' setters write past Frozen.__setattr__
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{self.__class__.__name__} takes {len(setters)} fields, got {len(values)}"
            )
        for store, value in zip(setters, values):
            store(self, value)

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
