"""The base class of the package's immutable records.

A record lists its fields in ``__slots__`` and sets each one once, in its own
``__init__``, through :data:`set_field`; value equality and hashing are
written out per class over an explicit field tuple.
"""

from __future__ import annotations

#: How a record's ``__init__`` sets a field, past :meth:`Frozen.__setattr__`.
set_field = object.__setattr__


class Frozen:
    """A slots record whose fields cannot be reassigned or deleted after __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
