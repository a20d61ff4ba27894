"""The record every flexibility construction returns.

It is apart from the engines that build it (:mod:`~schubflex.witnesses`,
:mod:`~schubflex.moduli`, :mod:`~schubflex.certify` and
:mod:`~schubflex.tits`), so each of them compiles without the others.
"""

from __future__ import annotations

from .frozen import Frozen


class Witness(Frozen):
    """A named construction; equal witnesses have equal kinds and payloads.

    The payload is a dict, so a witness is unhashable.
    """

    __slots__ = ("kind", "payload")

    def __str__(self) -> str:
        return f"{self.kind}{self.payload}"
