"""Record semantics, checked once for every Frozen subclass in the package."""

from __future__ import annotations

import pytest

from schubflex import weyl
from schubflex.classical import GrIndex, IsotropicIndex, QuadricIndex
from schubflex.frozen import Frozen
from schubflex.golden import GoldenRow, TransformRow
from schubflex.poset import SchubertNode
from schubflex.rigidity import Verdict
from schubflex.tits import TitsContext, make_context


def _context_fields():
    ctx = make_context(weyl.build_cartan("A", 2), {1}, {2})
    return tuple(getattr(ctx, name) for name in TitsContext.__slots__)


# constructor arguments of one record per class
FIELDS = {
    weyl.CartanDatum: lambda: ("A", 2, (((1, -1),), ((0, -1),))),
    SchubertNode: lambda: ("n001", 1, (1, -1), (1,), 1),
    GrIndex: lambda: (2, 4, (1, 3)),
    IsotropicIndex: lambda: ("og", 5, (2, 3)),
    QuadricIndex: lambda: (6, "linear", 2),
    Verdict: lambda: ("Flexible", ("blocks 1/2 differ by 1",)),
    GoldenRow: lambda: ("n001", 1, 1, "plus", ""),
    TransformRow: lambda: ("1:1", False, "14:110", True),
    TitsContext: _context_fields,
}


def _package_records(cls=Frozen):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("schubflex."):
            yield sub
            yield from _package_records(sub)


@pytest.mark.parametrize(
    "cls", sorted(_package_records(), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_record_semantics(cls):
    args = FIELDS[cls]()
    a, b = cls(*args), cls(*args)
    if cls is TitsContext:  # its sweep maps are unhashable: identity
        assert a == a and a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and hash(a) == hash(b)

    class Other(cls):
        __slots__ = ()

    assert a != Other(*args) and Other(*args) != a
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
