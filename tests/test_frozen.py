"""Record semantics, checked once for every Frozen subclass in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from schubflex import weyl
from schubflex.classical import GrIndex, QuadricIndex
from schubflex.cli import Command
from schubflex.frozen import Frozen
from schubflex.golden import GoldenRow, TransformRow, load_golden_poset
from schubflex.isotropic import IsotropicIndex
from schubflex.poset import SchubertNode, quotient
from schubflex.rigidity import Verdict
from schubflex.specs import cmd_degree
from schubflex.tits import TitsContext, make_context
from schubflex.certify import Certificates
from schubflex.witness import Witness

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schubflex"


def _context_fields():
    ctx = make_context(weyl.build_cartan("A", 2), {1}, {2})
    return tuple(getattr(ctx, name) for name in TitsContext.__slots__)


def _certificates_fields():
    poset = quotient("e6")
    witness = Witness("Linear", {"node": poset.nodes[1].id})
    return (poset, load_golden_poset("e6"), ((), (witness,)), ())


# constructor arguments of one record per class
FIELDS = {
    weyl.CartanDatum: lambda: ("A", 2, (((1, -1),), ((0, -1),))),
    SchubertNode: lambda: (1, 1, 0, 1, 1, 3),
    GrIndex: lambda: (2, 4, (1, 3)),
    IsotropicIndex: lambda: ("og", 5, (2, 3)),
    QuadricIndex: lambda: (6, "linear", 2),
    Verdict: lambda: ("Flexible", ("blocks 1/2 differ by 1",)),
    GoldenRow: lambda: ("n001", 1, 1, "plus", ""),
    TransformRow: lambda: ("1:1", False, "14:110", True),
    TitsContext: _context_fields,
    Witness: lambda: ("Linear", {"node": "n001", "cover": "n002"}),
    Certificates: _certificates_fields,
    Command: lambda: (cmd_degree, "degree", (("SPEC", str, None, "a class"),), {}),
}

# records holding a dict field: equal by value, unhashable
UNHASHABLE = (Witness, Certificates, Command)
# records that are their own identity: a class is its node
IDENTITY = (SchubertNode,)


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
    if cls in IDENTITY:
        assert a == a and a != b and hash(a) == object.__hash__(a)
    elif cls in UNHASHABLE:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
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
    # one too many: QuadricIndex(n, kind) is valid through its j=None default
    with pytest.raises(TypeError):
        cls(*args, None)


def test_only_the_three_index_records_check_their_arguments():
    custom = {cls.__name__ for cls in _package_records() if "__init__" in cls.__dict__}
    assert custom == {"GrIndex", "IsotropicIndex", "QuadricIndex"}


def test_fields_are_stored_only_by_frozen():
    # Frozen.__init__ writes each field through its slot descriptor; no other
    # module imports a field writer from frozen or writes past
    # Frozen.__setattr__.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "frozen.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == "frozen" and any(
                    alias.name != "Frozen" for alias in node.names
                ):
                    found.append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"fields stored outside frozen.py: {found}"
