"""The benchmark tracer's LAYERS name functions and methods that still exist in the package."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> list[tuple[str, str]]:
    """(module, attribute) of each LAYERS entry, read from the tracer's source."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    return [(row.elts[0].value, row.elts[1].value) for row in value.elts]


def test_every_traced_layer_resolves_in_the_package():
    # The tracer rebinds each entry by name when --trace is on; a renamed or
    # moved function would break those runs.  A method must be the class's
    # own, since the tracer wraps vars(cls)[method].
    layers = _layers()
    missing = []
    for module, attr in layers:
        mod = importlib.import_module(f"schubflex.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert layers and missing == [], missing
