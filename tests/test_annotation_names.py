"""Every name an annotation reads is bound at the top level of its module.

With ``from __future__ import annotations`` no annotation is evaluated when
the package runs, so a name the module never binds raises only when a tool
resolves the annotations (``typing.get_type_hints``, a type checker).
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, in ``if`` and ``try`` blocks too.

    Imports, defs, classes and assignment targets count; so do the imports
    of an ``if TYPE_CHECKING:`` block, which type checkers read.
    """
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                stack.extend(block)
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
    return bound


def _annotations(tree: ast.Module):
    """Every annotation expression of a module: of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(annotation: ast.expr):
    """The names an annotation reads; a string annotation is parsed first."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _names_read(ast.parse(node.value, mode="eval").body)


def test_every_name_an_annotation_reads_is_bound_at_module_level():
    found = []
    for path in sorted((SRC / "schubflex").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _module_bindings(tree) | set(dir(builtins))
        for annotation in _annotations(tree):
            found += [
                f"{path.name}:{annotation.lineno} {name}"
                for name in _names_read(annotation)
                if name not in bound
            ]
    assert found == [], f"annotations reading names their module never binds: {found}"
