"""The JSON and DOT exports of a :class:`~schubflex.diagram.QuotientPoset`.

:meth:`QuotientPoset.to_json <schubflex.diagram.QuotientPoset.to_json>` and
``to_dot`` load this module on the first export, so a command that exports
nothing never compiles these writers (see :mod:`~schubflex.cli`).  Both
gather the cover pairs one dimension at a time and write each list through
:func:`schubflex.diagram._write_batches`, a batch of a few KiB at a time.
"""

from __future__ import annotations

from functools import partial

from . import diagram


def _ids(poset, dim: int) -> list[str]:
    """The ids of the classes of dimension ``dim``, in index order.

    Spelled as ``SchubertNode.id`` spells them, without a property call a class.
    """
    return ["n" + str(n.index).zfill(n.width) for n in poset.nodes_by_dim(dim)]


def to_json(poset, out) -> None:
    """Write ``poset`` to ``out`` as json.dumps(..., sort_keys=True, indent=2) writes its schema.

    The document is spelled out and written a batch of items at a time.
    Every key and string is fixed or an ASCII id, so nothing needs escaping.
    Minimal words are replayed in BFS order as the JSON items they spell,
    each its parent's and one letter more, and each is kept only until the
    next dimension is written.
    """

    def nodes():
        spell = lambda items, i: f"{items},\n        {i}" if items else f"\n        {i}"
        for n, items in poset.replay("", spell):
            word = f"[{items}\n      ]" if items else "[]"
            yield (
                f'{{\n      "degree": {"null" if n.degree is None else n.degree},'
                f'\n      "dim": {n.dim},\n      "id": "{n.id}",'
                f'\n      "min_word": {word}\n    }}'
            )

    out.write('{\n  "covers": ')
    groups = poset._covers_by_lower(partial(_ids, poset))
    _write_list(out, (f'[\n      "{lo}",\n      "{hi}"\n    ]' for lo, his in groups for hi in his))
    out.write(',\n  "nodes": ')
    _write_list(out, nodes())
    marked = ",\n    ".join(map(str, sorted(poset.marked)))
    out.write(f',\n  "parabolic": [\n    {marked}\n  ],\n  "type": "{poset.type_label()}"\n}}\n')


def to_dot(poset, out) -> None:
    """Write the Hasse diagram of ``poset`` to ``out`` as Graphviz input, a batch at a time.

    The edges out of one class are one item: they share its name.
    """
    out.write('digraph hasse {\n  rankdir=BT;\n')
    out.write('  node [shape=plaintext, fontname="Helvetica"];\n')
    labels = (n.dim if n.degree is None else f"{n.dim}:{n.degree}" for n in poset.nodes)
    lines = (f'  {n.id} [label="{to}"];\n' for n, to in zip(poset.nodes, labels))
    diagram._write_batches(out, lines)
    edges = poset._covers_by_lower(partial(_ids, poset))
    lines = (f"  {lo} -> " + f";\n  {lo} -> ".join(his) + ";\n" for lo, his in edges if his)
    diagram._write_batches(out, lines)
    out.write("}\n")


def _write_list(out, items) -> None:
    """Write a JSON array of already-written items, as a value of the document, to ``out``.

    ``items`` must not be empty, and the exports' lists never are: a quotient
    has at least two classes, so it has a cover too.
    """
    diagram._write_batches(out, items, ",\n    ", "[\n    ")
    out.write("\n  ]")
