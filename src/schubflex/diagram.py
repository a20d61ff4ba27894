"""The Hasse diagram of a parabolic quotient W_P \\ W: its classes, order and exports.

:func:`schubflex.poset.build_quotient_poset` builds each :class:`QuotientPoset`
and shares it, so a poset is never mutated after construction, apart from
the lookups built on first use.  Facts the methods lean on:

* Quotient Bruhat order is the restriction of Bruhat order to minimal
  representatives; ``leq`` implements the standard lifting recursion on the
  w^{-1}(rho) vectors it computes from the two minimal words, each read off
  the parent links.
* Right multiplication by w_0 sends fingerprint fp to (-fp[iota(i)])_i, iota
  the opposition involution, so a Poincare dual is one O(rank) lookup.

What a poset holds, and when:

* Built with it: the nodes, in BFS order (so dimension order, which makes
  each dimension one slice of them), where each slice starts, and each
  class's lower covers as a tuple of nodes, keyed by id.  That serves
  ``lower_covers``, ``lower_interval``, ``nodes_by_dim``, ``top`` and the
  exports.
* Built on first use, then kept: the lookups by id (``node``), by
  fingerprint (``node_by_fingerprint``, ``poincare_dual``) and by
  (dimension, degree) (``find_nodes``), and the upper covers
  (``upper_covers``).  ``hasse --json``/``--dot`` build none of them.
* Never held whole: ``covers`` and the exports gather the cover pairs one
  dimension at a time, and the exports write them to a stream a
  batch at a time, with the minimal words rebuilt in BFS order as they go.

Inside the package a class is passed as its node; ids appear only in
output, golden tables and certificate payloads.  This module is apart from
:mod:`~schubflex.poset` so that neither module's compile is large (see
:mod:`~schubflex.cli`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from . import weyl
from .frozen import Frozen
from .weyl import CartanDatum, InternalError


class SchubertNode(Frozen):
    """One Schubert class: a coset of W_P in W.

    ``parent`` is the index of the class the BFS first reached it from (None
    at the bottom) and ``letter`` the simple reflection it took, so the
    minimal word is the parent's plus ``letter``.  The parent is an index, not
    a node: records hash and compare every field.
    """

    __slots__ = ("id", "dim", "fingerprint", "parent", "letter", "degree")

    def __repr__(self) -> str:
        deg = "?" if self.degree is None else self.degree
        return f"<{self.id} dim={self.dim} deg={deg}>"


class QuotientPoset:
    """Bruhat poset of W_P \\ W for a marked node set, built by build_quotient_poset.

    ``down[i]`` lists the indices of the lower covers of ``nodes[i]``; the
    poset takes the lists over and drops each one once its covers are
    stored, so the two copies are never held whole.  Shared between callers,
    so never mutated after construction, apart from the lookups built on
    first use.
    """

    def __init__(self, datum: CartanDatum, marked: frozenset[int], nodes: tuple, down: list):
        self.datum = datum
        self.marked = marked
        self.nodes = nodes
        self._down = {}  # id -> lower covers, in id order
        starts = []  # nodes[starts[d]:starts[d + 1]] are the classes of dimension d
        for k, n in enumerate(nodes):
            # Ids are zero-padded node indices, so index order is id order.
            self._down[n.id] = tuple(map(nodes.__getitem__, sorted(down[k])))
            down[k] = None
            if n.dim == len(starts):
                starts.append(k)
            elif n.dim != len(starts) - 1:
                raise InternalError(f"class {n.id} of dim {n.dim} is out of BFS order")
        self._starts = (*starts, len(nodes))
        self.dimension = len(starts) - 1

    @cached_property
    def _by_id(self) -> dict:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _by_fp(self) -> dict:
        return {n.fingerprint: n for n in self.nodes}

    @cached_property
    def _by_dim_degree(self) -> dict:
        found: dict[tuple, list[SchubertNode]] = {}
        for n in self.nodes:
            found.setdefault((n.dim, n.degree), []).append(n)
        return found

    @cached_property
    def _up(self) -> dict:
        """Id -> upper covers, in id order."""
        up: dict[str, list[SchubertNode]] = {n.id: [] for n in self.nodes}
        for hi in self.nodes:
            for lo in self._down[hi.id]:
                up[lo.id].append(hi)
        return {lo: tuple(his) for lo, his in up.items()}

    def _layer(self, dim: int) -> tuple:
        """The classes of dimension ``dim``, in id order."""
        if not 0 <= dim <= self.dimension:
            return ()
        return self.nodes[self._starts[dim] : self._starts[dim + 1]]

    def _cover_pairs(self):
        """(lo id, hi id) of every cover: lo in id order, then hi.

        Every cover raises the dimension by one, so the upper covers are
        gathered one dimension at a time and never held for the whole poset.
        """
        for dim in range(self.dimension):
            up: dict[str, list[str]] = {n.id: [] for n in self._layer(dim)}
            for hi in self._layer(dim + 1):
                for lo in self._down[hi.id]:
                    up[lo.id].append(hi.id)
            for lo, his in up.items():
                for hi in his:
                    yield lo, hi

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """(lo id, hi id) of every cover, sorted: lo in id order, then hi."""
        return tuple(self._cover_pairs())

    # -- lookup -----------------------------------------------------------

    def node(self, node_id: str) -> SchubertNode:
        return self._by_id[node_id]

    def node_by_fingerprint(self, fp) -> SchubertNode:
        return self._by_fp[tuple(fp)]

    def bottom(self) -> SchubertNode:
        return self.nodes[0]

    def top(self) -> SchubertNode:
        tops = self._layer(self.dimension)
        if len(tops) != 1:
            raise InternalError(f"quotient poset has {len(tops)} maximal classes")
        return tops[0]

    def nodes_by_dim(self, dim: int) -> list[SchubertNode]:
        return list(self._layer(dim))

    def find_nodes(self, dim: int, degree: int) -> list[SchubertNode]:
        return list(self._by_dim_degree.get((dim, degree), ()))

    # -- order ------------------------------------------------------------

    def leq(self, a: SchubertNode, b: SchubertNode) -> bool:
        """Bruhat comparison of two classes (containment of Schubert varieties)."""
        r = weyl.rho(self.datum)
        words = ([], [])  # the minimal words of a and b, last letter first
        for x, word in zip((a, b), words):
            while x.parent is not None:
                word.append(x.letter)
                x = self.nodes[x.parent]
        va, vb = (weyl.act(self.datum, word, r) for word in words)
        while vb != r:
            i = next(k for k in range(self.datum.rank) if vb[k] < 0) + 1
            if va[i - 1] < 0:
                va = weyl.reflect(self.datum, i, va)
            vb = weyl.reflect(self.datum, i, vb)
        return va == r

    def upper_covers(self, node: SchubertNode) -> tuple[SchubertNode, ...]:
        return self._up[node.id]

    def lower_covers(self, node: SchubertNode) -> tuple[SchubertNode, ...]:
        return self._down[node.id]

    def lower_interval(self, node: SchubertNode) -> list[SchubertNode]:
        """All classes <= node, in id order (includes node itself): its down-closure."""
        below = {node.id}
        stack = [node]
        while stack:
            for lo in self._down[stack.pop().id]:
                if lo.id not in below:
                    below.add(lo.id)
                    stack.append(lo)
        return [n for n in self.nodes if n.id in below]

    # -- duality ----------------------------------------------------------

    def poincare_dual(self, node: SchubertNode) -> SchubertNode:
        """The complementary-dimension partner under right multiplication by w_0."""
        fp = node.fingerprint
        image = tuple(-fp[j] for j in weyl.opposition(self.datum))
        dual = self._by_fp.get(image)
        if dual is None:
            raise InternalError(f"dual {image} of {node.id} is not a coset of the quotient")
        if dual.dim != self.dimension - node.dim:
            raise InternalError(f"dual of {node.id} (dim {node.dim}) landed on dim {dual.dim}")
        return dual

    # -- export -----------------------------------------------------------

    def type_label(self) -> str:
        return f"{self.datum.family}{self.datum.rank}"

    def to_json(self, out) -> None:
        """Write the poset to ``out`` as json.dumps(..., sort_keys=True, indent=2) writes its schema.

        The document is spelled out and written a batch of items at a time.
        Every key and string is fixed or an ASCII id, so nothing needs
        escaping.  Minimal words are rebuilt in BFS order, each from its
        parent's, and each is kept only until the next dimension is written.
        """

        def nodes():
            words, below, dim = {}, {}, 0  # index -> word, at dim and at dim - 1
            for k, n in enumerate(self.nodes):
                if n.dim != dim:
                    words, below, dim = {}, words, n.dim
                word = words[k] = () if n.parent is None else below[n.parent] + (n.letter,)
                yield (
                    f'{{\n      "degree": {"null" if n.degree is None else n.degree},'
                    f'\n      "dim": {n.dim},\n      "id": "{n.id}",'
                    f'\n      "min_word": {_json_list(map(str, word), 3)}\n    }}'
                )

        out.write('{\n  "covers": ')
        pairs = (f'[\n      "{lo}",\n      "{hi}"\n    ]' for lo, hi in self._cover_pairs())
        _write_list(out, pairs, 1)
        out.write(',\n  "nodes": ')
        _write_list(out, nodes(), 1)
        out.write(
            f',\n  "parabolic": {_json_list(map(str, sorted(self.marked)), 1)},'
            f'\n  "type": "{self.type_label()}"\n}}\n'
        )

    def to_dot(self, out) -> None:
        """Write the Hasse diagram to ``out`` as Graphviz input, a batch of lines at a time."""
        out.write('digraph hasse {\n  rankdir=BT;\n')
        out.write('  node [shape=plaintext, fontname="Helvetica"];\n')
        labels = (n.dim if n.degree is None else f"{n.dim}:{n.degree}" for n in self.nodes)
        _write_batches(out, (f'  {n.id} [label="{to}"];\n' for n, to in zip(self.nodes, labels)))
        _write_batches(out, (f"  {lo} -> {hi};\n" for lo, hi in self._cover_pairs()))
        out.write("}\n")


def _json_list(items, depth: int) -> str:
    """A JSON array of already-written items, opened at indent level ``depth``."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    return f"[{inner}{body}\n{'  ' * depth}]" if body else "[]"


def _write_list(out, items, depth: int) -> None:
    """Write :func:`_json_list` of ``items``, which must not be empty, to ``out``.

    The exports' lists never are: a quotient has at least two classes, so it
    has a cover too.
    """
    inner = "\n" + "  " * (depth + 1)
    _write_batches(out, items, "," + inner, "[" + inner)
    out.write("\n" + "  " * depth + "]")


def _write_batches(out, items, sep: str = "", lead: str = "") -> None:
    """Write ``lead + sep.join(items)`` to ``out``, one batch of items at a time.

    One write per batch costs less than one per item, and a batch of 256
    stays small even where each item spells out a long minimal word.
    """
    items = iter(items)
    while batch := list(islice(items, 256)):
        out.write(lead + sep.join(batch))
        lead = sep
