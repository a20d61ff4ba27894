"""The Hasse diagram of a parabolic quotient W_P \\ W: its classes, order and duality.

:func:`schubflex.poset.build_quotient_poset` builds each :class:`QuotientPoset`
and shares it, so a poset is never mutated after construction, apart from
the lookups built on first use.  Facts the methods lean on:

* Quotient Bruhat order is the transitive closure of the covers
  (Bjorner-Brenti, ch. 2), so ``leq`` reads it off the lower covers.  The
  lifting recursion on w^{-1}(rho) vectors, which reads no cover, stays in
  the tests as the oracle of both.
* Right multiplication by w_0 sends fingerprint fp to (-fp[iota(i)])_i, iota
  the opposition involution, so a Poincare dual is one O(rank) lookup.

What a poset holds, and when:

* Built with it, by the BFS of :func:`schubflex.poset._quotient`, which
  passes them in finished: the nodes, in BFS order (so dimension order,
  which makes each dimension one slice of them), where each slice starts,
  and each class's lower covers as a tuple of nodes, by node index.  That
  serves ``lower_covers``, ``lower_interval``, ``leq``, ``nodes_by_dim``, ``top``
  and the exports.  A node holds its index, its BFS parent's and its
  letter, no fingerprint and no id string.  The lower covers are the one
  cover relation: ``upper_covers`` reads them off the next dimension's
  classes.
* Built on first use, then kept: the fingerprints, replayed once in BFS
  order (each the parent's reflected by the letter), with the lookup by
  fingerprint (``fingerprint``, ``poincare_dual``).
  ``hasse`` builds neither, in any format, and a ``tits`` sweep neither (it
  replays the fingerprints it needs, see :mod:`~schubflex.tits`).
* Never held whole: ``covers`` and the exports gather the cover pairs one
  dimension at a time, and the exports write them to a stream a batch of a
  few KiB at a time (:func:`_write_batches`), with the minimal words
  replayed in BFS order as they go.

Inside the package a class is its node, equal only to itself: maps over
every class are tuples by node index, and other maps are keyed by node.  Its
id is formatted when output, golden tables or payloads read it.  This module
is apart from :mod:`~schubflex.poset` so that neither module's compile is
large (see :mod:`~schubflex.cli`).  The JSON and DOT writers behind
``to_json`` and ``to_dot`` live in :mod:`~schubflex.exports`, which loads on
the first export, so only ``hasse --json`` and ``hasse --dot`` compile them;
the batch writer stays here, since the ``tits`` and ``verify`` reports use it
too.  So does :func:`_module`, the package's one cached module loader, since
every command loads this module.
"""

from __future__ import annotations

import importlib
from functools import cached_property, lru_cache

from . import closed_forms, weyl
from .closed_forms import InternalError
from .frozen import Frozen
from .weyl import CartanDatum

# Where a batch of exported items ends (see _write_batches).
BATCH_ITEMS = 256
BATCH_BYTES = 4096


class SchubertNode(Frozen):
    """One Schubert class: a coset of W_P in W.

    ``index`` is its place in its poset's ``nodes``, ``parent`` the index of
    the class the BFS first reached it from (None at the bottom) and
    ``letter`` the simple reflection it took, so the minimal word is the
    parent's plus ``letter`` and the fingerprint is the parent's reflected by
    it.  ``width`` is its poset's id width.  A node equals only itself, so
    classes of two posets, or of two builds of one quotient, never mix.
    """

    __slots__ = ("dim", "index", "parent", "letter", "degree", "width")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def id(self) -> str:
        """``n`` and the index, zero-padded to the poset's id width."""
        return "n" + str(self.index).zfill(self.width)

    def __repr__(self) -> str:
        deg = "?" if self.degree is None else self.degree
        return f"<{self.id} dim={self.dim} deg={deg}>"


class QuotientPoset:
    """Bruhat poset of W_P \\ W for a marked node set, built by build_quotient_poset.

    ``lower[i]`` holds the lower covers of ``nodes[i]`` in index order, and
    ``nodes[starts[d]:starts[d + 1]]`` are the classes of dimension ``d``;
    the constructor stores both as given and checks each class against its
    slice.  Shared between callers, so never mutated after construction,
    apart from the lookups built on first use.
    """

    def __init__(
        self, datum: CartanDatum, marked: frozenset[int], nodes: tuple, lower: tuple, starts: tuple
    ):
        self.datum = datum
        self.marked = marked
        self.nodes = nodes
        self._down = lower
        self._starts = starts
        self.dimension = len(starts) - 2
        if starts[0] != 0 or starts[-1] != len(nodes):
            raise InternalError(
                f"dimension slices span {starts[0]}..{starts[-1]} of {len(nodes)} classes"
            )
        for dim in range(self.dimension + 1):
            for n in self._layer(dim):
                if n.dim != dim:
                    raise InternalError(f"class {n.id} of dim {n.dim} is out of BFS order")

    def replay(self, start, step):
        """Yield (node, value) of every class in BFS order: ``start`` at the bottom, else
        ``step(parent's value, letter)``, holding two dimensions' values at a time.

        Minimal words, fingerprints and swept fingerprints all recur so
        (the lifting property, Bjorner-Brenti, Prop. 2.2.7).
        """
        values, below, dim = {}, {}, 0  # index -> value, at dim and at dim - 1
        for n in self.nodes:
            if n.dim != dim:
                values, below, dim = {}, values, n.dim
            value = values[n.index] = start if n.parent is None else step(below[n.parent], n.letter)
            yield n, value

    @cached_property
    def _fingerprints(self) -> list:
        """Each class's fingerprint, by index."""
        step = lambda fp, i: weyl.reflect(self.datum, i, fp)
        return [fp for _, fp in self.replay(weyl.marked_weight(self.datum, self.marked), step)]

    @cached_property
    def _by_fp(self) -> dict:
        return dict(zip(self._fingerprints, self.nodes))

    def _layer(self, dim: int) -> tuple:
        """The classes of dimension ``dim``, in index order."""
        if not 0 <= dim <= self.dimension:
            return ()
        return self.nodes[self._starts[dim] : self._starts[dim + 1]]

    def _covers_by_lower(self, names):
        """(name of lo, names of its upper covers) of each class lo under the top, by index.

        ``names(dim)`` names the classes of dimension ``dim``, in index order,
        so each class is named once.  Every cover raises the dimension by one,
        so the upper covers are gathered one dimension at a time and never
        held for the whole poset.
        """
        his = names(0)
        for dim in range(self.dimension):
            los, his = his, names(dim + 1)
            base, up = self._starts[dim], [[] for _ in los]
            for hi, named in zip(self._layer(dim + 1), his):
                for lo in self._down[hi.index]:
                    up[lo.index - base].append(named)
            yield from zip(los, up)

    @property
    def covers(self) -> tuple[tuple[SchubertNode, SchubertNode], ...]:
        """(lo, hi) of every cover, sorted: lo in index order, then hi."""
        return tuple((lo, hi) for lo, his in self._covers_by_lower(self._layer) for hi in his)

    # -- lookup -----------------------------------------------------------

    def fingerprint(self, node: SchubertNode) -> tuple[int, ...]:
        """u^{-1}(lambda_P) for the class's minimal representative u."""
        return self._fingerprints[node.index]

    def bottom(self) -> SchubertNode:
        return self.nodes[0]

    def top(self) -> SchubertNode:
        tops = self._layer(self.dimension)
        if len(tops) != 1:
            raise InternalError(f"quotient poset has {len(tops)} maximal classes")
        return tops[0]

    def nodes_by_dim(self, dim: int) -> list[SchubertNode]:
        return list(self._layer(dim))

    # -- order ------------------------------------------------------------

    def leq(self, a: SchubertNode, b: SchubertNode) -> bool:
        """Bruhat comparison of two classes (containment of Schubert varieties).

        The order is the transitive closure of the covers, so ``a <= b`` when
        ``a`` is in ``b``'s lower interval.
        """
        return a in self.lower_interval(b)

    def upper_covers(self, node: SchubertNode) -> tuple[SchubertNode, ...]:
        """The classes of the next dimension whose lower covers hold ``node``, in index order."""
        return tuple(hi for hi in self._layer(node.dim + 1) if node in self._down[hi.index])

    def lower_covers(self, node: SchubertNode) -> tuple[SchubertNode, ...]:
        return self._down[node.index]

    def lower_interval(self, node: SchubertNode) -> list[SchubertNode]:
        """All classes <= node, in index order (includes node itself): its down-closure."""
        below = {node.index}
        stack = [node]
        while stack:
            for lo in self._down[stack.pop().index]:
                if lo.index not in below:
                    below.add(lo.index)
                    stack.append(lo)
        return [self.nodes[k] for k in sorted(below)]

    # -- duality ----------------------------------------------------------

    def poincare_dual(self, node: SchubertNode) -> SchubertNode:
        """The complementary-dimension partner under right multiplication by w_0."""
        fp = self.fingerprint(node)
        image = tuple(-fp[j] for j in closed_forms.opposition(self.datum))
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
        """Write the poset to ``out`` in its JSON schema (:func:`schubflex.exports.to_json`)."""
        _module(".exports").to_json(self, out)

    def to_dot(self, out) -> None:
        """Write the diagram to ``out`` as Graphviz input (:func:`schubflex.exports.to_dot`)."""
        _module(".exports").to_dot(self, out)


@lru_cache(maxsize=None)
def _module(name: str):
    """The module ``name`` (``.x`` for a package module), imported on first use."""
    return importlib.import_module(name, __package__)


def _write_batches(out, items, sep: str = "", lead: str = "") -> None:
    """Write ``lead + sep.join(items)`` to ``out``, one batch of items at a time.

    One write per batch costs less than one per item.  A batch ends at
    :data:`BATCH_ITEMS` items, or at the item that brings it to
    :data:`BATCH_BYTES`, so it stays small even where each item spells out a
    long minimal word.
    """
    batch, size = [], 0
    for item in items:
        batch.append(item)
        size += len(item)
        if size >= BATCH_BYTES or len(batch) == BATCH_ITEMS:
            out.write(lead + sep.join(batch))
            lead, batch, size = sep, [], 0
    if batch:
        out.write(lead + sep.join(batch))
