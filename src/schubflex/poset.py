"""Hasse diagrams of parabolic quotients W_P \\ W, with degrees where defined.

A quotient is specified by a Cartan datum plus a nonempty set of *marked*
nodes; the parabolic subgroup W_P is generated by the complementary simple
reflections.  Cosets are identified by their fingerprint u^{-1}(lambda), where
lambda is the indicator weight of the marked set -- this is well defined on
cosets because lambda is W_P-invariant.

Facts the implementation leans on:

* Walking from the identity coset by right multiplication with s_i increases
  minimal length exactly when fingerprint coordinate i is positive, so a BFS
  from lambda discovers every coset once, at depth equal to the minimal
  representative's length (= the Schubert variety's dimension).  A class
  keeps only its BFS parent's index and the letter from it, O(rank) in all
  with its fingerprint: its minimal word is the parent's plus that letter.
* Quotient Bruhat order is the restriction of Bruhat order to minimal
  representatives; ``leq`` implements the standard lifting recursion on the
  w^{-1}(rho) vectors it computes from the two minimal words, each read off
  the parent links.
* Right multiplication by w_0 sends fingerprint fp to (-fp[iota(i)])_i, iota
  the opposition involution, so a Poincare dual is one O(rank) lookup.
* Covers need no comparisons (lifting property, Bjorner-Brenti GTM 231,
  Prop. 2.2.7).  If the BFS first reaches u from its parent p by s = s_i,
  then lower_covers(u) = [p] + [ys for y in lower_covers(p) if coordinate i
  of y's fingerprint is positive]: that sign says exactly that y -> ys stays
  in W^P and goes up.  If u covers z and z != p, then lifting forces zs < z
  and zs covered by p; conversely y covered by p with ys > y gives ys <= u
  by lifting.  The BFS computes u's covers, and its degree, as it finds u:
  each ys has dimension dim(u) - 1 and was found while a class of dimension
  dim(u) - 2 was expanded, before p was.  That costs O(#covers * rank).
* For quotients by a minuscule maximal parabolic, the projective degree of a
  Schubert variety in the minimal homogeneous embedding equals the number of
  saturated chains from the bottom of its lower order ideal.  Degrees are
  computed exactly there (arbitrary-precision ints) and left as None
  otherwise; intervals of non-minuscule quotients can still be given relative
  chain counts via :func:`interval_chain_counts`.

:func:`build_quotient_poset` is the one way to obtain a quotient, and
:func:`quotient_size` checks its class count before anything is built.  It
keeps each poset it builds for the life of the process, so all callers share
one object per quotient, which is therefore immutable (frozen nodes, degrees
fixed at construction).  What a poset holds, and when:

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
output, golden tables and certificate payloads.

:data:`QUOTIENTS` is the one family table, from a head to its selector's
form and its quotient; :func:`quotient` serves every caller that names a family.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice

from . import weyl
from .frozen import Frozen
from .weyl import CartanDatum, InternalError

DEFAULT_SIZE_CAP = 10**6


# Marked nodes (Bourbaki) whose maximal parabolic quotient carries a minuscule
# weight, so chain counts are honest projective degrees.
_MINUSCULE_NODES = {
    "A": lambda r: set(range(1, r + 1)),
    "B": lambda r: {r},
    "C": lambda r: {1},
    "D": lambda r: {1, r - 1, r},
    "E": lambda r: {1, 6} if r == 6 else {7},
}


def minuscule(datum: CartanDatum, marked) -> bool:
    marked = set(marked)
    if len(marked) != 1:
        return False
    (node,) = marked
    return node in _MINUSCULE_NODES[datum.family](datum.rank)


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


def build_quotient_poset(
    datum: CartanDatum, marked, size_cap: int = DEFAULT_SIZE_CAP
) -> QuotientPoset:
    """The Hasse diagram of W_P \\ W, built on first request and shared after.

    Raises ValueError as :func:`quotient_size` does, whether cached or not.
    """
    marked = frozenset(marked)
    quotient_size(datum, marked, size_cap)
    return _quotient(datum, marked)


def quotient_size(datum: CartanDatum, marked, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """The class count of W_P \\ W by the order formula, before anything is built.

    Raises ValueError if the marked set is invalid, or if the quotient would
    exceed ``size_cap`` cosets or store more than :data:`weyl.MAX_COORDINATES`
    fingerprint coordinates.
    """
    count = _class_count(datum, frozenset(marked))
    _check_size(count, datum.rank, size_cap)
    return count


def _order_formula(datum: CartanDatum, marked: frozenset[int]) -> int:
    """|W| / |W_P|; raises ValueError if the marked set is invalid."""
    marked = weyl._check_marked(datum, marked)
    generators = [i for i in range(1, datum.rank + 1) if i not in marked]
    count = weyl.weyl_order(datum)
    return count // weyl.levi_order(datum, generators) if generators else count


# The count quotient_size checks, once per quotient, so a warm lookup does not
# recount the Levi subgroup.
_class_count = lru_cache(maxsize=None)(_order_formula)


def _check_size(count: int | None, rank: int, size_cap: int) -> None:
    """Refuse a class count over the cap or the coordinate bound, in one short line.

    A count above max(size_cap, 2^64), or None (a closed form that stopped
    there), is reported as "more than" that limit instead of being spelled out.
    """
    limit = max(size_cap, 2**64)
    if count is None or count > limit:
        raise ValueError(f"quotient would have more than {limit} cosets, above the cap of {size_cap}")
    if count > size_cap:
        raise ValueError(f"quotient would have {count} cosets, above the cap of {size_cap}")
    if count * rank > weyl.MAX_COORDINATES:
        raise ValueError(
            f"quotient would store {count} x {rank} fingerprint coordinates, "
            f"above the bound of {weyl.MAX_COORDINATES}"
        )


def _comb(n: int, k: int, limit: int) -> int | None:
    """comb(n, k), or None once its running product comb(n - m + i, i) passes limit."""
    m, count = min(k, n - k), 1
    for i in range(1, m + 1):
        count = count * (n - m + i) // i
        if count > limit:
            return None
    return count


def quadric_poset_family(n: int) -> tuple[str, int]:
    """The (family, rank) whose node-1 quotient is Q^n; undefined for n = 2."""
    if n == 2:
        raise ValueError("Q^2 is not a single-marked-node quotient of B/D type here")
    if n == 1:
        return ("A", 1)  # the conic is a line in disguise
    if n % 2:
        return ("B", (n + 1) // 2)
    return ("D", (n + 2) // 2)


# Family head -> (the selector's written form, layout).  The layout gives the
# (Cartan family, rank, marked node, closed-form class count) of the quotient
# from the selector's integer parameters and a limit: a count above it is None,
# so a huge parameter never costs a huge integer.  quotient() checks the count,
# and the count times the rank, before any datum.
QUOTIENTS = {
    "gr": ("gr:k,n", lambda k, n, limit: ("A", n - 1, k, _comb(n, k, limit))),
    "lg": ("lg:n", lambda n, limit: ("C", n, n, 2**n if n < limit.bit_length() else None)),
    "og": ("og:n", lambda n, limit: ("D", n, n, 2 ** (n - 1) if n <= limit.bit_length() else None)),
    "quad": ("quad:n", lambda n, limit: (*quadric_poset_family(n), 1, n + 2 - n % 2)),
    "e6": ("e6", lambda limit: ("E", 6, 6, 27)),
    "e7": ("e7", lambda limit: ("E", 7, 7, 56)),
}

#: The heads whose classes carry golden decorations -> golden file stem.  It
#: and GoldenDataError live here, not in golden, so the spec parser and the
#: CLI's error handling need not load the golden tables.
GOLDEN_POSETS = {"e6": "e6_p6", "e7": "e7_p7"}


class GoldenDataError(Exception):
    """A golden file is malformed or disagrees with the live poset."""


def quotient(head: str, *params: int, size_cap: int = DEFAULT_SIZE_CAP) -> QuotientPoset:
    """The shared quotient poset of a family head and its parameters."""
    # Refusals spell out class counts up to max(size_cap, 2^64) (_check_size).
    family, rank, marked, count = QUOTIENTS[head][1](*params, max(size_cap, 2**64))
    _check_size(count, rank, size_cap)
    return build_quotient_poset(weyl.build_cartan(family, rank), {marked}, size_cap)


@lru_cache(maxsize=None)
def _quotient(datum: CartanDatum, marked: frozenset[int]) -> QuotientPoset:
    """Enumerate the cosets by BFS, with covers and degrees, and assemble the poset."""
    lam = tuple(1 if (i + 1) in marked else 0 for i in range(datum.rank))
    graded = minuscule(datum, marked)
    index = {lam: 0}
    # fingerprint, dim, BFS parent's index, letter from the parent, degree
    records = [(lam, 0, None, None, 1 if graded else None)]
    down: list[list[int]] = [[]]
    try:
        # records is its own BFS queue, so classes are expanded in order of
        # dimension.  A child of dim d found from idx by letter i lifts the
        # covers y of idx with y[i] > 0 to covers ys of dim d - 1.  Those were
        # found while classes of dim d - 2 were expanded, all before idx, so
        # each is already indexed and has its degree.
        for idx, (fp, dim, _, _, _) in enumerate(records):
            for i in range(1, datum.rank + 1):
                if fp[i - 1] > 0:
                    child = weyl.reflect(datum, i, fp)
                    if child not in index:
                        los = [idx] + [
                            index[weyl.reflect(datum, i, records[y][0])]
                            for y in down[idx]
                            if records[y][0][i - 1] > 0
                        ]
                        degree = sum(records[lo][4] for lo in los) if graded else None
                        index[child] = len(records)
                        records.append((child, dim + 1, idx, i, degree))
                        down.append(los)
    except KeyError as exc:
        raise InternalError(f"fingerprint {exc.args[0]} is not a coset of the quotient") from None

    # Against the formula itself, not _class_count's copy: each enumeration
    # meets a count worked out beside it.
    expected = _order_formula(datum, marked)
    if len(records) != expected:
        raise InternalError(f"enumerated {len(records)} cosets, order formula says {expected}")
    width = max(3, len(str(len(records) - 1)))
    nodes = tuple(
        SchubertNode(f"n{idx:0{width}d}", dim, fp, parent, letter, degree)
        for idx, (fp, dim, parent, letter, degree) in enumerate(records)
    )
    del records, index  # not held while the poset builds its maps
    return QuotientPoset(datum, marked, nodes, down)


def interval_chain_counts(poset: QuotientPoset, interval: list[SchubertNode]) -> dict[str, int]:
    """Saturated-chain counts from the bottom, within a lower interval of ``poset``.

    ``interval`` is a class's :meth:`~QuotientPoset.lower_interval`, already
    walked by the caller.  Defined for any quotient; used to grade intervals
    of quotients whose global chain counts are not projective degrees.
    """
    counts: dict[str, int] = {}
    for n in interval:  # down-closed, in BFS (dim) order
        counts[n.id] = sum(counts[lo.id] for lo in poset.lower_covers(n)) if n.dim else 1
    return counts
