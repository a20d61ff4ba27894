"""Construction of the Bruhat posets of parabolic quotients W_P \\ W, with degrees where defined.

A quotient is specified by a Cartan datum plus a nonempty set of *marked*
nodes; the parabolic subgroup W_P is generated by the complementary simple
reflections.  Cosets are identified by their fingerprint u^{-1}(lambda), where
lambda is the indicator weight of the marked set -- this is well defined on
cosets because lambda is W_P-invariant.

Facts the construction leans on:

* Walking from the identity coset by right multiplication with s_i increases
  minimal length exactly when fingerprint coordinate i is positive, so a BFS
  from lambda discovers every coset once, at depth equal to the minimal
  representative's length (= the Schubert variety's dimension).  A class
  keeps only its BFS parent's index and the letter from it: its minimal
  word is the parent's plus that letter, and its fingerprint the parent's
  reflected by it, which the poset replays when a lookup needs it.
* Covers need no comparisons (lifting property, Bjorner-Brenti GTM 231,
  Prop. 2.2.7).  If the BFS first reaches u from its parent p by s = s_i,
  then lower_covers(u) = [p] + [ys for y in lower_covers(p) if coordinate i
  of y's fingerprint is positive]: that sign says exactly that y -> ys stays
  in W^P and goes up.  If u covers z and z != p, then lifting forces zs < z
  and zs covered by p; conversely y covered by p with ys > y gives ys <= u
  by lifting.  The BFS computes u's covers, and its degree, as it finds u:
  each ys has dimension dim(u) - 1 and was found while a class of dimension
  dim(u) - 2 was expanded, before p was.  That costs O(#covers * rank).
  The BFS makes one pass per dimension and holds the fingerprints of three
  consecutive dimensions only.  It stores each class's lower covers once,
  as a tuple of nodes in index order, notes where each dimension starts,
  and passes both to :class:`QuotientPoset` finished.
* For quotients by a minuscule maximal parabolic, the projective degree of a
  Schubert variety in the minimal homogeneous embedding equals the number of
  saturated chains from the bottom of its lower order ideal.  Degrees are
  computed exactly there (arbitrary-precision ints) and left as None
  otherwise; intervals of non-minuscule quotients can still be given relative
  chain counts (:func:`~schubflex.witnesses.interval_chain_counts`).

:func:`build_quotient_poset` is the one way to obtain a quotient, and
:func:`quotient_size` checks its class count before anything is built.  It
keeps each poset it builds for the life of the process, so all callers share
one object per quotient, which is therefore immutable (frozen nodes, degrees
fixed at construction).  The poset itself, :class:`QuotientPoset` with its
:class:`SchubertNode` classes, its order and its exports, lives in
:mod:`~schubflex.diagram` and is re-exported here; that module says what a
poset holds, and when.

:data:`QUOTIENTS` is the one family table, from a head to its selector's
form and its quotient; :func:`quotient` serves every caller that names a family.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from . import closed_forms, weyl
from .closed_forms import InternalError
from .diagram import QuotientPoset, SchubertNode
from .weyl import CartanDatum

DEFAULT_SIZE_CAP = 10**6

_index = attrgetter("index")


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
    marked = closed_forms._check_marked(datum, marked)
    generators = [i for i in range(1, datum.rank + 1) if i not in marked]
    count = closed_forms.weyl_order(datum)
    return count // closed_forms.levi_order(datum, generators) if generators else count


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
# so a huge parameter never costs a huge integer.  check_quotient() checks the
# count, and the count times the rank, before any datum.
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
    """A golden file cannot be read, is malformed or disagrees with the live poset."""


def check_quotient(head: str, *params: int, size_cap: int = DEFAULT_SIZE_CAP) -> tuple:
    """The (Cartan family, rank, marked node) of a quotient, refused as quotient() refuses it."""
    family, rank, marked, count = QUOTIENTS[head][1](*params, max(size_cap, 2**64))
    _check_size(count, rank, size_cap)  # spells out counts up to max(size_cap, 2^64)
    return family, rank, marked


def quotient(head: str, *params: int, size_cap: int = DEFAULT_SIZE_CAP) -> QuotientPoset:
    """The shared quotient poset of a family head and its parameters."""
    family, rank, marked = check_quotient(head, *params, size_cap=size_cap)
    return build_quotient_poset(weyl.build_cartan(family, rank), {marked}, size_cap)


@lru_cache(maxsize=None)
def _quotient(datum: CartanDatum, marked: frozenset[int]) -> QuotientPoset:
    """Enumerate the cosets by BFS, with covers and degrees, and assemble the poset."""
    lam = weyl.marked_weight(datum, marked)
    graded = minuscule(datum, marked)
    # Against the formula itself, not _class_count's copy: each enumeration
    # meets a count worked out beside it.  The count also fixes the id width.
    expected = _order_formula(datum, marked)
    width = max(3, len(str(expected - 1)))
    nodes = [SchubertNode(0, 0, None, None, 1 if graded else None, width)]
    lower = [()]  # by node index: the lower covers, in index order
    starts = [0]  # nodes[starts[d]:starts[d + 1]] are the classes of dimension d
    # While dim d is expanded: the fingerprints of dim d - 1 by class, and
    # the classes of dims d and d + 1 by fingerprint.
    below, here = {}, {lam: nodes[0]}
    try:
        # One pass per dimension, in index order.  A child of dim d + 1 found
        # from a class of dim d by letter i lifts that class's covers y with
        # y[i] > 0 to covers ys of dim d, each found, with its degree, on the
        # pass before.  Nothing reaches further than one dimension down or
        # up, so a dimension's fingerprints are dropped two passes after it.
        while here:
            above, dim = {}, len(starts)  # the children's dimension, starting here
            starts.append(len(nodes))
            for fp, node in here.items():
                for i, c in enumerate(fp, 1):
                    if c > 0:
                        child = weyl.reflect(datum, i, fp)
                        if child not in above:
                            los = [node]
                            for y in lower[node.index]:
                                yfp = below[y]
                                if yfp[i - 1] > 0:
                                    los.append(here[weyl.reflect(datum, i, yfp)])
                            los.sort(key=_index)
                            degree = sum(lo.degree for lo in los) if graded else None
                            new = SchubertNode(dim, len(nodes), node.index, i, degree, width)
                            nodes.append(new)
                            lower.append(tuple(los))
                            above[child] = new
            below, here = dict(zip(here.values(), here)), above
    except KeyError as exc:
        raise InternalError(f"fingerprint {exc.args[0]} is not a coset of the quotient") from None

    if len(nodes) != expected:
        raise InternalError(f"enumerated {len(nodes)} cosets, order formula says {expected}")
    nodes = tuple(nodes)  # the list goes before the covers are copied, lowering the peak
    return QuotientPoset(datum, marked, nodes, tuple(lower), tuple(starts))
