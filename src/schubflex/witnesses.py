"""Constructive flexibility witnesses.

Each engine either returns a Witness (a construction of irreducible
representatives for every positive multiple m of the class, described by a
JSON-able payload) or None when the construction does not apply.  Every
engine decides from its own applicability condition alone and never consults
the classifiers in rigidity.py, so the acceptance suite's dichotomy
"multi-rigid or witnessed" compares two independent answers.

Poset-based engines (on a minuscule quotient poset):

* linear_space_witness: a degree-1 class covered by another degree-1 class
  is a non-maximal linear space; m*sigma is a degree-m hypersurface inside
  the covering linear space.
* bertini_witness: a class that is the unique co-atom of a cover with the
  same degree is the hyperplane-section class of that cover; m*sigma is a
  general degree-m hypersurface section, irreducible by Bertini once the
  cover is a surface or bigger.
* divisor_witness: the codimension-1 class generates the Picard lattice;
  m*sigma is a general degree-m divisor.

Embeddings: cone_embedding finds the graded embedding of a smaller
cominuscule poset under a cone apex, used to transport witnesses into the
exceptional posets, and interval_isomorphism a graded copy of one onto a
lower interval, graded by interval_chain_counts.  Both read the lower
interval and the stored lower covers of each side, and no other cover
relation.

The index-based engines of the three classical families are in
:mod:`~schubflex.moduli`, so the certificate runs of e7 and table1 compile
none of them and a classical ``classify`` compiles none of these; their
names still resolve here, loading that module when first read.
"""

from __future__ import annotations

from .diagram import _module
from .poset import QuotientPoset, SchubertNode
from .witness import Witness

# The engines of schubflex.moduli whose names resolve here too, where bench/tracer.py reads them.
_MODULI = ("moduli_witness_gr", "moduli_witness_isotropic", "quadric_witness")


def __getattr__(name: str):
    """An index-based engine of :mod:`~schubflex.moduli`, loaded when it is first read here."""
    if name in _MODULI:
        return getattr(_module(".moduli"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _linear_home(node: SchubertNode, cover: SchubertNode) -> bool:
    """A degree-1 cover of a degree-1 class: a bigger linear space around it."""
    return node.degree == 1 and cover.degree == 1


def _bertini_home(poset: QuotientPoset, node: SchubertNode, cover: SchubertNode) -> bool:
    """An equal-degree cover whose only co-atom is the class: its hyperplane section."""
    return cover.degree == node.degree and len(poset.lower_covers(cover)) == 1


def _covers(poset: QuotientPoset, node: SchubertNode) -> tuple:
    """The upper covers of a positive-dimensional graded class; none for any other."""
    if node.dim < 1 or node.degree is None:
        return ()
    return poset.upper_covers(node)


def linear_space_witness(poset: QuotientPoset, node: SchubertNode) -> Witness | None:
    bigger = [c for c in _covers(poset, node) if _linear_home(node, c)]
    if not bigger:
        return None  # maximal linear space: no ambient linear space to cut in
    return Witness(
        "Linear",
        {
            "node": node.id,
            "ambient": bigger[0].id,
            "representative": "smooth degree-m hypersurface inside the covering linear space",
        },
    )


def bertini_witness(poset: QuotientPoset, node: SchubertNode) -> Witness | None:
    for cover in _covers(poset, node):
        if _bertini_home(poset, node, cover):
            return Witness(
                "Bertini",
                {
                    "node": node.id,
                    "sweep": cover.id,
                    "representative": "general degree-m hypersurface section of the cover",
                },
            )
    return None


def basic_witness_homes(poset: QuotientPoset, node: SchubertNode) -> list:
    """Covers that contain a movable representative of the class below them.

    For a degree-1 class, every degree-1 cover hosts degree-m hypersurface
    representatives; for a unique-co-atom equal-degree cover, Bertini
    sections do the job.  Either way the representative passes through a
    general point of the returned cover, which is exactly what the sweep
    transform needs.
    """
    return [
        c for c in _covers(poset, node)
        if _linear_home(node, c) or _bertini_home(poset, node, c)
    ]


def divisor_witness(poset: QuotientPoset, node: SchubertNode) -> Witness | None:
    if poset.dimension < 2 or node.dim != poset.dimension - 1:
        return None
    return Witness(
        "Divisor",
        {
            "node": node.id,
            "representative": "general degree-m member of the rank-1 divisor lattice",
        },
    )


def _match_graded(sub_items, amb_items, sub_down, amb_down) -> tuple | None:
    """Bijection sub->ambient respecting (dim, degree) labels and covers.

    Items are (node, dim, degree) triples, the sub items in dimension order,
    and ``sub_down(node)`` and ``amb_down(node)`` give a node's lower covers
    among its side's items; dims must already be aligned.  Returns the images
    of the sub items' nodes, in the items' order, or None.  Backtracking over
    same-label orbits: a class's lower covers are placed before it, so each
    candidate must cover their images.
    """
    if len(sub_items) != len(amb_items):
        return None
    by_label: dict[tuple[int, int], list] = {}
    for key, dim, deg in amb_items:
        by_label.setdefault((dim, deg), []).append(key)

    assignment: dict = {}
    used: set = set()
    # Depth-first search with an explicit stack, so a poset of any height
    # needs no recursion: tried[i] counts the candidates of sub_items[i]
    # already tried, and i falls back one place when they run out.
    tried = [0] * len(sub_items)
    i = 0
    while 0 <= i < len(sub_items):
        key, dim, deg = sub_items[i]
        if key in assignment:  # back from a dead end: free this place's candidate
            used.remove(assignment.pop(key))
        cands = by_label.get((dim, deg), ())
        j = tried[i]
        while j < len(cands) and (
            cands[j] in used or any(assignment[lo] not in amb_down(cands[j]) for lo in sub_down(key))
        ):
            j += 1
        if j == len(cands):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = j + 1
        assignment[key] = cands[j]
        used.add(cands[j])
        i += 1
    if i < 0:
        return None
    # A bijection that maps every cover onto a cover is an isomorphism when
    # both sides have as many covers.
    if sum(len(sub_down(key)) for key, _, _ in sub_items) != sum(
        len(amb_down(key)) for key, _, _ in amb_items
    ):
        return None
    return tuple(assignment[key] for key, _, _ in sub_items)


def interval_chain_counts(poset: QuotientPoset, interval: list[SchubertNode]) -> dict:
    """Saturated-chain counts from the bottom, within a lower interval of ``poset``.

    ``interval`` is a class's :meth:`~QuotientPoset.lower_interval`, already
    walked by the caller.  Defined for any quotient; grades intervals of
    quotients whose global chain counts are not projective degrees.
    """
    counts: dict[SchubertNode, int] = {}
    for n in interval:  # down-closed, in BFS (dim) order
        counts[n] = sum(counts[lo] for lo in poset.lower_covers(n)) if n.dim else 1
    return counts


def interval_isomorphism(sub: QuotientPoset, ambient: QuotientPoset, apex) -> tuple | None:
    """Graded isomorphism of ``sub`` onto the lower interval of ``apex``.

    Dimensions must agree on the nose and the interval's relative chain-count
    grading must reproduce the degrees of ``sub`` (the ambient poset need not
    carry absolute degrees of its own).  The interval is down-closed, so its
    classes' lower covers are its covers.  Returns the image of each class of
    ``sub``, by index, or None.
    """
    interval = ambient.lower_interval(apex)
    if len(interval) != len(sub.nodes):
        return None
    rel = interval_chain_counts(ambient, interval)
    amb_items = [(n, n.dim, rel[n]) for n in interval]
    sub_items = [(n, n.dim, n.degree) for n in sub.nodes]
    return _match_graded(sub_items, amb_items, sub.lower_covers, ambient.lower_covers)


def cone_embedding(sub: QuotientPoset, ambient: QuotientPoset, apex) -> tuple | None:
    """Graded embedding phi of ``sub`` into the lower interval of ``apex``.

    The interval must be exactly {ambient bottom} followed by a copy of
    ``sub`` shifted up one dimension, with degrees preserved (a cone has the
    degree of its base), and the bottom's only cover must be phi of the
    bottom of ``sub``.  Returns the image of each class of ``sub``, by
    index, or None.
    """
    interval = ambient.lower_interval(apex)
    if len(interval) != len(sub.nodes) + 1:
        return None
    # The interval's first class is the ambient bottom, and its classes of
    # dimension 1 are the bottom's covers, which the ambient side leaves out.
    amb_items = [(n, n.dim, n.degree) for n in interval[1:]]
    sub_items = [(n, n.dim + 1, n.degree) for n in sub.nodes]
    amb_down = lambda n: ambient.lower_covers(n) if n.dim > 1 else ()
    phi = _match_graded(sub_items, amb_items, sub.lower_covers, amb_down)
    if phi is None or [n for n in interval if n.dim == 1] != [phi[0]]:
        return None
    return phi
