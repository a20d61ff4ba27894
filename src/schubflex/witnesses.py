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

Index-based engines: moduli_witness_gr / moduli_witness_isotropic /
quadric_witness implement the explicit flag constructions for the three
classical families, each applicable on a condition read off the index.
cone_embedding finds the graded embedding of a smaller cominuscule poset
under a cone apex, used to transport witnesses into the exceptional posets.
"""

from __future__ import annotations

import importlib
from functools import lru_cache

from .frozen import Frozen
from .poset import QuotientPoset, SchubertNode, interval_chain_counts


@lru_cache(maxsize=None)
def _classical():
    """:mod:`~schubflex.classical`, loaded by the first moduli engine that runs.

    The poset engines and the certificate runs of e7 and table1 need none of it.
    """
    return importlib.import_module(".classical", __package__)


class Witness(Frozen):
    """A named construction; equal witnesses have equal kinds and payloads.

    The payload is a dict, so a witness is unhashable.
    """

    __slots__ = ("kind", "payload")

    def __str__(self) -> str:
        return f"{self.kind}{self.payload}"


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


def _case1_position(idx: GrIndex) -> int | None:
    """1-based u with lambda_{u-1}+1 < lambda_u < lambda_{u+1}-1, if any."""
    lam = (0,) + idx.lam + (idx.n + 1,)
    for u in range(1, idx.k + 1):
        if lam[u - 1] + 1 < lam[u] < lam[u + 1] - 1:
            return u
    return None


def moduli_witness_gr(idx: GrIndex) -> Witness | None:
    """The cone construction at a case-1 position of the index or its annihilator."""
    u = _case1_position(idx)
    if u is not None:
        moved = idx.lam[u - 1]
        return Witness(
            "ModuliGr",
            {
                "index": str(idx),
                "case": 1,
                "position": u,
                "moved_entry": moved,
                "representative": (
                    "replace the rank condition at the moved entry by incidence "
                    "to a cone, vertex two flag steps down, over a degree-m "
                    "plane curve"
                ),
            },
        )
    other = _classical().ann_index(idx)
    u = _case1_position(other)
    if u is None:
        return None
    return Witness(
        "ModuliGr",
        {
            "index": str(idx),
            "case": 2,
            "route": "ann",
            "annihilator": str(other),
            "position": u,
            "moved_entry": other.lam[u - 1],
            "representative": (
                "apply the case-1 cone construction to the annihilator index "
                "and carry it back through the duality of flags"
            ),
        },
    )


def moduli_witness_isotropic(idx: IsotropicIndex) -> Witness | None:
    """Embed in a maximal isotropic space (a), extend by n (b, og) or move the top (c1/c2, lg)."""
    lg = idx.family == "lg"
    n, lam, s = idx.n, idx.lam, len(idx.lam)

    if 1 <= s < n:
        # a maximal isotropic subspace F has dimension n in both families
        embedded = _classical().GrIndex(s, n, lam)
        inner = moduli_witness_gr(embedded)
        if inner is not None:
            payload = {
                "index": str(idx),
                "branch": "a",
                "embedded": str(embedded),
                "inner": inner.payload,
            }
            if not lg:
                payload["spinor_component"] = "same" if s % 2 == n % 2 else "opposite"
            return Witness("ModuliIsotropic", payload)

    if not lg and s >= 1 and lam[-1] == n - 2:
        extended = _classical().GrIndex(s + 1, n, lam + (n,))
        inner = moduli_witness_gr(extended)
        if inner is not None:
            return Witness(
                "ModuliIsotropic",
                {
                    "index": str(idx),
                    "branch": "b",
                    "extended": str(extended),
                    "inner": inner.payload,
                    "spinor_component": "same" if (s + 1) % 2 == n % 2 else "opposite",
                },
            )

    if lg and s >= 1:
        # on lg:1 the index (1) is the point, a single top flag space
        if n >= 2 and lam[-1] == n and _classical().grouped(lam)[-1][1] == 1:
            return Witness(
                "ModuliIsotropic",
                {
                    "index": str(idx),
                    "branch": "c1",
                    "representative": (
                        "move the top flag space through a family of tangent "
                        "hyperplane sections of degree m"
                    ),
                },
            )
        if lam[-1] == n - 1:
            return Witness(
                "ModuliIsotropic",
                {
                    "index": str(idx),
                    "branch": "c2",
                    "representative": (
                        "cone, vertex two steps below the top flag space, over a "
                        "degree-m plane curve inside its symplectic complement"
                    ),
                },
            )
    return None


def quadric_witness(idx: QuadricIndex) -> Witness | None:
    """Linear spaces of dimension >= 1 and proper sections move, maximal families do not."""
    n, j = idx.n, idx.j
    if idx.kind == "linear" and j >= 2:
        if 2 * j <= n:  # a strictly bigger isotropic linear space exists
            return Witness(
                "ModuliQuadric",
                {
                    "index": str(idx),
                    "construction": "hypersurface",
                    "representative": (
                        "smooth degree-m hypersurface inside an isotropic linear "
                        "space one step bigger"
                    ),
                },
            )
        # the top linear space of an odd quadric: 2j = n + 1
        return Witness(
            "ModuliQuadric",
            {
                "index": str(idx),
                "construction": "induction",
                "representative": (
                    "cone over a bidegree-(1,m-1) curve on a quadric surface "
                    "section, extended upward by the induction on dimension"
                ),
            },
        )
    if idx.kind != "colinear" or j < 1:
        return None
    return Witness(
        "ModuliQuadric",
        {
            "index": str(idx),
            "construction": "polar-section",
            "representative": (
                "intersection of the quadric with a general degree-m "
                "hypersurface of the polar space of a smaller linear space"
            ),
        },
    )


def _match_graded(sub_items, amb_items, sub_covers, amb_covers) -> dict | None:
    """Bijection sub->ambient respecting (dim, degree) labels and covers.

    Items are (key, dim, degree) triples; dims must already be aligned.
    Returns the key mapping, or None.  Backtracking over same-label orbits,
    pruning with the already-assigned lower covers.
    """
    if len(sub_items) != len(amb_items):
        return None
    by_label: dict[tuple[int, int], list] = {}
    for key, dim, deg in amb_items:
        by_label.setdefault((dim, deg), []).append(key)
    sub_sorted = sorted(sub_items, key=lambda it: (it[1], str(it[0])))
    down: dict = {}
    for lo, hi in sub_covers:
        down.setdefault(hi, []).append(lo)

    assignment: dict = {}
    used: set = set()
    # Depth-first search with an explicit stack, so a poset of any height
    # needs no recursion: tried[i] counts the candidates of sub_sorted[i]
    # already tried, and i falls back one place when they run out.
    tried = [0] * len(sub_sorted)
    i = 0
    while 0 <= i < len(sub_sorted):
        key, dim, deg = sub_sorted[i]
        if key in assignment:  # back from a dead end: free this place's candidate
            used.remove(assignment.pop(key))
        cands = by_label.get((dim, deg), ())
        j = tried[i]
        while j < len(cands) and (
            cands[j] in used
            or any(
                lo in assignment and (assignment[lo], cands[j]) not in amb_covers
                for lo in down.get(key, ())
            )
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
    # the label/cover-respecting injection must be a full poset isomorphism
    mapped = {(assignment[lo], assignment[hi]) for lo, hi in sub_covers}
    if mapped != set(amb_covers):
        return None
    return dict(assignment)


def _interval(ambient: QuotientPoset, apex: SchubertNode):
    """The lower interval of ``apex`` and its covers, as (lo id, hi id) pairs.

    The interval is down-closed, so its classes' lower covers are its covers.
    """
    interval = ambient.lower_interval(apex)
    return interval, {(lo.id, n.id) for n in interval for lo in ambient.lower_covers(n)}


def interval_isomorphism(sub: QuotientPoset, ambient: QuotientPoset, apex) -> dict | None:
    """Graded isomorphism of ``sub`` onto the lower interval of ``apex``.

    Dimensions must agree on the nose and the interval's relative chain-count
    grading must reproduce the degrees of ``sub`` (the ambient poset need not
    carry absolute degrees of its own).  Returns {sub id: ambient id} or None.
    """
    interval, amb_covers = _interval(ambient, apex)
    if len(interval) != len(sub.nodes):
        return None
    rel = interval_chain_counts(ambient, interval)
    amb_items = [(n.id, n.dim, rel[n.id]) for n in interval]
    sub_items = [(n.id, n.dim, n.degree) for n in sub.nodes]
    return _match_graded(sub_items, amb_items, set(sub.covers), amb_covers)


def cone_embedding(sub: QuotientPoset, ambient: QuotientPoset, apex) -> dict | None:
    """Graded embedding phi of ``sub`` into the lower interval of ``apex``.

    The interval must be exactly {ambient bottom} followed by a copy of
    ``sub`` shifted up one dimension, with degrees preserved (a cone has the
    degree of its base).  Returns {sub node id: ambient node id} or None.
    """
    interval, amb_covers = _interval(ambient, apex)
    if len(interval) != len(sub.nodes) + 1:
        return None
    bottom = ambient.bottom()
    if bottom not in interval:
        return None
    amb_items = [(n.id, n.dim, n.degree) for n in interval if n is not bottom]
    sub_items = [(n.id, n.dim + 1, n.degree) for n in sub.nodes]
    base_edges = {(lo, hi) for lo, hi in amb_covers if lo == bottom.id}
    phi = _match_graded(sub_items, amb_items, set(sub.covers), amb_covers - base_edges)
    if phi is None:
        return None
    if base_edges != {(bottom.id, phi[sub.bottom().id])}:
        return None
    return phi
