"""Index-based flexibility witnesses for the three classical families.

moduli_witness_gr, moduli_witness_isotropic and quadric_witness implement
the explicit flag constructions for Grassmannian, Lagrangian/orthogonal and
quadric classes, each applicable on a condition read off the index, and
return a :class:`~schubflex.witness.Witness` or None, as the poset engines of
:mod:`~schubflex.witnesses` do.  They decide without the classifiers of
:mod:`~schubflex.rigidity`, and they are apart from the poset engines, so a
classical ``classify`` compiles no poset engine and the e7 certificates and
the transform table compile no index arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .classical import GrIndex, QuadricIndex, ann_index, grouped
from .witness import Witness

if TYPE_CHECKING:  # for annotations only: a gr or quad class loads no isotropic code
    from .isotropic import IsotropicIndex


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
        return Witness(
            "ModuliGr",
            {
                "index": str(idx),
                "case": 1,
                "position": u,
                "moved_entry": idx.lam[u - 1],
                "representative": (
                    "replace the rank condition at the moved entry by incidence "
                    "to a cone, vertex two flag steps down, over a degree-m "
                    "plane curve"
                ),
            },
        )
    other = ann_index(idx)
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
        embedded = GrIndex(s, n, lam)
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
        extended = GrIndex(s + 1, n, lam + (n,))
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
        if n >= 2 and lam[-1] == n and grouped(lam)[-1][1] == 1:
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
