"""Incidence transforms between two quotients of the same Weyl group.

A context fixes the group and two marked sets P and Q.  Sweeping a Schubert
variety of G/Q with the fibers of the double fibration through G/P_{P union Q}
yields a Schubert variety of G/P; combinatorially, the coset W_Q u (minimal
representative u) goes to the W_P-coset of its maximal representative
w0_Q * u, where w0_Q is the longest element of the subgroup W_Q generated by
the nodes outside Q.  On fingerprint vectors that is

    target fingerprint = u^{-1} ( w0_Q ( lambda_I(P) ) )

which is looked up in the target poset.  lambda_P is dominant, so
w0_Q(lambda_P) is the one weight of its W_Q-orbit with no positive coordinate
outside Q; and u = u' s_i for u's BFS parent u', so u's target fingerprint is
s_i of u''s.  The sweep replays those fingerprints along G/Q's parent links,
two dimensions at a time, and G/P's own fingerprints the same way.  The side
with fewer classes (G/P on a tie) is held in a dict by fingerprint while the
other streams past it, so a sweep holds only the smaller side's fingerprints
and neither poset keeps any; a swept fingerprint that is no G/P coset is an
InternalError.  The dimension shift

    d_tau = dim G/P_{P union Q} - dim G/Q

is an upper bound for the dimension gain; the transform of a single class is
injective (fiber sweep generically finite) exactly when dim T(S) = dim S +
d_tau, which is what injectivity_check tests.

A context's two posets come from build_quotient_poset, so they are the same
shared objects every other caller gets for those quotients; make_context
checks both class counts before it builds either.  It sweeps every G/Q class
once into ``targets`` (by G/Q index, the G/P node) and its inverse
``sources`` (by G/P index, the tuple of G/Q nodes); the context is immutable
after that and ``transform`` is a lookup.  Like the posets, each context is
built once per (datum, P, Q), keyed by its two shared posets, and kept for
the life of the process.
"""

from __future__ import annotations

from functools import lru_cache

from . import weyl
from .closed_forms import InternalError, quotient_dimension
from .frozen import Frozen
from .poset import QuotientPoset, SchubertNode, build_quotient_poset, quotient_size
from .weyl import CartanDatum
from .witness import Witness


def transform_shift(datum: CartanDatum, p_marked, q_marked) -> int:
    both = frozenset(p_marked) | frozenset(q_marked)
    return quotient_dimension(datum, both) - quotient_dimension(datum, q_marked)


class TitsContext(Frozen):
    """One sweep G/Q -> G/P; make_context builds each context once per process.

    ``targets[k]`` is the sweep of the G/Q class of index k, a G/P class,
    and ``sources[k]`` the tuple of G/Q classes sweeping onto the G/P class
    of index k.
    """

    __slots__ = ("datum", "p_poset", "q_poset", "d_tau", "targets", "sources")

    def label(self) -> str:
        p = ",".join(map(str, sorted(self.p_poset.marked)))
        q = ",".join(map(str, sorted(self.q_poset.marked)))
        return f"{self.p_poset.type_label()}(P={{{p}}},Q={{{q}}})"


def make_context(datum: CartanDatum, p_marked, q_marked) -> TitsContext:
    """The sweep context of (datum, P, Q), built on first request and shared after."""
    for marked in (p_marked, q_marked):  # refuse an oversized side before building either
        quotient_size(datum, marked)
    return _context(build_quotient_poset(datum, p_marked), build_quotient_poset(datum, q_marked))


@lru_cache(maxsize=None)
def _context(p_poset: QuotientPoset, q_poset: QuotientPoset) -> TitsContext:
    """Sweep every G/Q class once; keyed by the two shared posets."""
    datum = p_poset.datum
    unmarked = [i for i in range(1, datum.rank + 1) if i not in q_poset.marked]
    low = lam = weyl.marked_weight(datum, p_poset.marked)
    while (i := next((g for g in unmarked if low[g - 1] > 0), None)) is not None:
        low = weyl.reflect(datum, i, low)
    step = lambda fp, i: weyl.reflect(datum, i, fp)
    swept, own = q_poset.replay(low, step), p_poset.replay(lam, step)
    if len(p_poset.nodes) <= len(q_poset.nodes):  # hold G/P's fingerprints, stream G/Q's
        by_fp = {fp: n for n, fp in own}
        targets = [by_fp.get(fp) for _, fp in swept]
    else:  # hold G/Q's swept fingerprints, stream G/P's
        pending = {}
        for node, fp in swept:
            pending.setdefault(fp, []).append(node.index)
        targets = [None] * len(q_poset.nodes)
        for n, fp in own:
            for k in pending.pop(fp, ()):
                targets[k] = n
    if None in targets:
        node = q_poset.nodes[targets.index(None)]
        label = f"{p_poset.type_label()}/P{sorted(p_poset.marked)}"
        raise InternalError(f"{node.id} sweeps to no coset of {label}")
    sources = [[] for _ in p_poset.nodes]
    for node, target in zip(q_poset.nodes, targets):
        sources[target.index].append(node)
    return TitsContext(
        datum,
        p_poset,
        q_poset,
        transform_shift(datum, p_poset.marked, q_poset.marked),
        tuple(targets),
        tuple(map(tuple, sources)),
    )


def transform(ctx: TitsContext, node: SchubertNode) -> SchubertNode:
    """The G/P class swept out by a G/Q Schubert class."""
    return ctx.targets[node.index]


def injectivity_check(ctx: TitsContext, node: SchubertNode) -> bool:
    return transform(ctx, node).dim == node.dim + ctx.d_tau


def transform_rows(ctx: TitsContext) -> list[dict]:
    rows = []
    for node in ctx.q_poset.nodes:
        dst = transform(ctx, node)
        rows.append(
            {
                "src": {"id": node.id, "dim": node.dim, "deg": node.degree},
                "dst": {"id": dst.id, "dim": dst.dim, "deg": dst.degree},
                "injective": injectivity_check(ctx, node),
            }
        )
    return rows


def context_json_dict(ctx: TitsContext) -> dict:
    return {
        "context": {
            "type": ctx.p_poset.type_label(),
            "P": sorted(ctx.p_poset.marked),
            "Q": sorted(ctx.q_poset.marked),
            "d_tau": ctx.d_tau,
        },
        "rows": transform_rows(ctx),
    }


def tits_flexibility_witness(ctx: TitsContext, p_node: SchubertNode, q_oracle) -> Witness | None:
    """Certify a G/P class as the sweep transform of a movable G/Q class.

    ``q_oracle(src)`` must return the covers of ``src`` that contain a moved
    irreducible representative of ``m [src]`` through one of their general
    points (an empty iterable means the oracle does not vouch for ``src``).
    If the transform of such a home cover is dimension-faithful, sweeping the
    representative by the incidence fibers produces an irreducible
    representative of ``m [transform(src)]``.  Injectivity of the transform
    at the home cover, not at an arbitrary cover of ``src``, is the load-
    bearing hypothesis: a source whose only movable representatives live in a
    collapsing cover certifies nothing, even when a sibling cover transforms
    faithfully.
    """
    for src in ctx.sources[p_node.index]:
        for home in q_oracle(src):
            if home in ctx.q_poset.upper_covers(src) and injectivity_check(ctx, home):
                return Witness(
                    "Tits",
                    {
                        "node": p_node.id,
                        "context": ctx.label(),
                        "source": src.id,
                        "home": home.id,
                        "d_tau": ctx.d_tau,
                        "representative": (
                            "sweep of an irreducible representative of the source "
                            "class by the incidence fibers"
                        ),
                    },
                )
    return None
