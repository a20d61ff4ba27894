"""The certificate pipeline: every witness engine run from scratch on a decorated poset.

:func:`certificates` runs, once per process for each of the two exceptional
posets and each golden directory, the poset engines of
:mod:`~schubflex.witnesses` on every class, the cone gates (the og:5 spinor
quotient under e6, the 27-class poset under e7) and the sweeps of
:mod:`~schubflex.tits` with their oracles, and collects what certifies each
class into one :class:`Certificates` record.  :mod:`~schubflex.verify` holds
the decorations to those certificates, and ``classify`` of an e6/e7 class
prints one row of them, loading this module and not the reports.

Only the og:5 cone gate of e6 runs index arithmetic, so it alone loads
:mod:`~schubflex.isotropic` and :mod:`~schubflex.moduli`, through the cached
:func:`schubflex.diagram._module` as every first-need load in the package.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import _module
from .frozen import Frozen
from .golden import golden_dir as resolve_golden_dir, load_golden_poset, node_token, resolve_token
from .poset import QuotientPoset, SchubertNode, quotient
from .tits import (
    TitsContext,
    injectivity_check,
    make_context,
    tits_flexibility_witness,
    transform,
)
from .witness import Witness
from .witnesses import (
    basic_witness_homes,
    bertini_witness,
    cone_embedding,
    divisor_witness,
    interval_isomorphism,
    linear_space_witness,
)


def _basic_certificates(poset: QuotientPoset) -> list[list[Witness]]:
    certs: list[list[Witness]] = [[] for _ in poset.nodes]
    for node, found in zip(poset.nodes, certs):
        for engine in (linear_space_witness, bertini_witness, divisor_witness):
            w = engine(poset, node)
            if w is not None:
                found.append(w)
    return certs


def _cone_certificates(
    certs: list[list[Witness]],
    problems: list[str],
    ambient: QuotientPoset,
    sub: QuotientPoset,
    apex: SchubertNode,
    base_is_flexible,
    base_name: str,
) -> None:
    phi = cone_embedding(sub, ambient, apex)
    if phi is None:
        problems.append(f"no cone embedding of {base_name} under the apex {apex.id}")
        return
    for s, image in zip(sub.nodes, phi):
        if not base_is_flexible(s):
            continue
        certs[image.index].append(
            Witness(
                "Cone",
                {
                    "node": image.id,
                    "apex": apex.id,
                    "base": s.id,
                    "base_poset": base_name,
                    "representative": (
                        "cone, with the apex vertex, over an irreducible "
                        "representative of the base class"
                    ),
                },
            )
        )


def _tits_certificates(certs: list[list[Witness]], ctx: TitsContext, oracle) -> None:
    for node, found in zip(ctx.p_poset.nodes, certs):
        w = tits_flexibility_witness(ctx, node, oracle)
        if w is not None:
            found.append(w)


def depth2_oracle(rev: TitsContext):
    """Vouch covers transported from a cominuscule quotient one step away.

    For a source class S of the middle quotient, find the cominuscule classes
    x sweeping onto S; each hypersurface-style home x' of x whose own sweep
    is dimension-faithful transports the moved representative into the sweep
    of x', which the top-level engine then requires to be a cover of S with a
    dimension-faithful transform of its own.
    """
    base = rev.q_poset

    def oracle(src):
        homes = []
        for x in rev.sources[src.index]:
            for xp in basic_witness_homes(base, x):
                if injectivity_check(rev, xp):
                    homes.append(transform(rev, xp))
        return homes

    return oracle


def interval_oracle(ctx: TitsContext, psi: tuple, flexible_sub):
    """Vouch interval covers for sources whose counterpart class is movable.

    ``psi[k]`` is the class of the interval inside ctx.q_poset that the
    sub-poset class of index k maps onto; a source in the image is vouched
    when its counterpart is in ``flexible_sub``, and its homes are its covers
    inside the interval (the moved representative lives in the interval
    subvariety, so only those covers contain it).
    """
    interval = set(psi)
    vouched = {psi[s.index] for s in flexible_sub}

    def oracle(src):
        if src not in vouched:
            return []
        return [c for c in ctx.q_poset.upper_covers(src) if c in interval]

    return oracle


class Certificates(Frozen):
    """Every engine's witnesses on one decorated poset; built by certificates().

    ``golden[k]`` is the decoration and ``witnesses[k]`` the tuple of the
    witnesses of the class of index k, and ``problems`` is a tuple of what
    went wrong: every caller in the process shares the record.
    """

    __slots__ = ("poset", "golden", "witnesses", "problems")

    def row(self, node: SchubertNode) -> dict:
        """The verify row of one class: its decoration and what certifies it."""
        witnesses = self.witnesses[node.index]
        return {
            "node": node.id,
            "token": node_token(self.poset, node),
            "dim": node.dim,
            "degree": node.degree,
            "decoration": self.golden[node.index],
            "certificates": sorted({w.kind for w in witnesses}),
            "details": [dict(kind=w.kind, **w.payload) for w in witnesses],
        }


@lru_cache(maxsize=None)
def _e7_interval(e6p6: QuotientPoset):
    """The sweep E7/P1 -> E7/P7, the 27-class copy psi inside E7/P1, and its problems.

    psi maps the 27-class poset, by index, onto the interval below the sweep
    of the E7/P7 bottom class into E7/P1; it is None, with one problem,
    when the interval carries no graded copy.  Both the e7 certificates and
    the transform table read it, so the search runs once per 27-class poset.
    """
    datum = quotient("e7").datum
    ctx71 = make_context(datum, {7}, {1})
    ctx17 = make_context(datum, {1}, {7})
    apex = transform(ctx17, ctx17.q_poset.bottom())
    psi = interval_isomorphism(e6p6, ctx71.q_poset, apex)
    gap = f"no graded copy of the 27-class poset under the interval apex {apex.id}"
    return ctx71, psi, (gap,) if psi is None else ()


def certificates(target: str, golden_dir=None) -> Certificates:
    """Every witness engine's certificates on the e6 or e7 poset, run once per process.

    The golden directory is resolved as :func:`schubflex.golden.golden_dir`
    does, and the record is kept per shared poset and resolved directory, so
    a rebuilt poset or another directory gets a run of its own.
    """
    return _certificates(target, quotient(target), resolve_golden_dir(golden_dir))


@lru_cache(maxsize=None)
def _certificates(target: str, poset: QuotientPoset, directory) -> Certificates:
    # Both targets load the 27-class table: e7's cone and interval gates read it.
    problems: list[str] = []
    e6p6 = quotient("e6")
    golden6 = load_golden_poset("e6", directory)
    golden = golden6 if target == "e6" else load_golden_poset("e7", directory)
    certs = _basic_certificates(poset)
    if target == "e6":
        # loaded here alone: e7 and table1 run no index arithmetic
        isotropic, moduli = _module(".isotropic"), _module(".moduli")
        og5 = quotient("og", 5)
        _cone_certificates(
            certs,
            problems,
            poset,
            og5,
            resolve_token(poset, "11:12"),
            lambda s: moduli.moduli_witness_isotropic(
                isotropic.fingerprint_to_og(5, og5.fingerprint(s))
            ) is not None,
            "the 10-dimensional spinor quotient",
        )
        ctx61 = make_context(poset.datum, {6}, {1})
        _tits_certificates(certs, ctx61, lambda src: basic_witness_homes(ctx61.q_poset, src))
        ctx65 = make_context(poset.datum, {6}, {5})
        _tits_certificates(certs, ctx65, depth2_oracle(make_context(poset.datum, {5}, {6})))
    else:
        flexible6 = {n for n in e6p6.nodes if golden6[n.index] != "rigid"}
        _cone_certificates(
            certs,
            problems,
            poset,
            e6p6,
            resolve_token(poset, "17:78"),
            lambda s: s in flexible6,
            "the 16-dimensional 27-class quotient",
        )
        ctx71, psi, gap = _e7_interval(e6p6)
        problems += gap
        if psi is not None:
            _tits_certificates(certs, ctx71, interval_oracle(ctx71, psi, flexible6))
        ctx76 = make_context(poset.datum, {7}, {6})
        _tits_certificates(certs, ctx76, depth2_oracle(make_context(poset.datum, {6}, {7})))
    return Certificates(poset, golden, tuple(map(tuple, certs)), tuple(problems))
