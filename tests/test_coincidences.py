"""Coincidences between families, as an independent oracle.

Several low-rank family heads are the same variety (Bourbaki, *Lie Groups
and Lie Algebras*, Ch. VI, Plates, for D3 = A3, B2 = C2 and D2 = A1 x A1):

* G(2,4) = Q^4, the Klein quadric: ``gr:2,4`` ~ ``quad:4``;
* OG(4,8)+ = Q^6, by triality: ``og:4`` ~ ``quad:6``;
* OG(3,6)+ = P^3, since D3 = A3: ``og:3`` ~ ``gr:1,4`` ~ ``gr:3,4``;
* P^1: ``og:2`` ~ ``lg:1`` ~ ``quad:1`` ~ ``gr:1,2``;
* LG(2,4) = Q^3, since B2 = C2: ``lg:2`` ~ ``quad:3``;
* OG(n+1,2n+2)+ = OG(n,2n+1), whose Bruhat poset is LG(n,2n)'s, since
  W(B_n) = W(C_n): ``og:n+1`` ~ ``lg:n``;
* G(k,n) = G(n-k,n): ``gr:k,n`` ~ ``gr:n-k,n``.

Multi-rigidity, whether a flexibility construction exists, the degree in a
shared minimal embedding and the Poincare dual are properties of the variety
and its class.  So the classifiers and constructions of two families, written
from different papers, must agree class by class under the identification
(Robles-The's criterion is uniform over cominuscule G/P).  Classes are
matched by a graded poset isomorphism, and each side maps its classes to its
own family's indices: gr by fingerprint, og by its spinor fingerprint, the
quadric by dimension, and lg through the og:n+1 match, which keeps lambda.
"""

from __future__ import annotations

import functools

import pytest

from oracles import fingerprint, fingerprint_to_gr
from schubflex import classical, rigidity, witnesses
from schubflex.classical import GrIndex, IsotropicIndex, QuadricIndex
from schubflex.commands import read_selector
from schubflex.poset import quotient

DIMENSION = {
    GrIndex: classical.gr_dimension,
    IsotropicIndex: classical.isotropic_dimension,
    QuadricIndex: classical.quadric_dimension,
}
DUAL = {
    GrIndex: classical.dual_index,
    IsotropicIndex: classical.isotropic_dual,
    QuadricIndex: classical.quadric_dual,
}
WITNESS = {
    GrIndex: witnesses.moduli_witness_gr,
    IsotropicIndex: witnesses.moduli_witness_isotropic,
    QuadricIndex: witnesses.quadric_witness,
}
POSET_ENGINES = (
    witnesses.linear_space_witness,
    witnesses.bertini_witness,
    witnesses.divisor_witness,
)

GRADED_PAIRS = list(
    dict.fromkeys(
        [
            ("gr:2,4", "quad:4"),
            ("og:4", "quad:6"),
            ("og:3", "gr:1,4"),
            ("gr:1,4", "gr:3,4"),
            ("og:2", "lg:1"),
            ("og:2", "quad:1"),
            ("gr:1,2", "lg:1"),
            ("gr:1,2", "quad:1"),
            *((f"gr:{k},{n}", f"gr:{n - k},{n}") for n in range(2, 10) for k in range(1, n)),
            *((f"og:{n + 1}", f"lg:{n}") for n in range(1, 9)),
        ]
    )
)


@functools.lru_cache(maxsize=None)
def side(selector: str):
    """(poset, {node id: the indices of that class in the family's own terms}).

    A class has one index, except the two maximal families at the middle
    dimension of an even quadric: both are rigid, so either may match.
    """
    head, _, text = selector.partition(":")
    params = read_selector(head, text)
    poset = quotient(head, *params)
    if head == "gr":
        return poset, {n.id: [fingerprint_to_gr(*params, fingerprint(poset, n))] for n in poset.nodes}
    if head == "og":
        (n,) = params
        return poset, {c.id: [classical.fingerprint_to_og(n, fingerprint(poset, c))] for c in poset.nodes}
    if head == "quad":
        by_dim: dict[int, list] = {}
        for idx in classical.quadric_classes(*params):
            by_dim.setdefault(classical.quadric_dimension(idx), []).append(idx)
        return poset, {n.id: by_dim[n.dim] for n in poset.nodes}
    (n,) = params
    og, og_indices = side(f"og:{n + 1}")
    match = witnesses.interval_isomorphism(og, poset, poset.top())
    return poset, {
        image.id: [IsotropicIndex("lg", n, idx.lam) for idx in og_indices[c.id]]
        for c, image in zip(og.nodes, match)
    }


def _degree(node, idx):
    """The class's degree in the minimal embedding: the family's closed form where it has one."""
    if isinstance(idx, GrIndex):
        return classical.gr_degree(idx)
    if isinstance(idx, QuadricIndex) and idx.n > 1:
        return classical.quadric_degree(idx)
    return node.degree  # Q^1's quadric degree counts the conic in P^2, not the line P^1


def _facts(idx):
    return (
        DIMENSION[type(idx)](idx),
        rigidity.classify(idx).rigid,
        WITNESS[type(idx)](idx) is None,
    )


def _engine_kinds(poset, node):
    return [getattr(engine(poset, node), "kind", None) for engine in POSET_ENGINES]


def check_agreement(p_selector: str, q_selector: str, match: dict) -> None:
    """Both sides agree on every matched class, and the match commutes with duality.

    ``match`` maps each class of the first side to its class on the second.
    """
    (P, p_indices), (Q, q_indices) = side(p_selector), side(q_selector)
    assert sorted(q.id for q in match.values()) == sorted(n.id for n in Q.nodes)
    for p in P.nodes:
        q = match[p]
        ips, iqs = p_indices[p.id], q_indices[q.id]
        where = (p_selector, p.id, [str(i) for i in ips], q_selector, [str(i) for i in iqs])
        assert {_facts(idx) for idx in ips + iqs} == {_facts(ips[0])}, where
        assert (p.dim, q.dim) == (_facts(ips[0])[0],) * 2, where
        degrees = {_degree(p, idx) for idx in ips} | {_degree(q, idx) for idx in iqs}
        if None not in degrees:
            assert len(degrees) == 1, (where, degrees)
        p_dual, q_dual = P.poincare_dual(p), Q.poincare_dual(q)
        assert match[p_dual] is q_dual, where
        for node, dual, indices, dual_indices in (
            (p, p_dual, ips, p_indices[p_dual.id]),
            (q, q_dual, iqs, q_indices[q_dual.id]),
        ):
            duals = [DUAL[type(idx)](idx) for idx in indices]
            assert set(duals) == set(dual_indices), where
            # the quadric's two maximal families: each is self-dual iff its node is
            fixed = [d == idx for d, idx in zip(duals, indices)]
            assert fixed == [dual == node] * len(duals), where
        if p.degree is not None and q.degree is not None:
            assert p.degree == q.degree, where
            assert _engine_kinds(P, p) == _engine_kinds(Q, q), where


@pytest.mark.parametrize("p_selector,q_selector", GRADED_PAIRS)
def test_coinciding_families_agree_class_by_class(p_selector, q_selector):
    P, Q = side(p_selector)[0], side(q_selector)[0]
    assert all(n.degree is not None for n in P.nodes)
    match = witnesses.interval_isomorphism(P, Q, Q.top())
    assert match is not None, f"{p_selector} does not match {q_selector}"
    check_agreement(p_selector, q_selector, dict(zip(P.nodes, match)))


def test_lg2_and_q3_agree_along_their_chain():
    # Neither carries degrees (B2/P1 and C2/P2 are not minuscule), and both are
    # 4-class chains, so the classes match by dimension.
    P, Q = side("lg:2")[0], side("quad:3")[0]
    for poset in (P, Q):
        assert [len(poset.nodes_by_dim(d)) for d in range(poset.dimension + 1)] == [1] * 4
    match = {p: Q.nodes_by_dim(p.dim)[0] for p in P.nodes}
    check_agreement("lg:2", "quad:3", match)
