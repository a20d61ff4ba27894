"""Known-value and invariance tests for the multi-rigidity classifiers."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oracles import quadric_classes
from schubflex.classical import GrIndex, ann_index
from schubflex.isotropic import IsotropicIndex
from schubflex.rigidity import (
    FLEXIBLE,
    MULTI_RIGID,
    classify,
    classify_gr,
    classify_lg,
    classify_og,
    classify_quadric,
)


def all_gr_indices(k: int, n: int):
    for lam in combinations(range(1, n + 1), k):
        yield GrIndex(k, n, lam)


def all_isotropic_indices(family: str, n: int):
    top = n if family == "lg" else n - 1
    for size in range(top + 1):
        for lam in combinations(range(1, top + 1), size):
            yield IsotropicIndex(family, n, lam)


def test_gr_point_and_fundamental_rigid():
    for k, n in [(1, 2), (1, 5), (2, 4), (3, 7), (4, 8)]:
        assert classify_gr(GrIndex(k, n, tuple(range(1, k + 1)))).rigid
        assert classify_gr(GrIndex(k, n, tuple(range(n - k + 1, n + 1)))).rigid


def test_gr_projective_space_middles_flexible():
    # In P(n-1) = G(1,n) only the point and the whole space are multi-rigid:
    # every intermediate linear subspace moves in a pencil of hyperplanes.
    for n in range(3, 11):
        for a in range(2, n):
            assert classify_gr(GrIndex(1, n, (a,))).status == FLEXIBLE


def test_gr_known_verdicts():
    assert classify_gr(GrIndex(2, 4, (2, 3))).rigid
    assert classify_gr(GrIndex(2, 4, (2, 4))).status == FLEXIBLE
    assert classify_gr(GrIndex(2, 4, (1, 3))).status == FLEXIBLE
    assert classify_gr(GrIndex(2, 5, (2, 3))).rigid
    assert classify_gr(GrIndex(2, 5, (2, 4))).status == FLEXIBLE
    assert classify_gr(GrIndex(3, 6, (2, 3, 5))).status == FLEXIBLE
    assert classify_gr(GrIndex(3, 6, (2, 3, 6))).rigid  # mu_t = n-k, tail vacuous
    # interior singleton block: shifted (1,1,3) has a lone middle... build one
    # explicitly: lam=(2,3,6,8) in G(4,8) -> shifted (1,1,3,4) -> blocks
    # 1^2,3^1,4^1; the 3-block is interior with multiplicity 1.
    v = classify_gr(GrIndex(4, 8, (2, 3, 6, 8)))
    assert v.status == FLEXIBLE
    assert any("interior" in r for r in v.reasons)


def test_gr_rigid_census_g38():
    rigid = [idx.lam for idx in all_gr_indices(3, 8) if classify_gr(idx).rigid]
    for lam in rigid:
        # every rigid class there must pass the spread-out test
        s = [x - i for i, x in enumerate(lam, start=1)]
        assert all(b - a != 1 for a, b in zip(s, s[1:]))
    assert (1, 2, 3) in rigid and (6, 7, 8) in rigid
    assert (2, 3, 4) in rigid  # single block, mu=1: both end clauses hold
    assert (1, 2, 5) not in rigid


@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
    ).flatmap(
        lambda nk: st.tuples(
            st.just(nk[0]),
            st.just(nk[1]),
            st.sets(st.integers(min_value=1, max_value=nk[0]), min_size=nk[1], max_size=nk[1]),
        )
    )
)
def test_gr_status_invariant_under_annihilator(nkl):
    n, k, lam_set = nkl
    idx = GrIndex(k, n, tuple(sorted(lam_set)))
    assert classify_gr(idx).status == classify_gr(ann_index(idx)).status


def test_lg_known_verdicts():
    assert classify_lg(IsotropicIndex("lg", 2, (1, 2))).rigid
    assert classify_lg(IsotropicIndex("lg", 2, ())).rigid
    assert classify_lg(IsotropicIndex("lg", 2, (1,))).status == FLEXIBLE
    assert classify_lg(IsotropicIndex("lg", 2, (2,))).status == FLEXIBLE
    assert classify_lg(IsotropicIndex("lg", 3, (1,))).rigid
    assert classify_lg(IsotropicIndex("lg", 3, (1, 2))).status == FLEXIBLE
    assert classify_lg(IsotropicIndex("lg", 3, (1, 2, 3))).rigid
    assert classify_lg(IsotropicIndex("lg", 3, (3,))).status == FLEXIBLE
    assert classify_lg(IsotropicIndex("lg", 4, (1, 2))).rigid
    assert classify_lg(IsotropicIndex("lg", 4, (3,))).status == FLEXIBLE


def test_og_known_verdicts_og510():
    rigid = {(1, 2, 3, 4), (1, 2), (2, 3, 4), (1,), (3, 4), ()}
    for idx in all_isotropic_indices("og", 5):
        expect = MULTI_RIGID if idx.lam in rigid else FLEXIBLE
        assert classify_og(idx).status == expect, idx.lam


def test_og_tail_window_reasons():
    v = classify_og(IsotropicIndex("og", 5, (2, 3)))
    assert v.status == FLEXIBLE
    assert any("forbidden window" in r for r in v.reasons)


def test_lg_og_translation():
    # LG(n,2n) and OG(n+1,2n+2) have isomorphic posets and identical verdicts.
    for n in range(1, 5):
        lg = {i.lam: classify_lg(i).status for i in all_isotropic_indices("lg", n)}
        og = {
            i.lam: classify_og(i).status
            for i in all_isotropic_indices("og", n + 1)
        }
        assert lg == og


def test_quadric_verdicts():
    for n in range(1, 11):
        for idx in quadric_classes(n):
            v = classify_quadric(idx)
            if idx.kind in ("max-plus", "max-minus"):
                assert v.rigid
            elif idx.kind == "linear":
                assert v.rigid == (idx.j == 1)
            else:
                assert v.rigid == (idx.j == 0)
    # odd-dimensional quadrics: the maximal linear space is flexible
    assert classify_quadric(quadric_classes(5)[2]).status == FLEXIBLE


def test_classify_dispatch():
    assert classify(GrIndex(2, 4, (2, 3))).rigid
    assert classify(IsotropicIndex("lg", 2, (1,))).status == FLEXIBLE
    assert classify(IsotropicIndex("og", 5, (3, 4))).rigid
    assert classify(quadric_classes(4)[0]).rigid
    with pytest.raises(TypeError):
        classify("gr:2,4:2,3")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
