"""Unit tests for classical index arithmetic."""

import math
import random
from itertools import combinations
from math import comb, isclose, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    corner_peeling_count,
    fingerprint,
    fingerprint_to_gr,
    gr_pairing,
    gr_to_fingerprint,
    node_by_fingerprint,
    og_degree_by_chains,
    og_to_fingerprint,
    pairwise_gr_degree_log10,
    quadric_classes,
    ungroup,
)
from schubflex import classical, isotropic, weyl
from schubflex.classical import GrIndex, QuadricIndex
from schubflex.closed_forms import InternalError
from schubflex.isotropic import IsotropicIndex
from schubflex.poset import build_quotient_poset, quadric_poset_family


@st.composite
def gr_indices(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    lam = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
    return GrIndex(k, n, lam)


@st.composite
def isotropic_indices(draw, max_n=9):
    family = draw(st.sampled_from(["lg", "og"]))
    n = draw(st.integers(1 if family == "lg" else 2, max_n))
    bound = n if family == "lg" else n - 1
    lam = tuple(sorted(draw(st.sets(st.integers(1, bound), max_size=bound)))) if bound else ()
    return IsotropicIndex(family, n, lam)


def test_gr_index_validation():
    with pytest.raises(ValueError):
        GrIndex(2, 4, (2,))
    with pytest.raises(ValueError):
        GrIndex(2, 4, (4, 2))
    with pytest.raises(ValueError):
        GrIndex(2, 4, (2, 5))
    with pytest.raises(ValueError):
        GrIndex(4, 4, (1, 2, 3, 4))


def test_shifted_and_grouped():
    assert classical.shifted((2, 3, 6)) == (1, 1, 3)
    assert classical.grouped((2, 3, 6)) == ((1, 2), (3, 1))
    assert classical.grouped((1, 2, 3)) == ((0, 3),)
    assert ungroup(((1, 2), (3, 1))) == (2, 3, 6)


@given(gr_indices(max_n=12))
@settings(max_examples=200, deadline=None)
def test_group_ungroup_roundtrip(idx):
    assert ungroup(classical.grouped(idx.lam)) == idx.lam


def test_gr_dimensions_known():
    assert classical.gr_dimension(GrIndex(2, 4, (1, 2))) == 0
    assert classical.gr_dimension(GrIndex(2, 4, (2, 4))) == 3
    assert classical.gr_dimension(GrIndex(2, 4, (3, 4))) == 4
    assert classical.gr_dimension(GrIndex(3, 7, (5, 6, 7))) == 12


def test_dual_index_known():
    assert classical.dual_index(GrIndex(2, 4, (2, 4))).lam == (1, 3)
    assert classical.dual_index(GrIndex(2, 4, (1, 2))).lam == (3, 4)


@given(gr_indices())
@settings(max_examples=200, deadline=None)
def test_dual_index_involution_and_complement(idx):
    d = classical.dual_index(idx)
    assert classical.dual_index(d).lam == idx.lam
    assert classical.gr_dimension(idx) + classical.gr_dimension(d) == idx.k * (idx.n - idx.k)


@given(gr_indices())
@settings(max_examples=200, deadline=None)
def test_ann_index_involution_preserves_dimension(idx):
    a = classical.ann_index(idx)
    assert (a.k, a.n) == (idx.n - idx.k, idx.n)
    assert classical.gr_dimension(a) == classical.gr_dimension(idx)
    back = classical.ann_index(a)
    assert (back.k, back.lam) == (idx.k, idx.lam)


def test_gr_pairing_is_kronecker_delta_on_g25():
    n, k = 5, 2
    every = [GrIndex(k, n, lam) for lam in
             [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]]
    for a in every:
        for b in every:
            if classical.gr_dimension(a) + classical.gr_dimension(b) != k * (n - k):
                with pytest.raises(ValueError):
                    gr_pairing(a, b)
                continue
            expected = 1 if classical.dual_index(a).lam == b.lam else 0
            assert gr_pairing(a, b) == expected


@given(gr_indices())
@settings(max_examples=200, deadline=None)
def test_fingerprint_roundtrip(idx):
    fp = gr_to_fingerprint(idx)
    back = fingerprint_to_gr(idx.k, idx.n, fp)
    assert back.lam == idx.lam


def test_fingerprint_matches_poset_nodes():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        p = build_quotient_poset(weyl.build_cartan("A", n - 1), {k})
        seen = set()
        for node in p.nodes:
            idx = fingerprint_to_gr(k, n, fingerprint(p, node))
            assert classical.gr_dimension(idx) == node.dim
            assert classical.gr_degree(idx) == node.degree
            assert gr_to_fingerprint(idx) == fingerprint(p, node)
            seen.add(idx.lam)
        assert len(seen) == len(p.nodes)


def test_standard_tableau_counts_known():
    assert classical.standard_tableau_count(()) == 1
    assert classical.standard_tableau_count((1,)) == 1
    assert classical.standard_tableau_count((2, 1)) == 2
    assert classical.standard_tableau_count((2, 2)) == 2
    assert classical.standard_tableau_count((3, 3, 3)) == 42
    assert classical.standard_tableau_count((4, 4, 4)) == 462
    assert classical.standard_tableau_count((5, 4, 3, 2, 1)) == 292864


def _partitions(cells, largest):
    """Partitions of ``cells`` with parts at most ``largest``, as decreasing tuples."""
    if cells == 0:
        yield ()
        return
    for part in range(min(cells, largest), 0, -1):
        for rest in _partitions(cells - part, part):
            yield (part, *rest)


def test_standard_tableau_count_matches_corner_peeling():
    shapes = [shape for cells in range(17) for shape in _partitions(cells, cells)]
    assert len(shapes) == 915  # sum of p(n) for n = 0..16
    for shape in shapes:
        expected = corner_peeling_count(shape)
        assert classical.standard_tableau_count(shape) == expected, shape
        # gr_degree passes the zero rows of the shifted index along.
        assert classical.standard_tableau_count(shape + (0, 0)) == expected, shape


def test_standard_tableau_count_of_large_shapes():
    # Thousands of cells: a recursion that peels one cell per call fails here.
    def catalan(c):
        return comb(2 * c, c) // (c + 1)

    assert classical.standard_tableau_count((1500, 1500)) == catalan(1500)
    assert classical.gr_degree(GrIndex(2, 3002, (3001, 3002))) == catalan(3000)
    assert classical.gr_degree(GrIndex(1, 3001, (3001,))) == 1


def _gr_index_of(shape):
    """A GrIndex whose degree counts the standard tableaux of ``shape``."""
    lam = tuple(part + i for i, part in enumerate(sorted(shape) or [0], start=1))
    return GrIndex(len(lam), lam[-1] + 1, lam)


def test_gr_degree_log10_estimates_the_digits_of_the_degree():
    # The estimate lets degree refuse a class before the exact product.
    for shape in (shape for cells in range(13) for shape in _partitions(cells, cells)):
        expected = log10(corner_peeling_count(shape))
        assert abs(classical.gr_degree_log10(_gr_index_of(shape)) - expected) < 1e-9, shape
    for shape in [(2997,) * 3, (1500, 1500), (3000,), tuple(range(60, 0, -1)), (40,) * 40]:
        expected = log10(classical.standard_tableau_count(shape))
        assert abs(classical.gr_degree_log10(_gr_index_of(shape)) - expected) < 1e-6, shape


def test_gr_degree_log10_per_run_agrees_with_the_pairwise_sum():
    # Seeded shapes with few and with many equal parts, and the full class at
    # the rank bound: the 2236-row rectangle of G(2236, 4472).
    rng = random.Random(21)
    indices = [GrIndex(2236, 4472, tuple(range(2237, 4473)))]
    for _ in range(200):
        n = rng.randint(2, 80)
        k = rng.randint(1, n - 1)
        indices.append(GrIndex(k, n, tuple(sorted(rng.sample(range(1, n + 1), k)))))
        parts = sorted(rng.sample(range(1, 60), rng.randint(1, 6)))
        indices.append(_gr_index_of([part for part in parts for _ in range(rng.randint(1, 40))]))
    for idx in indices:
        fast, slow = classical.gr_degree_log10(idx), pairwise_gr_degree_log10(idx)
        assert isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12), (idx, fast, slow)


def test_gr_degree_memo_holds_only_the_queried_shape():
    classical.standard_tableau_count.cache_clear()
    try:
        full = GrIndex(6, 12, tuple(range(7, 13)))
        assert classical.gr_degree(full) == corner_peeling_count((6,) * 6)
        assert classical.standard_tableau_count.cache_info().currsize == 1
    finally:
        classical.standard_tableau_count.cache_clear()


def test_gr_degrees_known():
    assert classical.gr_degree(GrIndex(2, 4, (3, 4))) == 2
    assert classical.gr_degree(GrIndex(2, 5, (4, 5))) == 5
    assert classical.gr_degree(GrIndex(3, 6, (4, 5, 6))) == 42
    assert classical.gr_degree(GrIndex(2, 4, (2, 4))) == 2


def test_isotropic_validation():
    with pytest.raises(ValueError):
        IsotropicIndex("xx", 3, ())
    with pytest.raises(ValueError):
        IsotropicIndex("lg", 3, (4,))
    with pytest.raises(ValueError):
        IsotropicIndex("og", 5, (5,))
    IsotropicIndex("og", 5, (1, 2, 3, 4))  # the point class, fine
    IsotropicIndex("og", 5, (1, 2, 3))  # fine
    IsotropicIndex("lg", 3, ())         # fundamental class, fine


def test_isotropic_dimensions_known():
    assert isotropic.isotropic_dimension(IsotropicIndex("og", 5, (1, 2, 3, 4))) == 0
    assert isotropic.isotropic_dimension(IsotropicIndex("og", 5, (2, 3))) == 5
    assert isotropic.isotropic_dimension(IsotropicIndex("og", 5, (4,))) == 9
    assert isotropic.isotropic_dimension(IsotropicIndex("og", 5, ())) == 10
    assert isotropic.isotropic_dimension(IsotropicIndex("lg", 2, (1, 2))) == 0
    assert isotropic.isotropic_dimension(IsotropicIndex("lg", 2, (1,))) == 1
    assert isotropic.isotropic_dimension(IsotropicIndex("lg", 2, (2,))) == 2
    assert isotropic.isotropic_dimension(IsotropicIndex("lg", 2, ())) == 3


@given(isotropic_indices())
@settings(max_examples=200, deadline=None)
def test_isotropic_dual_involution_and_complement(idx):
    d = isotropic.isotropic_dual(idx)
    total = isotropic.isotropic_dimension(IsotropicIndex(idx.family, idx.n, ()))
    assert isotropic.isotropic_dimension(idx) + isotropic.isotropic_dimension(d) == total
    assert isotropic.isotropic_dual(d).lam == idx.lam


def test_quadric_class_lists():
    q5 = quadric_classes(5)
    assert len(q5) == 6
    assert [classical.quadric_dimension(c) for c in q5] == [0, 1, 2, 3, 4, 5]
    q6 = quadric_classes(6)
    assert len(q6) == 8
    assert sorted(classical.quadric_dimension(c) for c in q6) == [0, 1, 2, 3, 3, 4, 5, 6]
    q2 = quadric_classes(2)
    assert len(q2) == 4
    kinds = {c.kind for c in q2}
    assert kinds == {"linear", "max-plus", "max-minus", "colinear"}


def test_quadric_degrees():
    assert classical.quadric_degree(QuadricIndex(5, "linear", 2)) == 1
    assert classical.quadric_degree(QuadricIndex(6, "max-plus")) == 1
    assert classical.quadric_degree(QuadricIndex(5, "colinear", 0)) == 2
    assert classical.quadric_degree(QuadricIndex(5, "colinear", 2)) == 2


def test_quadric_dual_involution_and_complement():
    for n in range(1, 11):
        for c in quadric_classes(n):
            d = classical.quadric_dual(c)
            assert classical.quadric_dimension(c) + classical.quadric_dimension(d) == n
            assert classical.quadric_dual(d) == c


def test_quadric_max_family_pairing_rule():
    assert classical.quadric_dual(QuadricIndex(4, "max-plus")).kind == "max-plus"
    assert classical.quadric_dual(QuadricIndex(8, "max-minus")).kind == "max-minus"
    assert classical.quadric_dual(QuadricIndex(2, "max-plus")).kind == "max-minus"
    assert classical.quadric_dual(QuadricIndex(6, "max-plus")).kind == "max-minus"


def test_quadric_validation():
    with pytest.raises(ValueError):
        QuadricIndex(5, "max-plus")
    with pytest.raises(ValueError):
        QuadricIndex(5, "linear", 4)
    with pytest.raises(ValueError):
        QuadricIndex(6, "colinear", 3)
    with pytest.raises(ValueError):
        QuadricIndex(4, "banana", 1)


def test_og_fingerprint_round_trip_and_dims():
    for n in (2, 3, 4, 5, 6):
        poset = build_quotient_poset(weyl.build_cartan("D", n), {n})
        seen = set()
        for size in range(n):
            for lam in combinations(range(1, n), size):
                idx = IsotropicIndex("og", n, lam)
                fp = og_to_fingerprint(idx)
                node = node_by_fingerprint(poset, fp)
                assert node.dim == isotropic.isotropic_dimension(idx), f"{idx} vs {node}"
                assert isotropic.fingerprint_to_og(n, fp) == idx
                seen.add(node.id)
        assert len(seen) == len(poset.nodes) == 2 ** (n - 1)


def test_og_fingerprint_known_values():
    # the point class is the dominant weight, the fundamental class its
    # longest-element image
    assert og_to_fingerprint(IsotropicIndex("og", 5, (1, 2, 3, 4))) == (0, 0, 0, 0, 1)
    assert og_to_fingerprint(IsotropicIndex("og", 5, ())) == (0, 0, 0, -1, 0)
    assert og_to_fingerprint(IsotropicIndex("og", 4, ())) == (0, 0, 0, -1)
    with pytest.raises(ValueError):
        isotropic.fingerprint_to_og(5, (0, 0, 0, 0, 2))
    with pytest.raises(ValueError):
        isotropic.fingerprint_to_og(4, (0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        og_to_fingerprint(IsotropicIndex("lg", 3, (1,)))


def test_og_degree_equals_the_chain_count_on_every_class_up_to_og11():
    checked = 0
    for n in range(2, 12):
        for size in range(n):
            for lam in combinations(range(1, n), size):
                idx = IsotropicIndex("og", n, lam)
                assert isotropic.og_degree(idx) == og_degree_by_chains(idx), idx
                checked += 1
    assert checked == 2046


def test_og_degree_known_values_and_refusals(monkeypatch):
    # og:n:() is the fundamental class of OG(n,2n): P^1, P^3, the quadric Q^6
    # and the spinor varieties of degree 12 and 286 (shifted staircase tableaux).
    assert [isotropic.og_degree(IsotropicIndex("og", n, ())) for n in range(2, 7)] == [1, 1, 2, 12, 286]
    assert isotropic.og_degree(IsotropicIndex("og", 12, (1, 5, 7))) == 266412594390371520
    with pytest.raises(ValueError):
        isotropic.og_degree(IsotropicIndex("lg", 3, (1,)))
    monkeypatch.setattr(isotropic, "factorial", lambda k: math.factorial(k) + 1)
    with pytest.raises(InternalError, match="remainder"):
        isotropic.og_degree(IsotropicIndex("og", 3, ()))


def test_quadric_class_count_matches_quotient_poset():
    for n in [1, 3, 4, 5, 6, 8, 9]:
        family, rank = quadric_poset_family(n)
        p = build_quotient_poset(weyl.build_cartan(family, rank), {1})
        classes = quadric_classes(n)
        assert len(p.nodes) == len(classes), f"Q^{n}"
        assert sorted(n_.dim for n_ in p.nodes) == sorted(
            classical.quadric_dimension(c) for c in classes
        )
    with pytest.raises(ValueError):
        quadric_poset_family(2)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
