"""Unit tests for the root-system layer."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    POSITIVE_ROOT_COUNTS,
    dense_reflect,
    is_reduced,
    length,
    levi_orbit_order,
    longest_element,
    rho,
)
from schubflex import closed_forms, weyl
from schubflex.closed_forms import InternalError

SMALL_DATA = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("D", 4), ("D", 5),
    ("E", 6), ("E", 7),
]


def test_cartan_a2():
    d = weyl.build_cartan("A", 2)
    assert d.cartan == ((2, -1), (-1, 2))


def test_cartan_b_and_c_doubled_entries():
    b3 = weyl.build_cartan("B", 3)
    assert b3.cartan[1][2] == -2, "B_n carries the -2 in row n-1, column n"
    assert b3.cartan[2][1] == -1
    c3 = weyl.build_cartan("C", 3)
    assert c3.cartan[1][2] == -1
    assert c3.cartan[2][1] == -2
    # transpose relationship
    for i in range(3):
        for j in range(3):
            assert b3.cartan[i][j] == c3.cartan[j][i]


def test_cartan_d4_branch():
    d = weyl.build_cartan("D", 4)
    # node 2 is the branch point: neighbours 1, 3, 4
    assert d.cartan[1][0] == d.cartan[1][2] == d.cartan[1][3] == -1
    assert d.cartan[2][3] == 0


def test_cartan_e6_edges():
    d = weyl.build_cartan("E", 6)
    edges = {(i + 1, j + 1) for i in range(6) for j in range(i + 1, 6) if d.cartan[i][j] != 0}
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}


def test_cartan_e7_edges():
    d = weyl.build_cartan("E", 7)
    edges = {(i + 1, j + 1) for i in range(7) for j in range(i + 1, 7) if d.cartan[i][j] != 0}
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)}


def test_dense_matrix_is_the_diagram():
    # The matrix read from the neighbour lists is 2 on the diagonal and holds
    # each edge of _edges in both directions.
    for family, low, high in (("A", 1, 6), ("B", 2, 6), ("C", 2, 6), ("D", 3, 7), ("E", 6, 7)):
        for rank in range(low, high + 1):
            d = weyl.build_cartan(family, rank)
            want = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
            for i, j, cij, cji in weyl._edges(family, rank):
                want[i][j], want[j][i] = cij, cji
            assert d.cartan == tuple(map(tuple, want)), d


def test_sparse_reflect_equals_the_dense_one():
    rng = random.Random(8)
    data = [("A", r) for r in range(1, 13)] + [("B", r) for r in range(2, 9)]
    data += [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 11)]
    data += [("E", 6), ("E", 7)]
    for family, rank in data:
        d = weyl.build_cartan(family, rank)
        for _ in range(40):
            v = tuple(rng.randint(-5, 5) for _ in range(rank))
            for i in range(1, rank + 1):
                assert weyl.reflect(d, i, v) == dense_reflect(d, i, v), (d, i, v)


def test_build_cartan_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl.build_cartan("F", 4)
    with pytest.raises(ValueError):
        weyl.build_cartan("E", 8)
    with pytest.raises(ValueError):
        weyl.build_cartan("B", 1)
    with pytest.raises(ValueError):
        weyl.build_cartan("D", 1)
    with pytest.raises(ValueError):
        weyl.build_cartan("C", 0)


# Every family at every rank from its minimum up to 10, with its closed-form
# positive-root count.
ROOT_COUNTS_TO_RANK_10 = [
    (family, rank, POSITIVE_ROOT_COUNTS[family](rank))
    for family, low in (("A", 1), ("B", 2), ("C", 1), ("D", 2))
    for rank in range(low, 11)
] + [("E", rank, POSITIVE_ROOT_COUNTS["E"](rank)) for rank in (6, 7)]


@pytest.mark.parametrize("family,rank,count", ROOT_COUNTS_TO_RANK_10)
def test_positive_root_counts(family, rank, count):
    d = weyl.build_cartan(family, rank)
    roots = weyl.positive_roots(d)
    assert len(roots) == count
    assert all(all(c >= 0 for c in r) for r in roots)
    # the simple roots are present
    for i in range(rank):
        assert tuple(1 if j == i else 0 for j in range(rank)) in roots


def _drop_last_edge(edges):
    return edges[:-1]


def _branch_to(node):
    """D_n with node n joined to ``node`` (1-based) instead of to n-2."""
    return lambda edges: edges[:-1] + [(node - 1, edges[-1][1], -1, -1)]


@pytest.mark.parametrize(
    "family,rank,mistake",
    [
        pytest.param("A", 5, _drop_last_edge, id="A5-edge-dropped"),
        pytest.param("B", 4, _drop_last_edge, id="B4-edge-dropped"),
        pytest.param("D", 4, _drop_last_edge, id="D4-branch-dropped"),
        pytest.param("E", 7, _drop_last_edge, id="E7-edge-dropped"),
        pytest.param("D", 4, _branch_to(3), id="D4-branch-at-end"),  # a path: A4
        pytest.param("D", 6, _branch_to(3), id="D6-branch-moved"),  # arms 1, 2, 2: E6
        pytest.param("D", 7, _branch_to(4), id="D7-branch-moved"),  # arms 1, 2, 3: E7
        pytest.param("D", 9, _branch_to(6), id="D9-branch-moved"),  # arms 1, 2, 5: no type
    ],
)
def test_wrong_diagram_raises_internal_error(monkeypatch, family, rank, mistake):
    # The Cartan cache is emptied around the test, so the check meets the
    # wrong diagram and nothing built from it outlives the test.
    edges = weyl._edges
    weyl.build_cartan.cache_clear()
    monkeypatch.setattr(weyl, "_edges", lambda f, r: mistake(edges(f, r)))
    try:
        with pytest.raises(InternalError):
            weyl.build_cartan(family, rank)
    finally:
        weyl.build_cartan.cache_clear()


def test_act_worked_example_a2():
    d = weyl.build_cartan("A", 2)
    # Rightmost letter first: s_2 fixes (1,0), then s_1 sends it to (-1,1).
    assert weyl.act(d, [2], (1, 0)) == (1, 0)
    assert weyl.act(d, [1, 2], (1, 0)) == (-1, 1)
    assert weyl.act(d, [2, 1], (1, 0)) == (0, -1)


def test_length_of_unreduced_word():
    d = weyl.build_cartan("A", 2)
    assert length(d, []) == 0
    assert length(d, [1, 1]) == 0
    assert length(d, [1, 2, 1]) == 3
    assert length(d, [1, 2, 1, 2]) == 2  # braid: s1s2s1s2 = s2s1 in A2
    assert not is_reduced(d, [1, 2, 1, 2])
    assert is_reduced(d, [1, 2, 1])


def test_longest_element_full_group():
    for family, rank in SMALL_DATA:
        d = weyl.build_cartan(family, rank)
        w0 = longest_element(d, range(1, rank + 1))
        assert is_reduced(d, w0)
        assert len(w0) == len(weyl.positive_roots(d))
        # w0 sends the dominant chamber to the antidominant one
        assert all(c < 0 for c in weyl.act(d, w0, rho(d)))
        # and is an involution
        assert length(d, tuple(w0) + tuple(w0)) == 0


def test_longest_element_levi_lengths():
    e6 = weyl.build_cartan("E", 6)
    assert len(longest_element(e6, [1, 2, 3, 4, 5])) == 20  # D5 subdiagram
    assert len(longest_element(e6, range(1, 7))) == 36
    e7 = weyl.build_cartan("E", 7)
    assert len(longest_element(e7, [1, 2, 3, 4, 5, 6])) == 36  # E6 subdiagram
    assert len(longest_element(e7, range(1, 8))) == 63


def test_weyl_orders():
    assert closed_forms.weyl_order(weyl.build_cartan("A", 4)) == 120
    assert closed_forms.weyl_order(weyl.build_cartan("B", 3)) == 48
    assert closed_forms.weyl_order(weyl.build_cartan("C", 5)) == 3840
    assert closed_forms.weyl_order(weyl.build_cartan("D", 5)) == 1920
    assert closed_forms.weyl_order(weyl.build_cartan("E", 6)) == 51840
    assert closed_forms.weyl_order(weyl.build_cartan("E", 7)) == 2903040


def test_levi_orders_by_shape():
    e6 = weyl.build_cartan("E", 6)
    assert closed_forms.levi_order(e6, [1, 2, 3, 4, 5]) == 1920   # D5
    assert closed_forms.levi_order(e6, [2, 3, 4, 5, 6]) == 1920   # D5 again (mirror)
    assert closed_forms.levi_order(e6, [1, 3, 4, 5, 6]) == 720    # A5
    assert closed_forms.levi_order(e6, [1, 2, 3, 4, 6]) == 240    # A4 x A1
    assert closed_forms.levi_order(e6, [1, 2, 3, 4]) == 120       # A4 (the path 1-3-4-2)
    e7 = weyl.build_cartan("E", 7)
    assert closed_forms.levi_order(e7, [1, 2, 3, 4, 5, 6]) == 51840       # E6
    assert closed_forms.levi_order(e7, [2, 3, 4, 5, 6, 7]) == 23040       # D6
    assert closed_forms.levi_order(e7, [1, 2, 3, 4, 5, 7]) == 3840        # D5 x A1
    b4 = weyl.build_cartan("B", 4)
    assert closed_forms.levi_order(b4, [2, 3, 4]) == 48           # B3 tail keeps the doubled edge
    assert closed_forms.levi_order(b4, [1, 2, 3]) == 24           # A3 head


def test_levi_order_matches_orbit_count():
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6)]:
        d = weyl.build_cartan(family, rank)
        full = list(range(1, rank + 1))
        subsets = [full, full[:-1], full[1:], full[:2]]
        for gens in subsets:
            if not gens:
                continue
            assert closed_forms.levi_order(d, gens) == levi_orbit_order(d, gens), (
                f"formula vs orbit disagree for {family}{rank} gens={gens}"
            )


@pytest.mark.parametrize(
    "family,rank,marked,dim",
    [
        ("A", 3, [2], 4),        # G(2,4)
        ("A", 5, [3], 9),        # G(3,6)
        ("B", 2, [1], 3),        # 3-dim quadric
        ("D", 5, [5], 10),       # 10-dim spinor variety
        ("C", 3, [3], 6),        # LG(3,6)
        ("E", 6, [6], 16),
        ("E", 6, [1], 16),
        ("E", 6, [5], 25),
        ("E", 6, [5, 6], 26),
        ("E", 6, [1, 6], 24),
        ("E", 7, [7], 27),
        ("E", 7, [1], 33),
        ("E", 7, [6], 42),
        ("E", 7, [6, 7], 43),
        ("E", 7, [1, 7], 43),
    ],
)
def test_quotient_dimensions(family, rank, marked, dim):
    d = weyl.build_cartan(family, rank)
    assert closed_forms.quotient_dimension(d, marked) == dim


def test_closed_form_dimensions_equal_the_root_enumeration():
    # Every marked set of A1-A8, B2-B8, C1-C8, D2-D8, E6 and E7 (2,196 sets):
    # dim G/P counts the positive roots whose support meets the marked set.
    checked = 0
    for family, low, high in (("A", 1, 8), ("B", 2, 8), ("C", 1, 8), ("D", 2, 8), ("E", 6, 7)):
        for rank in range(low, high + 1):
            d = weyl.build_cartan(family, rank)
            roots = weyl.positive_roots(d)
            for size in range(1, rank + 1):
                for marked in itertools.combinations(range(1, rank + 1), size):
                    want = sum(1 for c in roots if any(c[i - 1] > 0 for i in marked))
                    assert closed_forms.quotient_dimension(d, marked) == want, (family, rank, marked)
                    checked += 1
    assert checked == 2196


@st.composite
def datum_and_word(draw, max_len=12):
    family, rank = draw(st.sampled_from(SMALL_DATA))
    d = weyl.build_cartan(family, rank)
    word = draw(st.lists(st.integers(1, rank), max_size=max_len))
    return d, tuple(word)


@given(datum_and_word())
@settings(max_examples=150, deadline=None)
def test_reflect_is_an_involution(dw):
    d, word = dw
    v = weyl.act(d, word, rho(d))  # an arbitrary chamber image
    for i in range(1, d.rank + 1):
        assert weyl.reflect(d, i, weyl.reflect(d, i, v)) == v


@given(datum_and_word())
@settings(max_examples=150, deadline=None)
def test_length_parity_and_steps(dw):
    d, word = dw
    n = length(d, word)
    assert n % 2 == len(word) % 2, "length parity must match word parity"
    assert n <= len(word)
    for i in range(1, d.rank + 1):
        m = length(d, tuple(word) + (i,))
        assert abs(m - n) == 1


@given(datum_and_word())
@settings(max_examples=100, deadline=None)
def test_act_is_a_group_action(dw):
    d, word = dw
    v = (1,) * d.rank
    k = len(word) // 2
    left, right = word[:k], word[k:]
    assert weyl.act(d, word, v) == weyl.act(d, left, weyl.act(d, right, v))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
