"""Tests for the constructive flexibility witnesses and the cone embedding."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oracles import fingerprint, fingerprint_to_gr, quadric_classes
from schubflex import weyl
from schubflex.classical import GrIndex, quadric_dimension
from schubflex.golden import node_token, resolve_token
from schubflex.isotropic import IsotropicIndex, fingerprint_to_og, isotropic_dimension
from schubflex.moduli import moduli_witness_gr, moduli_witness_isotropic, quadric_witness
from schubflex.poset import build_quotient_poset, quotient
from schubflex.rigidity import classify, classify_gr, classify_lg, classify_og, classify_quadric
from schubflex.witnesses import (
    _match_graded,
    basic_witness_homes,
    bertini_witness,
    cone_embedding,
    divisor_witness,
    interval_isomorphism,
    linear_space_witness,
)


def all_gr_indices(k: int, n: int):
    for lam in combinations(range(1, n + 1), k):
        yield GrIndex(k, n, lam)


def all_isotropic_indices(family: str, n: int):
    top = n if family == "lg" else n - 1
    for size in range(top + 1):
        for lam in combinations(range(1, top + 1), size):
            yield IsotropicIndex(family, n, lam)


# -- poset-based engines ----------------------------------------------------


def test_linear_space_witness_on_cayley_poset(e6p6):
    w = linear_space_witness(e6p6, resolve_token(e6p6, "1:1"))
    assert w is not None and w.kind == "Linear"
    assert w.payload["ambient"] == resolve_token(e6p6, "2:1").id
    # the bigger P^4 family has two linear covers available through 4:1b
    w = linear_space_witness(e6p6, resolve_token(e6p6, "4:1b"))
    assert w is not None and w.payload["ambient"] == resolve_token(e6p6, "5:1").id
    # maximal linear spaces have nowhere to put a hypersurface
    assert linear_space_witness(e6p6, resolve_token(e6p6, "4:1a")) is None
    assert linear_space_witness(e6p6, resolve_token(e6p6, "5:1")) is None
    # points and non-linear classes are out regardless of covers
    assert linear_space_witness(e6p6, e6p6.bottom()) is None
    assert linear_space_witness(e6p6, resolve_token(e6p6, "8:2")) is None


def test_bertini_witness_on_cayley_poset(e6p6):
    w = bertini_witness(e6p6, resolve_token(e6p6, "15:78"))
    assert w is not None and w.kind == "Bertini"
    assert w.payload["sweep"] == e6p6.top().id
    w = bertini_witness(e6p6, resolve_token(e6p6, "5:2"))
    assert w is not None and w.payload["sweep"] == resolve_token(e6p6, "6:2").id
    # 9:9 covers both 8:2 and 8:7, so neither gets a Bertini sweep there
    assert bertini_witness(e6p6, resolve_token(e6p6, "8:2")) is None
    assert bertini_witness(e6p6, e6p6.top()) is None
    assert bertini_witness(e6p6, e6p6.bottom()) is None


def test_divisor_witness_is_codimension_one_only(e6p6):
    assert divisor_witness(e6p6, resolve_token(e6p6, "15:78")) is not None
    assert divisor_witness(e6p6, resolve_token(e6p6, "14:78")) is None
    assert divisor_witness(e6p6, e6p6.top()) is None
    # a curve has no room: its divisor class is the rigid point
    p1 = build_quotient_poset(weyl.build_cartan("A", 1), {1})
    assert divisor_witness(p1, p1.bottom()) is None


def test_basic_witness_homes(e6p6):
    homes = basic_witness_homes(e6p6, resolve_token(e6p6, "4:1b"))
    assert [node_token(e6p6, h) for h in homes] == ["5:1"]
    assert basic_witness_homes(e6p6, resolve_token(e6p6, "4:1a")) == []
    assert basic_witness_homes(e6p6, e6p6.bottom()) == []
    homes = basic_witness_homes(e6p6, resolve_token(e6p6, "1:1"))
    assert [node_token(e6p6, h) for h in homes] == ["2:1"]
    homes = basic_witness_homes(e6p6, resolve_token(e6p6, "5:2"))
    assert [node_token(e6p6, h) for h in homes] == ["6:2"]


def _engine_coverage(poset, index_of):
    """(classes, flexible, certified) of the poset engines on one quotient.

    Fails on a class the engines certify while the classifier calls it
    multi-rigid.
    """
    flexible = certified = 0
    for node in poset.nodes:
        idx = index_of(poset, node)
        rigid = classify(idx).rigid
        witnesses = [
            w for engine in (linear_space_witness, bertini_witness, divisor_witness)
            if (w := engine(poset, node)) is not None
        ]
        assert not (rigid and witnesses), f"{idx} is multi-rigid but certified by {witnesses}"
        flexible += not rigid
        certified += bool(witnesses)
    return len(poset.nodes), flexible, certified


def _add(total, counts):
    return tuple(map(sum, zip(total, counts)))


def test_poset_engines_never_certify_a_multi_rigid_classical_class():
    # The engines are sufficient conditions only, so coverage is printed, not
    # gated on.  Quadric classes are matched by dimension: the one dimension
    # holding two classes holds the two maximal families, both multi-rigid.
    gr = og = quad = (0, 0, 0)
    for n in range(2, 11):
        for k in range(1, n):
            counts = _engine_coverage(
                quotient("gr", k, n), lambda p, node: fingerprint_to_gr(k, n, fingerprint(p, node))
            )
            gr = _add(gr, counts)
        counts = _engine_coverage(
            quotient("og", n), lambda p, node: fingerprint_to_og(n, fingerprint(p, node))
        )
        og = _add(og, counts)
    for n in (1, *range(3, 31)):
        by_dim = {}
        for idx in quadric_classes(n):
            by_dim.setdefault(quadric_dimension(idx), idx)
        quad = _add(quad, _engine_coverage(quotient("quad", n), lambda p, node: by_dim[node.dim]))
    for name, (classes, flexible, certified) in (("gr", gr), ("og", og), ("quad", quad)):
        print(f"{name}: {classes} classes, {flexible} flexible, {certified} certified")

    # the divisor class of LG(n,2n) is the index (n)
    for n in range(1, 11):
        poset = quotient("lg", n)
        for node in poset.nodes:
            if divisor_witness(poset, node) is not None:
                idx = IsotropicIndex("lg", n, (n,))
                assert node.dim == isotropic_dimension(idx) and not classify_lg(idx).rigid


# -- Grassmannian moduli witnesses ------------------------------------------


def test_gr_witness_known_routings():
    w = moduli_witness_gr(GrIndex(2, 4, (2, 4)))
    assert w.kind == "ModuliGr" and w.payload["case"] == 1
    assert w.payload["position"] == 1 and w.payload["moved_entry"] == 2
    w = moduli_witness_gr(GrIndex(2, 4, (1, 3)))
    assert w.payload["case"] == 1 and w.payload["position"] == 2

    w = moduli_witness_gr(GrIndex(4, 6, (1, 2, 4, 5)))
    assert w.payload["case"] == 2 and w.payload["route"] == "ann"
    assert w.payload["annihilator"] == "gr:2,6:1,4"
    assert w.payload["position"] == 2 and w.payload["moved_entry"] == 4

    assert moduli_witness_gr(GrIndex(2, 4, (2, 3))) is None
    assert moduli_witness_gr(GrIndex(3, 6, (2, 3, 6))) is None


def test_gr_witness_matches_classifier_exhaustively():
    for n in range(2, 8):
        for k in range(1, n):
            for idx in all_gr_indices(k, n):
                w = moduli_witness_gr(idx)
                assert (w is None) == classify_gr(idx).rigid, f"disagreement at {idx}"
                if w is not None:
                    assert w.payload["case"] in (1, 2)


@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
    ).flatmap(
        lambda nk: st.tuples(
            st.just(nk[0]),
            st.just(nk[1]),
            st.sets(st.integers(min_value=1, max_value=nk[0]), min_size=nk[1], max_size=nk[1]),
        )
    )
)
def test_gr_case1_entry_really_moves(nkl):
    n, k, lam_set = nkl
    idx = GrIndex(k, n, tuple(sorted(lam_set)))
    w = moduli_witness_gr(idx)
    if w is None or w.payload["case"] != 1:
        return
    u = w.payload["position"]
    padded = (0,) + idx.lam + (n + 1,)
    assert padded[u - 1] + 1 < padded[u] < padded[u + 1] - 1
    assert w.payload["moved_entry"] == idx.lam[u - 1]


# -- isotropic moduli witnesses ---------------------------------------------


def test_isotropic_witness_known_routings():
    w = moduli_witness_isotropic(IsotropicIndex("og", 5, (4,)))
    assert w.payload["branch"] == "a" and w.payload["embedded"] == "gr:1,5:4"
    assert w.payload["spinor_component"] == "same"

    w = moduli_witness_isotropic(IsotropicIndex("og", 5, (1, 2, 3)))
    assert w.payload["branch"] == "b" and w.payload["extended"] == "gr:4,5:1,2,3,5"
    assert w.payload["spinor_component"] == "opposite"

    w = moduli_witness_isotropic(IsotropicIndex("og", 5, (2, 3)))
    assert w.payload["branch"] == "b" and w.payload["extended"] == "gr:3,5:2,3,5"
    assert w.payload["spinor_component"] == "same"

    w = moduli_witness_isotropic(IsotropicIndex("og", 3, (1,)))
    assert w.payload["branch"] == "b" and w.payload["extended"] == "gr:2,3:1,3"

    assert moduli_witness_isotropic(IsotropicIndex("lg", 2, (1,))).payload["branch"] == "c2"
    assert moduli_witness_isotropic(IsotropicIndex("lg", 2, (2,))).payload["branch"] == "c1"
    assert moduli_witness_isotropic(IsotropicIndex("lg", 4, (2,))).payload["branch"] == "a"
    assert moduli_witness_isotropic(IsotropicIndex("lg", 3, (1, 2))).payload["branch"] == "c2"

    assert moduli_witness_isotropic(IsotropicIndex("lg", 2, (1, 2))) is None
    assert moduli_witness_isotropic(IsotropicIndex("og", 5, (1, 2, 3, 4))) is None
    assert moduli_witness_isotropic(IsotropicIndex("og", 5, ())) is None


def test_isotropic_witness_matches_classifier_exhaustively():
    for family, classifier in (("lg", classify_lg), ("og", classify_og)):
        lo = 1 if family == "lg" else 2
        for n in range(lo, 6):
            for idx in all_isotropic_indices(family, n):
                w = moduli_witness_isotropic(idx)
                assert (w is None) == classifier(idx).rigid, f"disagreement at {idx}"


def test_og_spinor_component_parity():
    for n in range(2, 6):
        for idx in all_isotropic_indices("og", n):
            w = moduli_witness_isotropic(idx)
            if w is None or "spinor_component" not in w.payload:
                continue
            s = len(idx.lam) if w.payload["branch"] == "a" else len(idx.lam) + 1
            want = "same" if s % 2 == n % 2 else "opposite"
            assert w.payload["spinor_component"] == want


# -- quadric witnesses ------------------------------------------------------


def test_quadric_witness_known_table():
    table4 = {
        "quad:4:linear-1": None,
        "quad:4:linear-2": "hypersurface",
        "quad:4:max-plus": None,
        "quad:4:max-minus": None,
        "quad:4:colinear-1": "polar-section",
        "quad:4:colinear-0": None,
    }
    table5 = {
        "quad:5:linear-1": None,
        "quad:5:linear-2": "hypersurface",
        "quad:5:linear-3": "induction",
        "quad:5:colinear-2": "polar-section",
        "quad:5:colinear-1": "polar-section",
        "quad:5:colinear-0": None,
    }
    for n, table in ((4, table4), (5, table5)):
        got = {}
        for idx in quadric_classes(n):
            w = quadric_witness(idx)
            got[str(idx)] = None if w is None else w.payload["construction"]
        assert got == table


def test_quadric_witness_matches_classifier():
    for n in range(1, 11):
        for idx in quadric_classes(n):
            w = quadric_witness(idx)
            assert (w is None) == classify_quadric(idx).rigid, f"disagreement at {idx}"
            if w is not None and idx.kind == "linear":
                assert w.payload["construction"] == (
                    "induction" if 2 * idx.j == n + 1 else "hypersurface"
                )


# -- cone embeddings --------------------------------------------------------


def test_cone_embedding_spinor_into_cayley(e6p6, og510):
    apex = resolve_token(e6p6, "11:12")
    phi = cone_embedding(og510, e6p6, apex)
    assert phi is not None and len(phi) == 16
    want = {
        "0:1": "1:1", "1:1": "2:1", "2:1": "3:1",
        "3:1a": "4:1a", "3:1b": "4:1b",
        "4:1": "5:1", "4:2": "5:2",
        "5:2": "6:2", "5:3": "6:3",
        "6:2": "7:2", "6:5": "7:5",
        "7:5": "8:5", "7:7": "8:7",
        "8:12": "9:12", "9:12": "10:12", "10:12": "11:12",
    }
    got = {node_token(og510, s): node_token(e6p6, t) for s, t in zip(og510.nodes, phi)}
    assert got == want


def test_cone_embedding_cayley_into_freudenthal(e6p6, e7p7):
    apex = resolve_token(e7p7, "17:78")
    phi = cone_embedding(e6p6, e7p7, apex)
    assert phi is not None and len(phi) == 27
    for sn, tn in zip(e6p6.nodes, phi):
        assert tn.dim == sn.dim + 1 and tn.degree == sn.degree
    # the one-dimension-up copy keeps the two P^4 families apart
    assert phi[resolve_token(e6p6, "4:1a").index] is resolve_token(e7p7, "5:1a")
    assert phi[resolve_token(e6p6, "4:1b").index] is resolve_token(e7p7, "5:1b")
    assert phi[resolve_token(e6p6, "16:78").index] is resolve_token(e7p7, "17:78")


def test_cone_embedding_rejects_wrong_shapes(e6p6, og510):
    # an interval of the wrong size or grading gives None, never a bad map
    assert cone_embedding(og510, e6p6, resolve_token(e6p6, "12:33")) is None
    assert cone_embedding(og510, e6p6, e6p6.top()) is None
    g24 = build_quotient_poset(weyl.build_cartan("A", 3), {2})
    assert cone_embedding(g24, e6p6, resolve_token(e6p6, "11:12")) is None


@pytest.mark.parametrize(
    "sub, ambient", [(("gr", 1, 2100), ("gr", 1, 2100)), (("og", 12), ("lg", 11))]
)
def test_interval_isomorphism_of_posets_past_the_recursion_limit(sub, ambient):
    # The matcher places one class per step of an explicit stack; a search
    # that recursed once per class overflowed the stack near 1,000 classes.
    # og:n+1 and lg:n have the same Bruhat order, since W(B_n) = W(C_n).
    sub, ambient = quotient(*sub), quotient(*ambient)
    phi = interval_isomorphism(sub, ambient, ambient.top())
    assert phi is not None and len(phi) == len(sub.nodes) >= 2048
    assert sorted(t.id for t in phi) == sorted(n.id for n in ambient.nodes)
    assert all(t.dim == n.dim for n, t in zip(sub.nodes, phi))
    assert {(phi[lo.index], phi[hi.index]) for lo, hi in sub.covers} == set(ambient.covers)


def test_match_graded_refuses_a_missing_cover_by_search_or_by_cover_count():
    # Two four-class posets with the same (dim, degree) labels: a diamond,
    # and the diamond without the cover y < t.  The search asks the ambient
    # side only for the lower covers of candidates for classes that have
    # some, never the bottom's; the closing cover count asks for every class's.
    diamond = {"b": (), "x": ("b",), "y": ("b",), "t": ("x", "y")}
    missing = dict(diamond, t=("x",))
    items = [("b", 0, 1), ("x", 1, 1), ("y", 1, 1), ("t", 2, 2)]

    def match(sub, amb):
        asked = []

        def amb_down(node):
            asked.append(node)
            return amb[node]

        return _match_graded(items, items, sub.__getitem__, amb_down), "b" in asked

    assert match(diamond, diamond) == (("b", "x", "y", "t"), True)
    assert match(missing, missing) == (("b", "x", "y", "t"), True)
    assert match(diamond, missing) == (None, False)  # no image of t covers both x and y
    assert match(missing, diamond) == (None, True)  # every cover lands on one, 3 covers against 4


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
