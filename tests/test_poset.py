"""Unit tests for quotient-poset construction, order, degrees, duality."""

import io
import json
import os
import random
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bruhat_leq,
    fingerprint,
    heap_quotient,
    is_reduced,
    longest_element,
    min_word,
    node_by_fingerprint,
    node_by_id,
    poset_json_dict,
    scan_tokens,
    word_bfs,
    word_dual,
)
from schubflex import closed_forms, golden, poset, weyl
from schubflex.poset import (
    GoldenDataError,
    InternalError,
    QuotientPoset,
    build_quotient_poset,
    minuscule,
    quotient,
)
from schubflex.tits import make_context
from schubflex.witnesses import interval_chain_counts


def _by_dim_then_index(pairs):
    return sorted(pairs, key=lambda pair: (pair[0].dim, pair[0].index, pair[1].index))


def pairwise_covers(poset):
    """Oracle: every pair of classes in adjacent ranks, compared by :func:`oracles.bruhat_leq`."""
    covers = []
    for lo in poset.nodes:
        for hi in poset.nodes_by_dim(lo.dim + 1):
            if bruhat_leq(poset, lo, hi):
                covers.append((lo, hi))
    return _by_dim_then_index(covers)


def bfs_edges(poset):
    """Edges of the simple-step graph: coset -> coset * s_i when length goes up.

    On minuscule-type quotients these coincide with the Bruhat covers.
    """
    edges = set()
    for n in poset.nodes:
        fp = fingerprint(poset, n)
        for i in range(1, poset.datum.rank + 1):
            if fp[i - 1] > 0:
                child = node_by_fingerprint(poset, weyl.reflect(poset.datum, i, fp))
                edges.add((n, child))
    return _by_dim_then_index(edges)


@pytest.fixture(scope="module")
def e6():
    return build_quotient_poset(weyl.build_cartan("E", 6), {6})


@pytest.fixture(scope="module")
def g24():
    return build_quotient_poset(weyl.build_cartan("A", 3), {2})


@pytest.fixture(scope="module")
def og510():
    return build_quotient_poset(weyl.build_cartan("D", 5), {5})


def test_projective_plane_by_hand():
    p2 = build_quotient_poset(weyl.build_cartan("A", 2), {1})
    assert len(p2.nodes) == 3
    assert [n.dim for n in p2.nodes] == [0, 1, 2]
    assert [n.degree for n in p2.nodes] == [1, 1, 1]
    assert [p2.fingerprint(n) for n in p2.nodes] == [(1, 0), (-1, 1), (0, -1)]
    assert min_word(p2, node_by_id(p2, "n001")) == (1,)
    assert min_word(p2, node_by_id(p2, "n002")) == (1, 2)


def test_g24_shape_and_degrees(g24):
    assert len(g24.nodes) == 6
    assert [len(g24.nodes_by_dim(d)) for d in range(5)] == [1, 1, 2, 1, 1]
    assert g24.top().degree == 2
    assert sorted(n.degree for n in g24.nodes_by_dim(2)) == [1, 1]
    assert len(g24.covers) == 6


def test_node_count_times_levi_order():
    cases = [
        ("A", 5, {3}),
        ("B", 3, {1}),
        ("C", 3, {3}),
        ("D", 5, {5}),
        ("E", 6, {6}),
        ("E", 6, {5}),
        ("E", 7, {1}),
    ]
    for family, rank, marked in cases:
        datum = weyl.build_cartan(family, rank)
        p = build_quotient_poset(datum, marked)
        gens = [i for i in range(1, rank + 1) if i not in marked]
        assert len(p.nodes) * closed_forms.levi_order(datum, gens) == closed_forms.weyl_order(datum)


def test_known_quotient_sizes():
    sizes = {
        ("E", 6, frozenset({6})): 27,
        ("E", 6, frozenset({1})): 27,
        ("E", 6, frozenset({5})): 216,
        ("E", 7, frozenset({7})): 56,
        ("E", 7, frozenset({1})): 126,
        ("E", 7, frozenset({6})): 756,
        ("D", 5, frozenset({5})): 16,
        ("C", 3, frozenset({3})): 8,
    }
    for (family, rank, marked), size in sizes.items():
        p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
        assert len(p.nodes) == size, f"{family}{rank}/{sorted(marked)}"


def _word_posets():
    e7p6 = make_context(weyl.build_cartan("E", 7), {7}, {6}).q_poset
    assert len(e7p6.nodes) == 756
    return [quotient("e6"), quotient("e7"), e7p6] + [
        quotient(*selector) for selector in (("gr", 4, 9), ("og", 8), ("lg", 6), ("quad", 9))
    ]


def test_min_words_are_reduced_and_consistent():
    # Each word is read off by walking BFS parents, and must be the word a
    # BFS that carries every word finds for the same class.
    for p in _word_posets():
        datum = p.datum
        oracle = word_bfs(datum, p.marked)
        assert len(oracle) == len(p.nodes)
        lam = tuple(1 if i + 1 in p.marked else 0 for i in range(datum.rank))
        for n in p.nodes:
            word = min_word(p, n)
            assert word == oracle[p.fingerprint(n)], (p.type_label(), n.id)
            assert len(word) == n.dim and is_reduced(datum, word)
            assert weyl.act(datum, tuple(reversed(word)), lam) == p.fingerprint(n)


def test_classes_hold_no_tuple_longer_than_the_rank():
    # A class stores its own index, its BFS parent's and one letter, not its
    # minimal word or its fingerprint, so it holds no tuple at all.
    for p in _word_posets():
        for n in p.nodes:
            assert p.nodes[n.index] is n, (p.type_label(), n.id)
            for name in poset.SchubertNode.__slots__:
                value = getattr(n, name)
                assert value is None or type(value) in (int, str), (n.id, name, value)


def _lookup_posets():
    e7p6 = make_context(weyl.build_cartan("E", 7), {7}, {6}).q_poset
    selectors = [("e6",), ("e7",), ("gr", 3, 7), ("lg", 4), ("quad", 6)]
    selectors += [("og", n) for n in range(5, 9)]
    return [e7p6] + [quotient(*selector) for selector in selectors]


def test_lookups_built_on_first_use_agree_with_a_scan_of_the_nodes():
    for p in _lookup_posets():
        label, nodes, covers = p.type_label(), p.nodes, p.covers
        below = {m: set(p.lower_covers(m)) for m in nodes}
        for n in nodes:
            assert node_by_fingerprint(p, list(p.fingerprint(n))) is n, label
            assert p.upper_covers(n) == tuple(m for m in nodes if n in below[m]), label
            assert p.lower_covers(n) == tuple(lo for lo, hi in covers if hi is n)
        for dim in range(-1, p.dimension + 2):
            assert list(p.nodes_by_dim(dim)) == [n for n in nodes if n.dim == dim], (label, dim)
        assert [p.top()] == [n for n in nodes if n.dim == p.dimension], label
        for fp in ((0,) * p.datum.rank, [2] * p.datum.rank):
            with pytest.raises(KeyError) as exc:
                node_by_fingerprint(p, fp)
            assert exc.value.args == (tuple(fp),)


def test_tokens_of_every_dimension_agree_with_a_scan_of_the_nodes():
    # lg:8 (no degrees) and quad:6 (two maximal degree-1 classes in one
    # dimension) have classes the rule names no token; quad:7 does not.
    posets = _lookup_posets() + [quotient("lg", 8), quotient("quad", 7)]
    for p in posets:
        label, want = p.type_label(), scan_tokens(p)
        for dim in range(p.dimension + 1):
            layer = p.nodes_by_dim(dim)
            assert golden.layer_tokens(p, layer) == [want[n] for n in layer], (label, dim)
        for n in p.nodes:
            if want[n] is None:
                with pytest.raises(GoldenDataError, match="cannot form a unique token"):
                    golden.node_token(p, n)
                continue
            assert golden.node_token(p, n) == want[n], (label, n.id)
            if n.degree is not None:  # a token reads its degree as an integer
                assert golden.resolve_token(p, want[n]) is n, (label, n.id)
    assert sum(tok is None for tok in scan_tokens(quotient("quad", 6)).values()) == 2
    assert all(tok is not None for tok in scan_tokens(quotient("quad", 7)).values())


def _run(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports the package from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_OG12 = """
import os, tracemalloc
from schubflex import poset, weyl
weyl.build_cartan("D", 12)
tracemalloc.start()
p = poset.quotient("og", 12)
peak = tracemalloc.get_traced_memory()[1]
with open(os.devnull, "w") as out:
    p.to_json(out)
print(peak / len(p.nodes), tracemalloc.get_traced_memory()[0] / len(p.nodes))
"""


@lru_cache(maxsize=None)
def _og12_bytes_per_class() -> tuple[float, float]:
    """og:12's build peak, and what it holds after a JSON export, per class."""
    return tuple(map(float, _run(_OG12).split()))


def test_held_bytes_per_class_stay_bounded():
    # After the build and a JSON export, og:12 holds its nodes (no id string,
    # no fingerprint) and one tuple of lower covers: the other lookups are
    # built on first use, and the export gathers upper covers a dimension at
    # a time.  Measured at 234 B a class; 307 with an id string in each node,
    # 519 with a fingerprint too and the covers keyed by id, and six eager
    # maps held 842.
    held = _og12_bytes_per_class()[1]
    assert held <= 270, held


def test_text_hasse_holds_no_more_a_class_than_a_json_export():
    # Text hasse reads the tokens of one dimension at a time, from its classes
    # and the lower covers of the next, so like the JSON export it builds no
    # lookup over the whole poset.  Measured at 232 B a class on og:12, and
    # 472 while it built a (dim, degree) lookup and the upper covers.
    out = _run(
        """
import contextlib, os, tracemalloc
from schubflex import cli, poset, weyl
weyl.build_cartan("D", 12)
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    cli.main(["hasse", "og:3"])  # loads golden and builds what a process builds once
    tracemalloc.start()
    code = cli.main(["hasse", "og:12"])
print(code, tracemalloc.get_traced_memory()[0] / len(poset.quotient("og", 12).nodes))
"""
    )
    code, held = out.split()
    assert code == "0" and float(held) <= 270, held


def test_build_peak_bytes_per_class_stay_bounded():
    # The BFS keeps fingerprints for three dimensions only, and builds each
    # node and its tuple of lower covers as it finds the class, so the build
    # peaks at about what the poset holds: measured at 235 B a class on
    # og:12, 295 while the poset turned lists of cover indices into node
    # tuples, 349 with an id string in each node and 569 while the index
    # held every fingerprint.
    peak = _og12_bytes_per_class()[0]
    assert peak <= 270, peak


def test_a_class_outside_its_dimension_slice_is_refused():
    # The poset checks every class against its dimension's slice, not only
    # the slices' ends: og:9 has 4 classes of dim 6 and 5 of dim 7, and the
    # second of each trade places; then the slices stop one class short.
    p = quotient("og", 9)
    nodes, (six, seven) = list(p.nodes), (p._starts[6] + 1, p._starts[7] + 1)
    nodes[six], nodes[seven] = nodes[seven], nodes[six]
    with pytest.raises(InternalError, match=r"class n\d+ of dim 7 is out of BFS order"):
        QuotientPoset(p.datum, p.marked, tuple(nodes), p._down, p._starts)
    with pytest.raises(InternalError, match="dimension slices span 0..255 of 256 classes"):
        QuotientPoset(p.datum, p.marked, p.nodes, p._down, (*p._starts[:-1], 255))
    QuotientPoset(p.datum, p.marked, p.nodes, p._down, p._starts)  # as built, it passes


def test_a_lifted_cover_that_is_no_coset_is_refused(monkeypatch):
    # The BFS reflects each class's fingerprint by each ascending letter once
    # to find its children, and the lift of a cover y by letter i repeats
    # one of y's reflections; a reflection that answers wrong when repeated
    # lifts a cover off the quotient.
    seen, reflect = set(), weyl.reflect

    def wrong_on_repeat(datum, i, v):
        if (i, tuple(v)) in seen:
            return (9,) * datum.rank
        seen.add((i, tuple(v)))
        return reflect(datum, i, v)

    monkeypatch.setattr(poset.weyl, "reflect", wrong_on_repeat)
    with pytest.raises(InternalError, match=r"fingerprint \(9, 9, 9, 9, 9\) is not a coset"):
        poset._quotient.__wrapped__(weyl.build_cartan("D", 5), frozenset({5}))


# What QuotientPoset.__init__ stores; every other attribute is a lookup built on first use.
_CONSTRUCTION_FIELDS = ["_down", "_starts", "datum", "dimension", "marked", "nodes"]


def test_hasse_exports_leave_the_fingerprint_replay_unbuilt():
    out = _run(
        """
import contextlib, io
from schubflex import cli, poset
argvs = (["og:9", "--json"], ["gr:5,11", "--dot"], ["og:9"], ["lg:8"], ["e6"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["hasse", *argv]) for argv in argvs]
built = [sorted(vars(poset.quotient(*s))) for s in (("og", 9), ("gr", 5, 11), ("lg", 8), ("e6",))]
print(codes, built)
"""
    )
    assert out.strip() == f"[0, 0, 0, 0, 0] {[_CONSTRUCTION_FIELDS] * 4}"


def test_verify_all_builds_no_lookup_but_the_og5_cone_gates_fingerprints():
    # Upper covers are read off the stored lower covers, so the certificates
    # build no cover map; only the og:5 cone gate reads fingerprints.
    out = _run(
        f"""
import contextlib, gc, io
from schubflex import cli
from schubflex.poset import QuotientPoset
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all"])
posets = [p for p in gc.get_objects() if isinstance(p, QuotientPoset)]
built = {{
    f"{{p.type_label()}}/{{min(p.marked)}}": sorted(set(vars(p)) - set({_CONSTRUCTION_FIELDS!r}))
    for p in posets
}}
print(code, len(posets), sorted(built.items()))
"""
    )
    built = [("D5/5", ["_fingerprints"])]
    built += [(f"E6/{k}", []) for k in (1, 5, 6)] + [(f"E7/{k}", []) for k in (1, 6, 7)]
    assert out.strip() == f"0 7 {built}"



def test_certificates_build_no_fingerprint_map_of_the_larger_sweep_sides():
    # A sweep holds the fingerprints of its side with fewer classes only, so
    # E7/P6 (756 classes, swept from E7/P7) and E6/P5 (216, from E6/P6) keep none.
    out = _run(
        """
from schubflex import tits, weyl
from schubflex.certify import certificates
problems = [certificates(target).problems for target in ("e6", "e7")]
sides = [
    tits.make_context(weyl.build_cartan(family, rank), {p}, {q}).p_poset
    for family, rank, p, q in (("E", 7, 6, 7), ("E", 6, 5, 6))
]
built = [sorted(set(vars(side)) & {"_fingerprints", "_by_fp"}) for side in sides]
print(problems, [len(side.nodes) for side in sides], built)
"""
    )
    assert out.strip() == "[(), ()] [756, 216] [[], []]"

def _oracle_posets():
    e7p6 = make_context(weyl.build_cartan("E", 7), {7}, {6}).q_poset
    selectors = [("e6",), ("e7",), ("og", 9), ("lg", 8), ("gr", 5, 11), ("gr", 1, 64), ("quad", 80)]
    return [e7p6] + [quotient(*selector) for selector in selectors] + [
        build_quotient_poset(weyl.build_cartan(family, rank), marked)
        for family, rank, marked in (("A", 5, {2, 4}), ("D", 6, {1, 5}))
    ]


def test_replayed_fingerprints_lookups_and_duals_match_the_word_oracle():
    # The oracle applies each minimal word to lambda_P letter by letter, and
    # spells w_0 as a word; the poset replays parent links and looks duals up.
    for p in _oracle_posets():
        label = f"{p.type_label()}/{sorted(p.marked)}"
        w0 = longest_element(p.datum, range(1, p.datum.rank + 1))
        fps = [fingerprint(p, n) for n in p.nodes]
        by_fp = dict(zip(fps, p.nodes))
        assert len(by_fp) == len(p.nodes), label
        for n, fp in zip(p.nodes, fps):
            assert p.fingerprint(n) == fp, (label, n.id)
            assert node_by_fingerprint(p, fp) is n, (label, n.id)
            assert p.poincare_dual(n) is by_fp[weyl.act(p.datum, w0, fp)], (label, n.id)


def test_graded_with_unique_ends(e6, og510):
    for p in (e6, og510):
        bottoms = [n for n in p.nodes if not p.lower_covers(n)]
        assert bottoms == [p.bottom()]
        tops = [n for n in p.nodes if not p.upper_covers(n)]
        assert tops == [p.top()]
        for lo, hi in p.covers:
            assert hi.dim == lo.dim + 1


def test_covers_are_tuples_of_the_posets_own_nodes(e6, e7p1):
    g37 = build_quotient_poset(weyl.build_cartan("A", 6), {3})
    for p in (e6, e7p1, g37):
        for n in p.nodes:
            for covers in (p.upper_covers(n), p.lower_covers(n)):
                assert isinstance(covers, tuple)
                assert all(c is p.nodes[c.index] for c in covers)
                assert [c.index for c in covers] == sorted(c.index for c in covers)
        assert sum(len(p.lower_covers(n)) for n in p.nodes) == len(p.covers)


def test_poincare_polynomial_palindromic(e6):
    for family, rank, marked in [("E", 6, {6}), ("E", 7, {7}), ("A", 5, {2}), ("D", 4, {4}), ("C", 3, {3}), ("E", 6, {5})]:
        p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
        counts = [len(p.nodes_by_dim(d)) for d in range(p.dimension + 1)]
        assert counts == counts[::-1], f"{family}{rank}/{sorted(marked)} not palindromic"


def test_leq_matches_cover_closure(e6):
    reach = {n.id: {n.id} for n in e6.nodes}
    for n in sorted(e6.nodes, key=lambda x: -x.dim):
        for hi in e6.upper_covers(n):
            reach[n.id] |= reach[hi.id]
    for a in e6.nodes:
        for b in e6.nodes:
            assert bruhat_leq(e6, a, b) == (b.id in reach[a.id]), f"{a.id} vs {b.id}"


# Every pair of the first quotients, and 5,000 seeded pairs of each of the larger ones.
LEQ_ALL_PAIRS = (
    ("E", 6, {6}), ("E", 7, {7}), ("A", 5, {3}), ("D", 5, {5}), ("C", 4, {4}), ("B", 3, {1}),
)
LEQ_SAMPLED = (("E", 7, {6}), ("E", 6, {5}), ("E", 7, {2}), ("E", 6, {2, 5}))


def test_leq_agrees_with_the_lifting_oracle():
    # leq reads the order off the covers; the oracle runs the lifting
    # recursion on w^{-1}(rho) vectors and reads no cover.
    rng = random.Random(31)
    for family, rank, marked in LEQ_ALL_PAIRS + LEQ_SAMPLED:
        p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
        if (family, rank, marked) in LEQ_ALL_PAIRS:
            pairs = [(a, b) for a in p.nodes for b in p.nodes]
        else:
            pairs = [(rng.choice(p.nodes), rng.choice(p.nodes)) for _ in range(5000)]
        wrong = [(a.id, b.id) for a, b in pairs if p.leq(a, b) != bruhat_leq(p, a, b)]
        assert wrong == [], f"{family}{rank}/{sorted(marked)}: {wrong[:5]}"


def test_covers_equal_simple_step_edges_on_minuscule():
    cases = [
        ("A", 3, {2}),
        ("A", 4, {2}),
        ("D", 4, {4}),
        ("D", 5, {5}),
        ("D", 4, {1}),
        ("B", 3, {1}),   # odd quadric: a chain, so the graphs agree here too
        ("C", 3, {3}),   # Lagrangian: likewise
        ("E", 6, {6}),
        ("E", 7, {7}),
    ]
    for family, rank, marked in cases:
        p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
        assert list(p.covers) == bfs_edges(p), f"{family}{rank}/{sorted(marked)}"


ORACLE_CASES = [
    ("A", 1, {1}),
    ("A", 4, {2}),
    ("A", 5, {1, 3}),
    ("A", 4, {1, 2, 3, 4}),  # full flag variety
    ("B", 2, {1, 2}),
    ("B", 3, {1}),
    ("B", 3, {3}),
    ("B", 4, {1, 2, 3, 4}),
    ("C", 3, {1, 2}),
    ("C", 3, {3}),
    ("C", 4, {2, 4}),
    ("D", 4, {1, 3, 4}),
    ("D", 4, {2}),
    ("D", 5, {5}),
    ("E", 6, {2}),
    ("E", 6, {1, 6}),
    ("E", 7, {7}),
    ("E", 7, {6}),
]


@pytest.mark.parametrize(
    "family, rank, marked",
    ORACLE_CASES,
    ids=[f"{f}{r}-{'.'.join(map(str, sorted(m)))}" for f, r, m in ORACLE_CASES],
)
def test_covers_equal_pairwise_leq_oracle(family, rank, marked):
    p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
    assert list(p.covers) == pairwise_covers(p)


@st.composite
def small_quotients(draw):
    family = draw(st.sampled_from("ABCDE"))
    low, high = {"A": (1, 7), "B": (2, 4), "C": (2, 4), "D": (3, 5), "E": (6, 7)}[family]
    rank = draw(st.integers(low, high))
    marked = draw(st.sets(st.integers(1, rank), min_size=1))
    datum = weyl.build_cartan(family, rank)
    gens = [i for i in range(1, rank + 1) if i not in marked]
    size = closed_forms.weyl_order(datum) // (closed_forms.levi_order(datum, gens) if gens else 1)
    return datum, marked, size


@settings(max_examples=40, deadline=None)
@given(small_quotients().filter(lambda q: q[2] <= 300))
def test_covers_equal_pairwise_leq_oracle_random(quotient):
    datum, marked, _ = quotient
    p = build_quotient_poset(datum, marked)
    assert list(p.covers) == pairwise_covers(p), f"{p.type_label()}/{sorted(marked)}"


def test_lower_interval_equals_leq_filter(e6, e7p7, e7p1):
    for p in (e6, e7p7, e7p1):
        for apex in p.nodes:
            assert p.lower_interval(apex) == [n for n in p.nodes if bruhat_leq(p, n, apex)]


def test_order_formula_mismatch_raises_internal_error(monkeypatch):
    # A3/P2 has 6 cosets; a wrong Levi order makes the formula say 3.  The
    # cache is emptied around the test, so the check meets a fresh
    # enumeration whatever other tests have built (the g24 fixture caches
    # A3/P2), and nothing built under the patched formula outlives it.
    poset._quotient.cache_clear()
    monkeypatch.setattr(closed_forms, "levi_order", lambda datum, generators: 8)
    try:
        with pytest.raises(InternalError, match="enumerated 6 cosets, order formula says 3"):
            build_quotient_poset(weyl.build_cartan("A", 3), {2})
    finally:
        poset._quotient.cache_clear()


def test_repeat_build_returns_the_shared_poset():
    g24 = build_quotient_poset(weyl.build_cartan("A", 3), {2})
    assert build_quotient_poset(weyl.build_cartan("A", 3), [2]) is g24
    assert isinstance(g24.nodes, tuple) and isinstance(g24.covers, tuple)


def test_size_cap_checked_for_cached_quotient():
    e6 = build_quotient_poset(weyl.build_cartan("E", 6), {6})
    assert build_quotient_poset(e6.datum, {6}, size_cap=27) is e6
    with pytest.raises(ValueError, match="27 cosets, above the cap of 26"):
        build_quotient_poset(e6.datum, {6}, size_cap=26)


def test_nodes_are_frozen(e6):
    with pytest.raises(AttributeError):
        e6.top().degree = 1
    assert e6.top().degree == 78


def test_degree_definedness_follows_minusculity():
    b3 = build_quotient_poset(weyl.build_cartan("B", 3), {1})
    assert not minuscule(b3.datum, b3.marked)
    assert all(n.degree is None for n in b3.nodes)
    d4 = build_quotient_poset(weyl.build_cartan("D", 4), {1})
    assert minuscule(d4.datum, d4.marked)
    assert [sorted(x.degree for x in d4.nodes_by_dim(d)) for d in range(7)] == [
        [1], [1], [1], [1, 1], [2], [2], [2]
    ]
    e6p5 = build_quotient_poset(weyl.build_cartan("E", 6), {5})
    assert all(n.degree is None for n in e6p5.nodes)


def test_degree_cover_sum_recursion(e6):
    for n in e6.nodes:
        if n.dim == 0:
            assert n.degree == 1
        else:
            assert n.degree == sum(x.degree for x in e6.lower_covers(n))


def test_poincare_dual_involution_and_complement(e6, g24, og510):
    for p in (e6, g24, og510):
        for n in p.nodes:
            d = p.poincare_dual(n)
            assert d.dim == p.dimension - n.dim
            assert p.poincare_dual(d).id == n.id
    assert e6.poincare_dual(e6.bottom()).id == e6.top().id


def test_poincare_dual_reverses_order(e6):
    for a in e6.nodes:
        for b in e6.nodes:
            if bruhat_leq(e6, a, b):
                assert bruhat_leq(e6, e6.poincare_dual(b), e6.poincare_dual(a))


# Every single-node marking of these types, plus a few two-node markings.
DUAL_TYPES = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(1, 7)] + [("D", r) for r in range(2, 8)] + [("E", 6), ("E", 7)]
)
DUAL_MARKINGS = [(f, r, {i}) for f, r in DUAL_TYPES for i in range(1, r + 1)] + [
    ("A", 5, {2, 4}), ("B", 4, {1, 4}), ("D", 5, {1, 4}), ("D", 6, {5, 6}), ("E", 6, {1, 6}),
]


def test_poincare_dual_matches_the_word_of_w0():
    # The closed form -iota(fp) against w_0 spelled as a word and applied.
    checked = 0
    for family, rank, marked in DUAL_MARKINGS:
        p = build_quotient_poset(weyl.build_cartan(family, rank), marked)
        for n in p.nodes:
            assert p.poincare_dual(n) is word_dual(p, n), f"{family}{rank} {sorted(marked)} {n.id}"
        checked += len(p.nodes)
    assert checked == 25292


def test_missing_dual_is_an_internal_error(monkeypatch):
    # With iota wrongly the identity on A4, -(1, 0, 0, 0) is no class of P^4.
    p = quotient("gr", 1, 5)
    monkeypatch.setattr(closed_forms, "opposition", lambda datum: tuple(range(datum.rank)))
    with pytest.raises(InternalError, match=f"of {p.bottom().id} is not a coset"):
        p.poincare_dual(p.bottom())


@pytest.mark.parametrize(
    "selector,minuscule_head",
    [
        ("e6", True), ("e7", True), ("gr:3,7", True), ("gr:4,9", True), ("og:7", True),
        ("lg:5", False), ("quad:7", False), ("quad:8", True),
        # Sizes the pairwise leq oracle cannot reach.
        ("og:12", True), ("lg:10", False), ("gr:6,12", True),
        ("og:14", True), ("lg:12", False), ("gr:6,14", True),
    ],
)
def test_heap_ideals_rebuild_the_family_poset(selector, minuscule_head):
    head, _, params = selector.partition(":")
    p = quotient(head, *(int(x) for x in params.split(",") if x))
    classes, covers = heap_quotient(p.datum, p.marked)
    assert set(classes) == {p.fingerprint(n) for n in p.nodes}
    for n in p.nodes:
        dim, extensions = classes[p.fingerprint(n)]
        assert (n.dim, n.degree) == (dim, extensions if minuscule_head else None), n.id
    assert covers == {(p.fingerprint(lo), p.fingerprint(hi)) for lo, hi in p.covers}


def test_build_reflects_once_per_ascent_and_per_lifted_cover(monkeypatch):
    # The BFS reflects each class by each letter that goes up from it, and the
    # cover recursion once per lifted cover: every cover but the #classes - 1
    # parent edges, which the BFS already holds.
    calls = []
    reflect = weyl.reflect

    def counted(*args):
        calls.append(None)
        return reflect(*args)

    monkeypatch.setattr(weyl, "reflect", counted)
    try:
        for family, rank, marked in (("E", 7, {6}), ("E", 6, {6}), ("A", 5, {2, 4}), ("D", 6, {1, 5})):
            datum = weyl.build_cartan(family, rank)
            poset._quotient.cache_clear()
            calls.clear()
            p = build_quotient_poset(datum, marked)
            built = len(calls)  # the oracle below reflects too
            ascents = sum(x > 0 for n in p.nodes for x in fingerprint(p, n))
            assert built == ascents + len(p.covers) - len(p.nodes) + 1, (family, rank)
    finally:
        poset._quotient.cache_clear()


def test_meets_and_joins_exist(e6, g24, og510):
    for p in (e6, g24, og510):
        leq = partial(bruhat_leq, p)
        for a in p.nodes:
            for b in p.nodes:
                lower = [c for c in p.nodes if leq(c, a) and leq(c, b)]
                maximal = [c for c in lower if not any(leq(c, d) and c.id != d.id for d in lower)]
                assert len(maximal) == 1, f"meet of {a.id},{b.id} not unique in {p.type_label()}"
                upper = [c for c in p.nodes if leq(a, c) and leq(b, c)]
                minimal = [c for c in upper if not any(leq(d, c) and c.id != d.id for d in upper)]
                assert len(minimal) == 1, f"join of {a.id},{b.id} not unique in {p.type_label()}"


def test_interval_chain_counts_of_top_recover_degrees(e6, og510):
    for p in (e6, og510):
        counts = interval_chain_counts(p, p.lower_interval(p.top()))
        assert counts == {n: n.degree for n in p.nodes}


def test_size_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        build_quotient_poset(weyl.build_cartan("E", 7), set(range(1, 8)))


def _exported(export) -> str:
    out = io.StringIO()
    export(out)
    return out.getvalue()


def test_json_export_shape(g24):
    doc = json.loads(_exported(g24.to_json))
    assert doc["type"] == "A3"
    assert doc["parabolic"] == [2]
    assert len(doc["nodes"]) == 6
    assert doc["nodes"][0] == {"id": "n000", "dim": 0, "degree": 1, "min_word": []}
    ids = {n["id"] for n in doc["nodes"]}
    for lo, hi in doc["covers"]:
        assert lo in ids and hi in ids
    # byte-determinism
    assert _exported(g24.to_json) == _exported(g24.to_json)


def test_json_export_matches_the_stdlib_encoder():
    selectors = [("e6",), ("e7",)]
    selectors += [("gr", k, n) for n in range(2, 12) for k in range(1, n)]
    selectors += [("og", n) for n in range(2, 10)] + [("lg", n) for n in range(1, 9)]
    selectors += [("quad", n) for n in range(1, 40) if n != 2]
    assert len(selectors) == 111
    for selector in selectors:
        p = quotient(*selector)
        expected = json.dumps(poset_json_dict(p), sort_keys=True, indent=2) + "\n"
        assert _exported(p.to_json) == expected, selector


def test_dot_export_shape(g24):
    dot = _exported(g24.to_dot)
    assert dot.startswith("digraph")
    assert 'n000 [label="0:1"];' in dot
    assert dot.count("->") == len(g24.covers)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
