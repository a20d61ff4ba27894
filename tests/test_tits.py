"""Unit tests for the incidence-sweep transform between parabolic quotients."""

from itertools import islice

import pytest

from oracles import (
    bruhat_leq,
    max_rep_word,
    min_word,
    node_by_id,
    scan_depth2_oracle,
    scan_witness,
    sweep_targets,
    w0q_word,
)
from schubflex import poset, tits, weyl
from schubflex.certify import depth2_oracle
from schubflex.closed_forms import InternalError
from schubflex.golden import node_token, resolve_token
from schubflex.poset import build_quotient_poset
from schubflex.tits import (
    context_json_dict,
    injectivity_check,
    make_context,
    tits_flexibility_witness,
    transform,
    transform_rows,
    transform_shift,
)
from schubflex.witnesses import basic_witness_homes

# (family, rank, P node, Q node) of every context verify builds
VERIFY_CONTEXTS = [
    ("E", 6, 6, 1),
    ("E", 6, 6, 5),
    ("E", 6, 5, 6),
    ("E", 7, 7, 1),
    ("E", 7, 1, 7),
    ("E", 7, 7, 6),
    ("E", 7, 6, 7),
]


@pytest.fixture(scope="module")
def a2ctx():
    datum = weyl.build_cartan("A", 2)
    return make_context(datum, {1}, {2})


def test_a2_worked_example(a2ctx):
    # sweeping a point of P^2* through the flag variety gives a line's worth
    # of points: the dim-1 class of P^2
    assert a2ctx.d_tau == 1
    bot = a2ctx.q_poset.bottom()
    assert transform(a2ctx, bot).dim == 1
    assert injectivity_check(a2ctx, bot)
    # the whole space sweeps onto the whole space, dropping fiber dimension
    top = a2ctx.q_poset.top()
    assert transform(a2ctx, top).dim == 2
    assert not injectivity_check(a2ctx, top)


def test_a2_max_rep_concatenation(a2ctx):
    # w0_Q is the longest element of the subgroup missing node 2, so <s1>
    assert w0q_word(a2ctx) == (1,)
    mid = a2ctx.q_poset.nodes_by_dim(1)[0]
    assert max_rep_word(a2ctx, mid) == (1,) + min_word(a2ctx.q_poset, mid)


def test_transform_shift_table():
    e6 = weyl.build_cartan("E", 6)
    e7 = weyl.build_cartan("E", 7)
    expected = [
        (e6, {6}, {1}, 8),
        (e6, {6}, {5}, 1),
        (e6, {5}, {6}, 10),
        (e7, {7}, {1}, 10),
        (e7, {7}, {6}, 1),
        (e7, {6}, {7}, 16),
    ]
    for datum, p, q, want in expected:
        got = transform_shift(datum, p, q)
        assert got == want, f"shift for {datum.family}{datum.rank} P={p} Q={q}: {got} != {want}"


@pytest.fixture
def ctx61(e6p6):
    return make_context(e6p6.datum, {6}, {1})


def test_e6_linear_chain_transforms(ctx61, e6p1, e6p6):
    chain = {
        "0:1": "8:2",
        "1:1": "9:9",
        "2:1": "10:21",
        "3:1": "11:33",
        "4:1a": "12:45",
        "4:1b": "12:33",
    }
    for src_tok, dst_tok in chain.items():
        src = resolve_token(e6p1, src_tok)
        dst = transform(ctx61, src)
        assert node_token(e6p6, dst) == dst_tok, f"{src_tok} swept to {node_token(e6p6, dst)}"
        assert injectivity_check(ctx61, src)


def test_e6_collapsing_cover(ctx61, e6p1, e6p6):
    # the two P^5 covers of the non-maximal P^4 behave differently: one keeps
    # the sweep generically finite, the other collapses onto the same target
    p4b = resolve_token(e6p1, "4:1b")
    covers = {node_token(e6p1, c): c for c in ctx61.q_poset.upper_covers(p4b)}
    assert set(covers) == {"5:1", "5:2"}
    assert node_token(e6p6, transform(ctx61, covers["5:2"])) == "13:78"
    assert injectivity_check(ctx61, covers["5:2"])
    assert node_token(e6p6, transform(ctx61, covers["5:1"])) == "12:33"
    assert not injectivity_check(ctx61, covers["5:1"])
    # both P^4 classes and the collapsing P^5 land on classes of the same
    # degree-33 pair, so the degree bookkeeping has to tell them apart
    assert transform(ctx61, covers["5:1"]).id == transform(ctx61, p4b).id


def test_e6_injectivity_profile(ctx61, e6p1):
    profile = {}
    for node in e6p1.nodes:
        ok = injectivity_check(ctx61, node)
        key = node.dim
        t, f = profile.get(key, (0, 0))
        profile[key] = (t + 1, f) if ok else (t, f + 1)
    expected = {0: (1, 0), 1: (1, 0), 2: (1, 0), 3: (1, 0), 4: (2, 0)}
    expected.update({5: (1, 1), 6: (1, 1), 7: (1, 1), 8: (1, 2)})
    expected.update({d: (0, 2) for d in range(9, 13)})
    expected.update({d: (0, 1) for d in range(13, 17)})
    assert profile == expected


def test_e6_transform_monotone_on_covers(ctx61, e6p1, e6p6):
    for lo, hi in e6p1.covers:
        a, b = transform(ctx61, lo), transform(ctx61, hi)
        assert bruhat_leq(e6p6, a, b), f"sweep broke the order on cover {lo.id} < {hi.id}"


def test_e6_max_rep_words_all_reduced(ctx61, e6p1):
    base = len(w0q_word(ctx61))
    for node in e6p1.nodes:
        word = max_rep_word(ctx61, node)  # checks reducedness internally
        assert len(word) == base + node.dim


def test_e6_composite_through_lines(e6p6):
    # going down to the line quotient and back up: P^0, P^1, P^2, P^3 come
    # back 11, 12, 13, 14 dimensions heavier
    datum = e6p6.datum
    down = make_context(datum, {5}, {6})
    up = make_context(datum, {6}, {5})
    assert down.d_tau == 10 and up.d_tau == 1
    want = {"0:1": "11:12", "1:1": "12:45", "2:1": "13:78", "3:1": "14:78"}
    for src_tok, dst_tok in want.items():
        x = resolve_token(e6p6, src_tok)
        mid = transform(down, x)
        assert mid.dim == x.dim + 10 and injectivity_check(down, x)
        out = transform(up, mid)
        assert node_token(e6p6, out) == dst_tok
        assert injectivity_check(up, mid) == (out.dim == mid.dim + 1)


def test_e7_endpoint_transforms(e7p7, e7p1, e7p6):
    datum = e7p7.datum
    ctx71 = make_context(datum, {7}, {1})
    assert node_token(e7p7, transform(ctx71, e7p1.bottom())) == "10:2"
    assert injectivity_check(ctx71, e7p1.bottom())
    assert node_token(e7p7, transform(ctx71, e7p1.top())) == "27:13110"
    assert not injectivity_check(ctx71, e7p1.top())

    ctx76 = make_context(datum, {7}, {6})
    assert node_token(e7p7, transform(ctx76, e7p6.bottom())) == "1:1"

    ctx67 = make_context(datum, {6}, {7})
    apex = transform(ctx67, e7p7.bottom())
    assert apex.dim == 16
    assert injectivity_check(ctx67, e7p7.bottom())


def test_e7_composite_through_lines(e7p7):
    datum = e7p7.datum
    down = make_context(datum, {6}, {7})
    up = make_context(datum, {7}, {6})
    want = {
        "0:1": ("17:78", True),
        "1:1": ("18:520", True),
        "2:1": ("19:1710", True),
        "5:1a": ("22:7524", True),
        "5:1b": ("22:5586", True),
        "6:1": ("22:5586", False),
    }
    for src_tok, (dst_tok, inj_up) in want.items():
        x = resolve_token(e7p7, src_tok)
        mid = transform(down, x)
        assert injectivity_check(down, x), f"{src_tok} lost dimension going down"
        out = transform(up, mid)
        assert node_token(e7p7, out) == dst_tok
        assert injectivity_check(up, mid) == inj_up


def test_transform_rows_and_json(a2ctx):
    rows = transform_rows(a2ctx)
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"src", "dst", "injective"}
        assert set(row["src"]) == {"id", "dim", "deg"}
    doc = context_json_dict(a2ctx)
    assert doc["context"] == {"type": "A2", "P": [1], "Q": [2], "d_tau": 1}
    assert doc["rows"] == rows


def test_certificate_needs_home_injectivity(ctx61, e6p1, e6p6):
    oracle = lambda src: basic_witness_homes(e6p1, src)
    certified = {}
    for node in e6p6.nodes:
        w = tits_flexibility_witness(ctx61, node, oracle)
        if w is not None:
            certified[node_token(e6p6, node)] = w.payload
    assert set(certified) == {"9:9", "10:21", "11:33", "13:78", "14:78", "15:78"}
    # the movable P^4 transforms injectively onto 12:33, and 12:33 still must
    # not be certified: the hypersurface witnesses live only inside the P^5
    # whose sweep collapses
    assert "12:33" not in certified
    first = certified["9:9"]
    assert first["source"] == resolve_token(e6p1, "1:1").id
    assert first["home"] == resolve_token(e6p1, "2:1").id
    assert first["d_tau"] == 8
    assert first["context"] == "E6(P={6},Q={1})"


def test_certificate_ignores_foreign_homes(ctx61, e6p1, e6p6):
    # an oracle answer that is not an upper cover of the source is discarded
    # instead of trusted
    top = e6p1.top()
    oracle = lambda src: [top]
    for node in e6p6.nodes:
        assert tits_flexibility_witness(ctx61, node, oracle) is None


def test_certificate_discards_homes_that_are_not_covers_of_the_source(ctx61, e6p1, e6p6):
    # E6/P1 and E6/P6 both number their 27 classes n000..n026, so a class of
    # the other poset can carry the id of a real cover; it is still no cover.
    assert any(tits_flexibility_witness(ctx61, n, e6p1.upper_covers) for n in e6p6.nodes)
    oracles = [
        lambda src: [e6p6.top()],
        lambda src: [e6p1.bottom()],
        lambda src: [node_by_id(e6p6, c.id) for c in e6p1.upper_covers(src)],
    ]
    for oracle in oracles:
        for node in e6p6.nodes:
            assert tits_flexibility_witness(ctx61, node, oracle) is None


def test_context_map_is_the_per_class_sweep():
    small = [
        (family, rank, p, q)
        for family, rank in (("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4))
        for p in range(1, rank + 1)
        for q in range(1, rank + 1)
    ]
    # one higher-rank context per classical family, each with a long w0_Q
    wide = [("A", 12, 1, 12), ("B", 5, 1, 5), ("C", 5, 5, 2), ("D", 7, 7, 1)]
    for family, rank, p, q in VERIFY_CONTEXTS + small + wide:
        ctx = make_context(weyl.build_cartan(family, rank), {p}, {q})
        targets = sweep_targets(ctx)
        assert {n.id: t.id for n, t in zip(ctx.q_poset.nodes, ctx.targets)} == targets, ctx.label()
        inverse = {}
        for node in ctx.q_poset.nodes:
            inverse.setdefault(targets[node.id], []).append(node.id)
        sources = {
            t.id: tuple(n.id for n in v) for t, v in zip(ctx.p_poset.nodes, ctx.sources) if v
        }
        assert sources == {k: tuple(v) for k, v in inverse.items()}, ctx.label()


def test_witnesses_equal_the_scanning_oracle(e6p6, e7p7):
    ctx61 = make_context(e6p6.datum, {6}, {1})
    ctx76 = make_context(e7p7.datum, {7}, {6})
    # Under the real oracles at most one source of a class has a faithful home,
    # so source order shows only under an oracle that vouches every cover.
    cases = [
        (ctx61, lambda src: basic_witness_homes(ctx61.q_poset, src)),
        (ctx76, depth2_oracle(make_context(e7p7.datum, {6}, {7}))),
        (ctx61, ctx61.q_poset.upper_covers),
        (ctx76, ctx76.q_poset.upper_covers),
    ]
    for ctx, oracle in cases:
        targets = sweep_targets(ctx)
        certified = 0
        for node in ctx.p_poset.nodes:
            w = tits_flexibility_witness(ctx, node, oracle)
            assert w == scan_witness(ctx, targets, node, oracle), f"{ctx.label()} {node.id}"
            certified += w is not None
        assert certified, f"{ctx.label()} certifies nothing, so the comparison is vacuous"


def test_depth2_oracle_equals_the_scanning_oracle(e6p6, e7p7):
    for datum, p, q in ((e6p6.datum, 5, 6), (e7p7.datum, 6, 7)):
        rev = make_context(datum, {p}, {q})
        live, scan = depth2_oracle(rev), scan_depth2_oracle(rev, sweep_targets(rev))
        for src in rev.p_poset.nodes:
            assert live(src) == scan(src), f"{rev.label()} {src.id}"


def test_contexts_are_immutable(ctx61, e6p1):
    def fields(ctx):
        return (ctx.datum, ctx.p_poset, ctx.q_poset, ctx.d_tau, ctx.targets, ctx.sources)

    before = fields(ctx61)
    targets = list(ctx61.targets)
    with pytest.raises(AttributeError):
        setattr(ctx61, "d_tau", 0)
    with pytest.raises(TypeError):
        ctx61.targets[e6p1.bottom().index] = ctx61.targets[0]
    for node in e6p1.nodes:
        transform(ctx61, node)
    assert all(now is then for now, then in zip(fields(ctx61), before))
    assert list(ctx61.targets) == targets


def test_classes_of_two_builds_of_one_quotient_never_mix():
    # A class is its node: after the quotient cache is cleared, the rebuilt
    # E6/P1 numbers its classes as the first build did, field for field, and
    # still none of them equals its twin, covers one, or vouches for a sweep.
    datum = weyl.build_cartan("E", 6)
    ctx = make_context(datum, {6}, {1})
    first = ctx.q_poset
    poset._quotient.cache_clear()
    try:
        second = build_quotient_poset(datum, {1})
    finally:
        poset._quotient.cache_clear()
    assert second is not first and len(second.nodes) == len(first.nodes)
    for a, b in zip(first.nodes, second.nodes):
        assert a.id == b.id and (a.dim, a.degree) == (b.dim, b.degree)
        assert a != b and b not in {a}
    for lo, hi in first.covers:
        assert second.nodes[hi.index] not in first.upper_covers(lo)
        assert second.nodes[lo.index] not in first.lower_covers(hi)
    assert any(tits_flexibility_witness(ctx, n, first.upper_covers) for n in ctx.p_poset.nodes)
    twins = lambda src: second.upper_covers(second.nodes[src.index])
    assert not any(tits_flexibility_witness(ctx, n, twins) for n in ctx.p_poset.nodes)



def test_a_sweep_onto_no_coset_of_g_mod_p_is_an_internal_error(monkeypatch):
    # Either side is the one held: A3/P1 (4 classes) against A3/P2 (6), and
    # A3/P2's swept fingerprints against A3/P1's.  G/P's replay here stops
    # short of its top class, onto which the top of G/Q sweeps.
    datum = weyl.build_cartan("A", 3)
    for p, q in ((1, 2), (2, 1)):
        p_poset, q_poset = build_quotient_poset(datum, {p}), build_quotient_poset(datum, {q})
        replay, short = p_poset.replay, len(p_poset.nodes) - 1
        with monkeypatch.context() as m:
            m.setattr(p_poset, "replay", lambda start, step: islice(replay(start, step), short))
            with pytest.raises(InternalError, match=rf"n\d+ sweeps to no coset of A3/P\[{p}\]"):
                tits._context.__wrapped__(p_poset, q_poset)

def test_oversized_context_is_refused_before_either_quotient_is_built():
    # The P side (node 1 of A4000 or D2000) fits both bounds and the Q side
    # does not; the order formula refuses Q before P's quotient is enumerated.
    poset._quotient.cache_clear()
    for family, rank, q in (("A", 4000, 2), ("D", 2000, 2000)):
        with pytest.raises(ValueError, match="above the cap"):
            make_context(weyl.build_cartan(family, rank), {1}, {q})
    assert poset._quotient.cache_info().misses == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
