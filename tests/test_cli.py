"""Command line surface: output formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import json
import os
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poset_json_dict, word_dual
from schubflex import classical, cli, moduli, poset, rigidity, weyl
from schubflex.isotropic import IsotropicIndex, isotropic_dimension, isotropic_dual
from schubflex.cli import main
from schubflex.golden import golden_dir, node_token
from schubflex.poset import QUOTIENTS, quotient
from schubflex.verify import verify_e6, verify_e7

SCHEMA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "schubflex",
    "data",
    "schemas",
)


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_hasse_text_g24(capsys):
    rc, out, err = run(["hasse", "gr:2,4"], capsys)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "A3 / P[2]: 6 classes, 6 covers, dimension 4"
    assert lines[1] == "  dim  0: 0:1"
    assert lines[3] == "  dim  2: 2:1 2:1"
    assert lines[5] == "  dim  4: 4:2"


def test_hasse_text_exceptional_uses_suffixed_tokens(capsys):
    rc, out, _ = run(["hasse", "e6"], capsys)
    assert rc == 0
    assert "4:1a 4:1b" in out
    assert out.splitlines()[0] == "E6 / P[6]: 27 classes, 36 covers, dimension 16"


def test_hasse_json_matches_schema(capsys):
    schema = _schema("poset.schema.json")
    for selector in ("gr:2,4", "og:4", "quad:5", "quad:6", "e6"):
        rc, out, _ = run(["hasse", selector, "--json"], capsys)
        assert rc == 0, f"BUG: hasse {selector} failed"
        blob = json.loads(out)
        jsonschema.validate(blob, schema)
    assert blob["type"] == "E6"
    assert blob["parabolic"] == [6]
    assert len(blob["nodes"]) == 27


def test_hasse_quadric_selectors_name_b_and_d(capsys):
    rc, out, _ = run(["hasse", "quad:7"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "B4 / P[1]: 8 classes, 7 covers, dimension 7"
    rc, out, _ = run(["hasse", "quad:6"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "D4 / P[1]: 8 classes, 8 covers, dimension 6"


def test_hasse_dot_output(capsys):
    rc, out, _ = run(["hasse", "gr:2,4", "--dot"], capsys)
    assert rc == 0
    assert out.startswith("digraph hasse {")
    assert 'n000 [label="0:1"];' in out
    assert "n000 -> n001;" in out
    assert out.endswith("}\n")


@pytest.mark.parametrize(
    "selector", ["e6:1", "e6:6", "e7:x", "e7:7,1", "zz", "gr:0,4", "gr:2", "og:x"]
)
def test_malformed_hasse_selector_is_usage_error(selector, capsys):
    rc, out, err = run(["hasse", selector], capsys)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "selector,words",
    [
        ("gr:2", "want gr:k,n"),
        ("gr:x,5", "want gr:k,n"),
        ("gr:2,5,7", "want gr:k,n"),
        ("gr:5,5", "need 1 <= k <= n-1 in 'gr:5,5'"),
        ("og:x", "want og:n"),
        ("lg:", "want lg:n"),
        ("quad:x", "want quad:n"),
        ("quad:3,4", "want quad:n"),
        ("zz:3", "unknown family 'zz'"),
        ("e6:1", "want e6"),
    ],
)
def test_malformed_selector_part_is_refused_alike_in_hasse_and_class_specs(
    selector, words, capsys
):
    # e6:1:1 is the e6 class token 1:1, so e6:1 is a malformed selector in hasse only.
    argvs = [["hasse", selector]]
    if not selector.startswith("e6"):
        argvs += [[command, f"{selector}:1"] for command in ("classify", "degree")]
    refusals = {run(argv, capsys) for argv in argvs}
    assert len(refusals) == 1, refusals
    ((rc, out, err),) = refusals
    assert (rc, out, err.count("\n")) == (2, "", 1) and err.startswith("error: "), err
    assert words in err
    assert "unpack" not in err and "invalid literal" not in err


def test_malformed_quadric_kind_names_the_kinds(capsys):
    rc, out, err = run(["classify", "quad:5:linear-x"], capsys)
    assert (rc, out) == (2, "")
    assert err == (
        "error: malformed quadric kind 'linear-x'"
        " (want linear-j, colinear-j, max-plus or max-minus)\n"
    )


def test_hasse_never_enumerates_roots(monkeypatch, capsys):
    # The size cap is checked from closed-form orders, so no hasse selector,
    # under the cap or over it, needs the positive roots.  The Cartan cache is
    # emptied around the test so every datum is built under the patch.
    def no_roots(datum):
        raise AssertionError(f"positive_roots({datum}) called")

    weyl.build_cartan.cache_clear()
    monkeypatch.setattr(weyl, "positive_roots", no_roots)
    try:
        for argv, code in [
            (["gr:1,64"], 0),
            (["quad:80", "--json"], 0),
            (["og:40"], 2),
            (["gr:20,40"], 2),
            (["lg:30"], 2),
        ]:
            rc, out, err = run(["hasse", *argv], capsys)
            assert rc == code, f"hasse {argv}: exit {rc}, stderr {err!r}"
            if code == 0:
                assert out and err == ""
            else:
                assert out == "" and "above the cap" in err
        rc, out, _ = run(["hasse", "gr:1,300"], capsys)
        assert rc == 0
        assert out.splitlines()[0] == "A299 / P[1]: 300 classes, 299 covers, dimension 299"
    finally:
        weyl.build_cartan.cache_clear()


def test_over_cap_selectors_refuse_before_any_cartan_datum(monkeypatch, capsys):
    # The closed-form class count is checked first, so a rank-3000 refusal
    # builds no Cartan datum.
    calls = []
    real = weyl.build_cartan
    monkeypatch.setattr(weyl, "build_cartan", lambda *args: calls.append(args) or real(*args))
    for argv in (
        ["degree", "og:3000:1"],
        ["degree", "og:1500:1"],
        ["hasse", "gr:750,1500"],
        ["hasse", "og:40"],
        ["hasse", "lg:30"],
    ):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and "above the cap" in err, (argv, err)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", "lg:100000000000000"],
        ["degree", "og:4471:1"],  # the largest og under the rank bound
        ["hasse", "gr:200000,400000"],
        ["hasse", "lg:10000000"],
        ["hasse", "og:20000"],
        ["tits", "a4000", "1", "2000"],
        ["tits", "d2000", "1", "2000"],
    ],
)
def test_huge_over_cap_counts_refuse_without_the_exact_count(argv):
    # Deciding count > cap must not build the count itself: 2**(10**14) does
    # not fit in memory, comb(400000, 200000) takes seconds, and a count past
    # 4300 digits cannot even be printed in the message.  A sweep context's
    # side is counted by the order formula, exactly, but refused in the same
    # short line as soon as its count passes 2**64.
    proc = subprocess.run(
        [sys.executable, "-m", "schubflex.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (2, ""), argv
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "more than 18446744073709551616 cosets, above the cap of 1000000" in proc.stderr


def _cli(argv, timeout):
    return subprocess.run(
        [sys.executable, "-m", "schubflex.cli", *argv], capture_output=True, text=True, timeout=timeout
    )


def test_text_hasse_of_a_wide_grassmannian_answers_quickly():
    # 19,900 classes: each token looks up its (dim, degree) peers in an index
    # instead of scanning every class.
    proc = _cli(["hasse", "gr:2,200"], timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "A199 / P[2]: 19900 classes, 39402 covers, dimension 396"


def test_tits_at_rank_1000_answers_quickly():
    # w0_Q(lambda_P) by descent and one reflection per class, not a reduced
    # word for w0_Q replayed with every class's minimal word.
    proc = _cli(["tits", "a1000", "1", "1000"], timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "context: A1000(P={1},Q={1000})  d_tau=999"
    assert len(lines) == 1002


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", "gr:1,100000"],
        ["hasse", "gr:1,20000", "--dot"],
        ["tits", "a20000", "1", "2"],
        ["tits", "a1000000", "1", "2"],
    ],
)
def test_under_cap_high_ranks_refuse_in_one_line(argv):
    # Under the size cap, but past the bound on stored fingerprint coordinates.
    proc = _cli(argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, ""), argv
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "fingerprint coordinates" in proc.stderr and str(weyl.MAX_COORDINATES) in proc.stderr


def test_coordinate_bound_is_sharp(monkeypatch):
    # 4471 * 4472 = 19,994,312 is under the bound and 4472 * 4473 is over it.
    assert weyl.MAX_COORDINATES == 2 * 10**7
    assert weyl.build_cartan("A", 4471).rank == 4471
    with pytest.raises(ValueError, match="rank 4472 is too large"):
        weyl.build_cartan("A", 4472)
    with pytest.raises(ValueError, match="79800 x 399 fingerprint coordinates"):
        poset.build_quotient_poset(weyl.build_cartan("A", 399), {2})
    # gr:1,n stores n classes of rank n - 1; the answer itself is not built here.
    built = []
    monkeypatch.setattr(poset, "build_quotient_poset", lambda datum, *args: built.append(datum.rank))
    quotient("gr", 1, 4472)
    assert built == [4471]
    with pytest.raises(ValueError, match="4473 x 4472 fingerprint coordinates"):
        quotient("gr", 1, 4473)
    assert built == [4471]


def test_commands_beyond_hasse_never_enumerate_roots(monkeypatch, capsys):
    # Sweep dimensions d_tau come from closed-form root counts, so neither the
    # certificate pipeline nor a high-rank tits context asks for the roots.
    def no_roots(datum):
        raise AssertionError(f"positive_roots({datum}) called")

    monkeypatch.setattr(weyl, "positive_roots", no_roots)
    for argv in (
        ["verify", "all"],
        ["classify", "e7:22:5586"],
        ["tits", "e7", "7", "6", "--json"],
        ["tits", "a60", "1", "60"],
    ):
        rc, out, err = run(argv, capsys)
        assert (rc, err) == (0, ""), argv
        assert out, argv


def test_dual_spells_no_word(monkeypatch, capsys):
    # w_0 acts on fingerprints as minus the opposition involution, so an
    # exceptional dual is a lookup: no reflection and no word of w_0.
    expected = {}
    for head in ("e6", "e7"):
        p = quotient(head)
        for n in p.nodes:
            expected[f"{head}:{node_token(p, n)}"] = f"{head}:{node_token(p, word_dual(p, n))}\n"
    assert len(expected) == 83

    def no_reflections(*args):
        raise AssertionError("dual reflected a weight")

    monkeypatch.setattr(weyl, "reflect", no_reflections)
    monkeypatch.setattr(weyl, "act", no_reflections)
    for spec, out in expected.items():
        assert run(["dual", spec], capsys) == (0, out, ""), spec


@pytest.mark.parametrize(
    "selector,message",
    [
        ("og:0", "family D needs rank >= 2, got 0"),
        ("og:-3", "family D needs rank >= 2, got -3"),
        ("lg:0", "family C needs rank >= 1, got 0"),
        ("quad:2", "Q^2 is not a single-marked-node quotient of B/D type here"),
    ],
)
def test_under_rank_selectors_keep_their_refusals(selector, message, capsys):
    rc, out, err = run(["hasse", selector], capsys)
    assert (rc, out, err) == (2, "", f"error: bad selector {selector!r}: {message}\n")


@pytest.mark.parametrize("head,n,label", [("og", 2, "D2 / P[2]"), ("lg", 1, "C1 / P[1]")])
def test_smallest_isotropic_families_answer_in_every_command(head, n, label, capsys):
    # D2 is modelled as A1 x A1 and C1 as A1, so OG(2,4) and LG(1,2) are both
    # P^1: a point under a line, each of degree 1.
    classes = [IsotropicIndex(head, n, lam) for lam in ((), (1,))]
    dims = [isotropic_dimension(idx) for idx in classes]
    assert sorted(dims) == [0, 1]
    rc, out, err = run(["hasse", f"{head}:{n}"], capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == f"{label}: 2 classes, 1 covers, dimension 1"
    rc, out, err = run(["hasse", f"{head}:{n}", "--json"], capsys)
    doc = json.loads(out)
    assert (rc, err) == (0, "")
    assert sorted(node["dim"] for node in doc["nodes"]) == sorted(dims)
    assert [node["degree"] for node in doc["nodes"]] == [1, 1]
    assert doc["covers"] == [[doc["nodes"][0]["id"], doc["nodes"][1]["id"]]]
    rc, out, err = run(["hasse", f"{head}:{n}", "--dot"], capsys)
    assert (rc, err, out.count("->")) == (0, "", 1)
    for idx, dim in zip(classes, dims):
        rc, out, err = run(["classify", str(idx)], capsys)
        assert (rc, err) == (0, "")
        assert f"dimension: {dim}\n" in out
        assert run(["dual", str(idx)], capsys) == (0, f"{isotropic_dual(idx)}\n", "")
        if head == "og":
            assert run(["degree", str(idx)], capsys) == (0, "1\n", "")


def test_classify_flexible_grassmannian(capsys):
    rc, out, _ = run(["classify", "gr:2,5:1,3"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "class: gr:2,5:1,3"
    assert lines[1] == "dimension: 1"
    assert lines[2].startswith("verdict: Flexible")
    assert lines[3] == "witness: ModuliGr"


def test_classify_rigid_grassmannian(capsys):
    rc, out, _ = run(["classify", "gr:3,6:2,3,6"], capsys)
    assert rc == 0
    assert "verdict: MultiRigid" in out
    assert "witness" not in out


def test_classify_flexible_class_without_a_witness_exits_1(monkeypatch, capsys):
    # The constructions decide on their own, so a flexible verdict with no
    # construction behind it is caught here, at the one place both meet.
    monkeypatch.setattr(moduli, "moduli_witness_gr", lambda idx: None)
    rc, out, err = run(["classify", "gr:2,5:1,3"], capsys)
    assert (rc, err) == (1, "witness: none found\n")
    assert out.splitlines()[2].startswith("verdict: Flexible")


def test_classify_exceptional_rigid(capsys):
    rc, out, _ = run(["classify", "e6:4:1a"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "class: e6:4:1a"
    assert "decoration: rigid" in lines
    assert "certificates: none" in lines


def test_classify_exceptional_transform_class(capsys):
    rc, out, _ = run(["classify", "e6:9:9"], capsys)
    assert rc == 0
    assert "decoration: T" in out
    assert "certificates: Tits" in out
    assert "[Tits]" in out


def _classify_lines(target, row):
    """The classify output of one verify row, rendered independently."""
    certs = ", ".join(row["certificates"]) or "none"
    lines = [
        f"class: {target}:{row['token']}",
        f"dimension: {row['dim']}",
        f"degree: {row['degree']}",
        f"decoration: {row['decoration']}",
        f"certificates: {certs}",
    ]
    for detail in row["details"]:
        lines.append(f"  [{detail['kind']}]")
        lines += [f"    {key}: {detail[key]}" for key in sorted(detail) if key != "kind"]
    return lines


def test_classify_exceptional_equals_verify_row(capsys):
    # Cone, Tits and no certificates, on both posets
    for target, tokens, report in (
        ("e6", ("6:3", "9:9", "4:1a"), verify_e6()),
        ("e7", ("7:3", "17:442", "22:5586"), verify_e7()),
    ):
        rows = {row["token"]: row for row in report.rows}
        for token in tokens:
            rc, out, err = run(["classify", f"{target}:{token}"], capsys)
            assert rc == 0 and err == ""
            assert out.splitlines() == _classify_lines(target, rows[token])


def test_classify_e7_builds_only_what_its_row_needs(capsys):
    # E7/P7, E6/P6 (cone base and interval model), E7/P1 and E7/P6
    poset._quotient.cache_clear()
    rc, _, _ = run(["classify", "e7:22:5586"], capsys)
    assert rc == 0
    assert poset._quotient.cache_info().misses == 4


def test_classify_quadric(capsys):
    rc, out, _ = run(["classify", "quad:6:max-plus"], capsys)
    assert rc == 0
    assert "verdict: MultiRigid" in out


def test_classical_classify_verdicts_come_from_rigidity_classify(monkeypatch, capsys):
    # The one dispatch from a class index to its classifier: a gr, lg, og or
    # quad class's printed verdict is what rigidity.classify returned for it.
    verdicts, original = [], rigidity.classify

    def recording(idx):
        verdict = original(idx)
        verdicts.append((str(idx), f"verdict: {verdict}"))
        return verdict

    monkeypatch.setattr(rigidity, "classify", recording)
    specs = ["gr:2,5:1,3", "lg:3:1,2", "og:5:2,3", "quad:7:linear-2"]
    runs = [run(["classify", spec], capsys) for spec in specs]
    assert [spec for spec, _ in verdicts] == specs
    for (rc, out, _), (spec, line) in zip(runs, verdicts):
        assert rc == 0 and line in out.splitlines(), (spec, out)


def test_degree_values(capsys):
    for spec, want in [
        ("gr:2,5:1,3", "1"),
        ("gr:2,5:2,5", "3"),
        ("gr:3,6:1,3,5", "2"),
        ("og:5:2,3", "3"),
        ("og:4:", "2"),
        ("quad:7:colinear-2", "2"),
        ("quad:6:max-plus", "1"),
        ("e6:16:78", "78"),
        ("e7:27:13110", "13110"),
    ]:
        rc, out, _ = run(["degree", spec], capsys)
        assert rc == 0 and out.strip() == want, f"BUG: degree {spec} printed {out!r}"


@pytest.mark.parametrize(
    "spec, count",
    [("og:21:1", "1048576"), ("og:22:1", "2097152"), ("og:70:1", "more than 18446744073709551616")],
)
def test_degree_of_an_over_cap_og_keeps_the_quotient_refusal(spec, count, capsys):
    # The degree comes from Schur's formula, but an og:n that hasse refuses is refused alike.
    rc, out, err = run(["degree", spec], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: quotient would have {count} cosets, above the cap of 1000000\n"


def test_degree_lg_refused(capsys):
    rc, out, err = run(["degree", "lg:3:1,2"], capsys)
    assert rc == 2
    assert "not implemented for lg" in err


def test_degree_of_lg1_reads_the_p1_poset(capsys):
    # LG(1,2) = P^1 is minuscule: its point and its line have degree 1, as
    # hasse lg:1 labels them; lg:2 on is refused.
    for spec in ("lg:1:", "lg:1:1"):
        assert run(["degree", spec], capsys) == (0, "1\n", "")
    rc, out, err = run(["degree", "lg:2:1"], capsys)
    assert (rc, out) == (2, "") and "not implemented for lg" in err


@pytest.mark.parametrize(
    "argv, rank",
    [
        (["classify", "gr:3,1000000:1,3,4"], 999999),
        (["dual", "og:1000000:1,2"], 1000000),
        (["classify", "gr:3,4473:1,2,3"], 4472),
        (["dual", "lg:4472:1"], 4472),
        (["classify", "og:4472:1"], 4472),
        (["dual", "quad:8942:linear-1"], 4472),
    ],
)
def test_classify_and_dual_refuse_selectors_past_the_rank_bound(argv, rank, capsys):
    # The class itself is small, but an answer that spells out a class of
    # such a selector runs to megabytes.
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: bad selector ") and f"rank {rank} is too large" in err


def test_classify_and_dual_answer_at_the_rank_bound(capsys):
    # Rank 4471 passes the bound, and Q^2 (no quotient of its own) still answers.
    for argv in (
        ["classify", "gr:3,4472:1,2,3"],
        ["dual", "lg:4471:4471"],
        ["dual", "quad:8941:linear-1"],
        ["dual", "quad:2:max-plus"],
    ):
        rc, out, err = run(argv, capsys)
        assert rc == 0 and err == "" and out, argv


def test_degree_refuses_a_selector_past_the_rank_bound(capsys):
    # As classify and dual do: before the bound, degree of this class spent
    # seconds in the hook length product, then failed to print the result.
    rc, out, err = run(["degree", "gr:3,30000:29998,29999,30000"], capsys)
    assert (rc, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: bad selector 'gr:3,30000': rank 29999 is too large")


def test_degree_past_the_digit_limit_is_refused_in_its_own_words(capsys):
    # The degree of gr:3,3000:2998,2999,3000 has 4,276 digits and prints; the
    # one of gr:3,4000 has more than Python converts to text, and the refusal
    # must not pass on Python's advice to lift that limit.
    rc, out, err = run(["degree", "gr:3,3000:2998,2999,3000"], capsys)
    assert (rc, err, len(out)) == (0, "", 4277) and out.rstrip().isdecimal()
    rc, out, err = run(["degree", "gr:3,4000:3998,3999,4000"], capsys)
    limit = sys.get_int_max_str_digits()
    assert (rc, out) == (2, "")
    assert err == f"error: the degree has more than {limit} digits, too many to print\n"


def test_degrees_on_both_sides_of_the_digit_limit(capsys):
    # gr:2,m+2:m+1,m+2 has degree Catalan(m), the hook length count of the
    # 2 x m rectangle, with 634 to 648 digits here.  Up to the limit it prints
    # in full; past it, refused on the estimate or on the exact value alike.
    limit = 640
    texts = {m: str(comb(2 * m, m) // (m + 1)) for m in range(1060, 1085)}
    assert {limit - 1, limit, limit + 1, limit + 2} <= {len(t) for t in texts.values()}
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = {m: run(["degree", f"gr:2,{m + 2}:{m + 1},{m + 2}"], capsys) for m in texts}
    finally:
        sys.set_int_max_str_digits(old)
    refused = f"error: the degree has more than {limit} digits, too many to print\n"
    for m, text in texts.items():
        want = (0, text + "\n", "") if len(text) <= limit else (2, "", refused)
        assert got[m] == want, m


def test_degree_far_past_the_digit_limit_is_refused_on_its_estimate(capsys, monkeypatch):
    # 90,000 cells: the exact hook product spent seconds here before the
    # refusal; a float estimate of the digit count refuses without it.
    def exact(idx):
        raise AssertionError("the exact degree was computed")

    monkeypatch.setattr(classical, "gr_degree", exact)
    rc, out, err = run(["degree", "gr:300,600:" + ",".join(map(str, range(301, 601)))], capsys)
    limit = sys.get_int_max_str_digits()
    assert (rc, out) == (2, "")
    assert err == f"error: the degree has more than {limit} digits, too many to print\n"


def test_dual_values(capsys):
    for spec, want in [
        ("gr:2,5:1,3", "gr:2,5:3,5"),
        ("lg:3:1", "lg:3:2,3"),
        ("og:5:1,4", "og:5:2,3"),
        ("quad:6:max-plus", "quad:6:max-minus"),
        ("quad:8:max-plus", "quad:8:max-plus"),
        ("quad:7:linear-2", "quad:7:colinear-1"),
        ("e6:9:9", "e6:7:2"),
        ("e7:27:13110", "e7:0:1"),
    ]:
        rc, out, _ = run(["dual", spec], capsys)
        assert rc == 0 and out.strip() == want, f"BUG: dual {spec} printed {out!r}"


def test_dual_is_an_involution_via_cli(capsys):
    for spec in ("gr:3,7:2,4,6", "og:5:2,3", "quad:9:linear-3", "e6:4:1b"):
        rc, once, _ = run(["dual", spec], capsys)
        assert rc == 0
        rc, twice, _ = run(["dual", once.strip()], capsys)
        assert rc == 0
        assert twice.strip() == spec, f"BUG: dual of dual of {spec} is {twice.strip()}"


def test_ambiguous_token_is_usage_error(capsys):
    rc, _, err = run(["classify", "e6:4:1"], capsys)
    assert rc == 2
    assert "ambiguous" in err


def test_unknown_family_is_usage_error(capsys):
    rc, _, err = run(["classify", "zz:1:2"], capsys)
    assert rc == 2
    assert "unknown family" in err


def test_malformed_lam_is_usage_error(capsys):
    rc, _, err = run(["classify", "gr:2,5:1,x"], capsys)
    assert rc == 2
    assert "error:" in err


def test_missing_subcommand_exits_2(capsys):
    assert run([], capsys) == (
        2,
        "",
        "error: missing command (want one of hasse, classify, degree, dual, tits, verify;"
        " -h describes them)\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["hasse"],
        ["verify", "nope"],
        ["hasse", "gr:2,4", "--json", "--dot"],
        ["hasse", "gr:2,4", "--size-cap", "x"],
        ["tits", "a2", "x", "2"],
        ["degree", "gr:2,4:1", "extra"],
        ["hasse", "gr:2,4", "--bogus"],
        ["hasse", "gr:2,4", "--size-cap"],
        ["hasse", "gr:2,4", "--json=yes"],
        ["hasse", "--js", "gr:2,4"],  # no abbreviations
        ["classify", "--", "--golden-dir", "x"],  # after --, every word is a value
        ["--json", "hasse", "gr:2,4"],
    ],
)
def test_argv_shape_errors_exit_2_in_one_line(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["degree", "--help"], ["bogus", "-h"]])
def test_help_names_every_command(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 0 and err == ""
    for name in cli.COMMANDS:
        assert f"schubflex {name} " in out, name
    assert "--size-cap N" in out and "--golden-dir DIR" in out


def test_options_take_either_form_and_any_place(capsys):
    expected = run(["hasse", "gr:2,4", "--json", "--size-cap", "10"], capsys)
    assert expected[0] == 0
    for argv in (
        ["hasse", "--size-cap=10", "--json", "gr:2,4"],
        ["hasse", "--json", "--json", "--size-cap", "3", "--size-cap", "10", "gr:2,4"],
        ["hasse", "--json", "--", "gr:2,4"],
    ):
        assert run(argv, capsys) == expected, argv
    assert run(["hasse", "gr:2,4", "--size-cap", "5"], capsys)[0] == 2  # 6 classes
    # a number that looks like an option is a value, as with argparse
    assert run(["tits", "a2", "-1", "2"], capsys)[2].startswith("error: marked node -1")


def test_tits_text_a2(capsys):
    rc, out, _ = run(["tits", "a2", "1", "2"], capsys)
    assert rc == 0
    assert out == (
        "context: A2(P={1},Q={2})  d_tau=1\n"
        "  n000 (dim  0) -> n001 (dim  1)  injective\n"
        "  n001 (dim  1) -> n002 (dim  2)  injective\n"
        "  n002 (dim  2) -> n002 (dim  2)  collapsing\n"
    )


def test_tits_json_matches_schema(capsys):
    schema = _schema("tits.schema.json")
    rc, out, _ = run(["tits", "a2", "1", "2", "--json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema)
    assert blob["context"] == {"type": "A2", "P": [1], "Q": [2], "d_tau": 1}

    rc, out, _ = run(["tits", "e6", "6", "1", "--json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    jsonschema.validate(blob, schema)
    assert blob["context"]["d_tau"] == 8
    assert len(blob["rows"]) == 27
    injective = sum(r["injective"] for r in blob["rows"])
    assert injective == 10


def test_verify_json_matches_schema(tmp_path, capsys):
    schema = _schema("verify.schema.json")
    rc, out, _ = run(["verify", "all", "--json"], capsys)
    assert rc == 0
    reports = json.loads(out)
    jsonschema.validate(reports, schema)
    assert [r["target"] for r in reports] == ["e6", "e7", "table1"]

    dst = _tamper(tmp_path, 3, "rigid")
    rc, out, _ = run(["verify", "e6", "--json", "--golden-dir", str(dst)], capsys)
    assert rc == 1
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["ok"] is False and report["problems"]

    # the schema is not vacuous: a class row without its token, or a report
    # without its problems, fails
    del report["rows"][0]["token"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)
    del reports[2]["problems"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(reports, schema)


def _stdlib_json(blob) -> str:
    """``blob`` as print(json.dumps(blob, sort_keys=True, indent=2)) prints it."""
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("target", ["e6", "e7", "table1"])  # all: see the batch test below
def test_verify_json_is_the_stdlib_encoding(target, capsys):
    from schubflex import verify

    blob = getattr(verify, f"verify_{target}")().to_json_dict()
    rc, out, _ = run(["verify", target, "--json"], capsys)
    assert rc == 0 and out == _stdlib_json(blob)


def test_verify_json_of_a_failing_report_is_the_stdlib_encoding(tmp_path, capsys):
    dst = _tamper(tmp_path, 3, "rigid")
    report = verify_e6(str(dst))
    assert report.problems
    rc, out, _ = run(["verify", "e6", "--json", "--golden-dir", str(dst)], capsys)
    assert rc == 1 and out == _stdlib_json(report.to_json_dict())


@pytest.mark.parametrize("rank, p, q", [(6, 6, 1), (7, 7, 6)])
def test_tits_json_is_the_stdlib_encoding(rank, p, q, capsys):
    from schubflex.tits import context_json_dict, make_context

    ctx = make_context(weyl.build_cartan("E", rank), {p}, {q})
    rc, out, _ = run(["tits", f"e{rank}", str(p), str(q), "--json"], capsys)
    assert rc == 0 and out == _stdlib_json(context_json_dict(ctx))


def _assert_batched(items, sep, lead, writes) -> None:
    """``writes`` spell ``lead + sep.join(items)`` in batches that end as _write_batches ends them.

    A write holds at most BATCH_ITEMS items, and passes BATCH_BYTES only by
    its last item; a batch ends at whichever bound comes first.
    """
    from schubflex import diagram

    k = 0
    for w, prefix in zip(writes, [lead] + [sep] * len(writes)):
        assert w.startswith(prefix)
        m, size = 0, len(prefix) - len(sep)
        while size + len(sep) < len(w):  # the items this write holds
            size += len(sep) + len(items[k + m])
            m += 1
        batch = items[k : k + m]
        assert w == prefix + sep.join(batch)
        assert 1 <= m <= diagram.BATCH_ITEMS
        assert sum(map(len, batch[:-1])) < diagram.BATCH_BYTES
        k += m
        if k < len(items):  # only the last batch may end short of both bounds
            assert m == diagram.BATCH_ITEMS or sum(map(len, batch)) >= diagram.BATCH_BYTES
    assert k == len(items) and len(writes) > 1


def test_verify_json_is_written_in_batches():
    # Under PYTHONUNBUFFERED each write to stdout is one system call, and the
    # writer yields hundreds of pieces; they go out in batches, as the poset
    # exports' items do, and the final newline on its own.
    from schubflex.jsonout import chunks
    from schubflex.verify import verify_all

    class RecordingStdout(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return super().write(text)

    blob = [report.to_json_dict() for report in verify_all()]
    out = RecordingStdout()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "all", "--json"]) == 0
    assert out.getvalue() == _stdlib_json(blob)
    assert out.writes[-1] == "\n"
    _assert_batched(list(chunks(blob)), "", "", out.writes[:-1])


def test_hasse_json_is_written_in_bounded_batches(monkeypatch):
    from schubflex import diagram

    calls = []  # (items, sep, lead, writes) of each batched list
    original = diagram._write_batches

    def recording(out, items, sep="", lead=""):
        items, writes = list(items), []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return out.write(text)

        original(Recorder(), items, sep, lead)
        calls.append((items, sep, lead, writes))

    monkeypatch.setattr(diagram, "_write_batches", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["hasse", "og:9", "--json"]) == 0
    p = quotient("og", 9)
    assert out.getvalue() == _stdlib_json(poset_json_dict(p))
    assert [len(items) for items, *_ in calls] == [len(p.covers), len(p.nodes)]
    for items, sep, lead, writes in calls:
        _assert_batched(items, sep, lead, writes)


def test_tits_bad_marking_is_usage_error(capsys):
    rc, _, err = run(["tits", "a2", "1", "9"], capsys)
    assert rc == 2 and "error:" in err
    rc, _, err = run(["tits", "x9", "1", "2"], capsys)
    assert rc == 2


def test_verify_cli_all_passes(capsys):
    rc, out, _ = run(["verify", "all"], capsys)
    assert rc == 0
    assert "RESULT e6: OK" in out
    assert "RESULT e7: OK" in out
    assert "RESULT table1: OK" in out


def test_verify_cli_json(capsys):
    rc, out, _ = run(["verify", "e6", "--json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert len(blob["rows"]) == 27
    assert blob["problems"] == []


def _tamper(tmp_path, field_index, value):
    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    path = dst / "e6_p6.tsv"
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("n011\t"):
            fields = line.rstrip("\n").split("\t")
            fields[field_index] = value
            lines[i] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))
    return dst


def test_verify_cli_tampered_decoration_exits_1(tmp_path, capsys):
    dst = _tamper(tmp_path, 3, "rigid")
    rc, out, _ = run(["verify", "e6", "--golden-dir", str(dst)], capsys)
    assert rc == 1
    assert "VIOLATION" in out
    assert "RESULT e6: FAIL" in out


def test_verify_cli_corrupted_degree_exits_3(tmp_path, capsys):
    dst = _tamper(tmp_path, 2, "999")
    rc, _, err = run(["verify", "e6", "--golden-dir", str(dst)], capsys)
    assert rc == 3
    assert "data error:" in err


def test_classify_e7_checks_the_e6_table(tmp_path, capsys):
    dst = _tamper(tmp_path, 2, "999")
    rc, out, err = run(["classify", "e7:22:5586", "--golden-dir", str(dst)], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("data error: e6_p6: n011")


@pytest.mark.parametrize("argv", [["verify", "e6"], ["classify", "e6:9:9"]])
def test_undecodable_golden_table_exits_3(argv, tmp_path, capsys):
    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    with open(dst / "e6_p6.tsv", "ab") as fh:
        fh.write(b"\xff")
    rc, out, err = run([*argv, "--golden-dir", str(dst)], capsys)
    assert (rc, out) == (3, "") and err.count("\n") == 1, err
    assert err.startswith(f"data error: cannot read golden file {dst / 'e6_p6.tsv'}: 'utf-8' codec")


@pytest.mark.parametrize("argv", [["verify", "e6"], ["classify", "e6:9:9"]])
def test_unreadable_golden_table_exits_3(argv, tmp_path, monkeypatch, capsys):
    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    real = Path.read_text

    def read_text(path, *args, **kwargs):
        if path.name == "e6_p6.tsv":
            raise PermissionError(13, "Permission denied", str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    rc, out, err = run([*argv, "--golden-dir", str(dst)], capsys)
    assert (rc, out) == (3, "") and err.count("\n") == 1, err
    assert err.startswith(f"data error: cannot read golden file {dst / 'e6_p6.tsv'}: [Errno 13]")


def test_golden_dir_whose_path_cannot_be_looked_up_exits_3(capsys):
    rc, out, err = run(["verify", "e6", "--golden-dir", "a" * 300], capsys)
    assert (rc, out) == (3, "") and err.count("\n") == 1, err
    assert err.startswith(f"data error: cannot read golden file {'a' * 300}/e6_p6.tsv: [Errno {errno.ENAMETOOLONG}]")


@pytest.mark.parametrize(
    "token, why",
    [
        ("x", "malformed class token 'x'"),
        ("99:1", "no class with dimension 99 and degree 1"),
        ("4:1", "token '4:1' is ambiguous"),
    ],
)
def test_bad_transform_table_token_exits_3(token, why, tmp_path, capsys):
    # A bad token in the shipped table is a data error, not the user's usage error.
    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    path = dst / "table1.tsv"
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = "\t".join([token, *lines[first].split("\t")[1:]])
    path.write_text("".join(lines))
    for target in ("table1", "all"):
        rc, out, err = run(["verify", target, "--golden-dir", str(dst)], capsys)
        assert (rc, out) == (3, "") and err.count("\n") == 1, (target, err)
        assert err.startswith(f"data error: table1.tsv: token {token!r}: {why}"), (target, err)


def test_golden_dir_env_variable(tmp_path, capsys, monkeypatch):
    dst = _tamper(tmp_path, 3, "rigid")
    monkeypatch.setenv("SCHUBFLEX_GOLDEN_DIR", str(dst))
    rc, out, _ = run(["verify", "e6"], capsys)
    assert rc == 1
    monkeypatch.delenv("SCHUBFLEX_GOLDEN_DIR")
    rc, out, _ = run(["verify", "e6"], capsys)
    assert rc == 0


def test_output_is_byte_deterministic_across_processes():
    env0 = dict(os.environ, PYTHONHASHSEED="0")
    env1 = dict(os.environ, PYTHONHASHSEED="4242")
    for argv in (
        ["hasse", "e6", "--json"],
        ["hasse", "og:5", "--dot"],
        ["tits", "e6", "6", "1", "--json"],
        ["verify", "e6"],
    ):
        cmd = [sys.executable, "-m", "schubflex.cli", *argv]
        a = subprocess.run(cmd, capture_output=True, env=env0, check=True)
        b = subprocess.run(cmd, capture_output=True, env=env1, check=True)
        assert a.stdout == b.stdout, f"BUG: {argv} output depends on hash seed"


REUSE_ARGVS = [
    ["hasse", "gr:2,4"],
    ["hasse", "e6", "--json"],
    ["classify", "gr:2,5:1,3"],
    ["degree", "e7:22:5586"],
    ["dual", "og:5:2,3"],
    ["tits", "a2", "1", "2"],
    ["classify", "gr:2,5:3,1"],
    [],
    ["bogus"],
    ["hasse"],
    ["verify", "nope"],
    ["hasse", "gr:2,4", "--json", "--dot"],
    ["--help"],
    ["degree", "--help"],
]


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        argvs = REUSE_ARGVS * 2
        shared = [run(argv, capsys) for argv in argvs]
        assert len(built) == 1
        for argv, outcome in zip(argvs, shared):
            cli._parser.cache_clear()
            assert outcome == run(argv, capsys), argv
    finally:
        cli._parser.cache_clear()
    assert {code for code, _, _ in shared} == {0, 2}
    # The benchmark's tracer wraps parse_args on each parser build_parser
    # returns; a shared one would collect a wrapper per call.
    assert real() is not real()


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["hasse", "gr:2,100"], "1"),
        (["hasse", "gr:2,100"], ""),
        (["hasse", "gr:6,12", "--json"], ""),
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv, unbuffered):
    # Each output is larger than the pipe and stdout buffers together, so the
    # writer is still writing when the reader closes its end.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "schubflex.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first and err == b""


def _joined(elements):
    return elements.map(lambda xs: ",".join(map(str, xs)))


HEADS = ["gr", "lg", "og", "quad", "e6", "e7"] * 3 + ["", "xx", "GR", "e8"]
# Numbers stop at 20 (digits 1 and 2 in the free text), and at 16 for og and
# lg.  A huge rank is refused in one line, from its class count or from the
# coordinate bound; the stop only keeps the answers cheap: og:n and lg:n have
# 2^(n-1) and 2^n classes, and from n = 17 up to the size cap each answer
# costs seconds and hundreds of MiB.
TOP = {"og": 16, "lg": 16}
JUNK = st.text(alphabet=",:-ab12", max_size=3)


def _int_list(head):
    return _joined(st.lists(st.integers(-2, TOP.get(head, 20)), max_size=4))


@functools.lru_cache(maxsize=None)
def _tokens(head):
    poset = quotient(head)
    return sorted({node_token(poset, node) for node in poset.nodes})


@st.composite
def _shaped_spec(draw, head):
    """Parameters and class body of the form the head expects; they may still name no class."""
    if head in ("e6", "e7"):
        return draw(st.sampled_from(_tokens(head))).split(":")
    n = draw(st.integers(-1, TOP.get(head, 20)))
    if head == "gr":
        k = draw(st.integers(-1, 7))
        size = max(0, min(k, n))
        lam = draw(st.sets(st.integers(1, max(n, 1)), min_size=size, max_size=size))
        return f"{k},{n}", ",".join(map(str, sorted(lam)))
    if head == "quad":
        kind = draw(st.sampled_from(["max-plus", "max-minus", "linear", "colinear"]))
        if kind in ("linear", "colinear"):
            kind += f"-{draw(st.integers(-1, 8))}"
        return str(n), kind
    lam = draw(st.sets(st.integers(1, max(n, 1)), max_size=max(n, 0)))
    return str(n), ",".join(map(str, sorted(lam)))


@st.composite
def cli_requests(draw):
    head = draw(st.sampled_from(HEADS))
    command = draw(st.sampled_from(["classify", "degree", "dual", "hasse"]))
    params, body = draw(_shaped_spec(head if head in QUOTIENTS else "og"))
    ints = _int_list(head)
    if command == "hasse":
        params = draw(st.sampled_from([params, draw(ints)]))
        return ["hasse", ":".join([head, params][: draw(st.integers(1, 2))])]
    params = draw(st.sampled_from([params, params, draw(ints), draw(JUNK)]))
    body = draw(st.sampled_from([body, body, draw(ints), draw(JUNK)]))
    parts = draw(st.sampled_from([1, 2, 3, 3, 3, 3]))
    return [command, ":".join([head, params, body][:parts])]


@given(cli_requests())
@settings(max_examples=400, deadline=None)
def test_spec_grammar_answers_or_refuses_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and err == "", argv
    else:
        assert code == 2, (argv, code, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "unpack" not in err and "invalid literal" not in err, (argv, err)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
