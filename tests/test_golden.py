"""Golden-file loading, token resolution, and tamper detection."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from schubflex.golden import (
    GoldenDataError,
    TokenError,
    check_against,
    golden_dir,
    is_max_linear,
    load_golden_poset,
    load_transform_table,
    node_token,
    resolve_token,
)
from schubflex.poset import build_quotient_poset
from schubflex.weyl import build_cartan

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "src" / "schubflex" / "data" / "golden"


@pytest.fixture(scope="module")
def e6():
    return build_quotient_poset(build_cartan("E", 6), {6})


@pytest.fixture(scope="module")
def e7():
    return build_quotient_poset(build_cartan("E", 7), {7})


def test_load_and_crosscheck(e6, e7):
    g6 = load_golden_poset("e6")
    g7 = load_golden_poset("e7")
    check_against(g6, e6)
    check_against(g7, e7)
    counts6, counts7 = (Counter(r.decoration for r in g.rows.values()) for g in (g6, g7))
    assert counts6 == {"rigid": 8, "plus": 14, "star": 2, "T": 3}
    assert counts7 == {"rigid": 14, "plus": 25, "star": 5, "T": 12}


def test_transform_table_shape(e6, e7):
    rows = load_transform_table()
    assert len(rows) == 27
    for r in rows:
        y = resolve_token(e6, r.y_token)
        t = resolve_token(e7, r.t_token)
        assert t.dim == y.dim + 10
    assert sum(r.y_star for r in rows) == 8
    assert sum(r.t_star for r in rows) == 6


def test_star_columns_agree_with_decorations(e6, e7):
    g6 = load_golden_poset("e6")
    g7 = load_golden_poset("e7")
    for r in load_transform_table():
        assert r.y_star == (g6.decoration(resolve_token(e6, r.y_token).id) == "rigid")
        assert r.t_star == (g7.decoration(resolve_token(e7, r.t_token).id) == "rigid")


def test_token_roundtrip(e6, e7):
    for poset in (e6, e7):
        for node in poset.nodes:
            assert resolve_token(poset, node_token(poset, node)).id == node.id


def test_max_linear_flags(e6):
    flagged = sorted(n.id for n in e6.nodes if is_max_linear(e6, n))
    # the two maximal linear spaces: the lone dim-4 one and the P5 class
    dims = sorted(e6.node(i).dim for i in flagged)
    assert dims == [4, 5]


def test_ambiguous_and_bad_tokens(e6):
    with pytest.raises(TokenError):
        resolve_token(e6, "4:1")  # two classes share dim 4 degree 1
    assert resolve_token(e6, "4:1a").id != resolve_token(e6, "4:1b").id
    with pytest.raises(TokenError):
        resolve_token(e6, "99:1")
    with pytest.raises(TokenError):
        resolve_token(e6, "not-a-token")
    with pytest.raises(TokenError):
        resolve_token(e6, "5:1a")  # suffix on an unambiguous token


def test_env_var_and_tamper_detection(tmp_path, monkeypatch):
    src = (golden_dir() / "e6_p6.tsv").read_text()
    lines = src.splitlines()
    # flip a recorded dimension so the cross-check must fail
    for i, line in enumerate(lines):
        if line.startswith("n007\t"):
            parts = line.split("\t")
            parts[1] = "12"
            lines[i] = "\t".join(parts)
    (tmp_path / "e6_p6.tsv").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("SCHUBFLEX_GOLDEN_DIR", str(tmp_path))
    # the load itself cross-checks against the live poset, so it raises
    with pytest.raises(GoldenDataError, match="n007 is recorded as dim 12"):
        load_golden_poset("e6")


def test_malformed_rows_rejected(tmp_path):
    (tmp_path / "e6_p6.tsv").write_text("n000\t0\t1\trigid\n")  # four fields
    with pytest.raises(GoldenDataError):
        load_golden_poset("e6", tmp_path)
    (tmp_path / "e6_p6.tsv").write_text("n000\t0\t1\tshiny\tx\n")
    with pytest.raises(GoldenDataError):
        load_golden_poset("e6", tmp_path)
    with pytest.raises(GoldenDataError):
        load_golden_poset("e7", tmp_path)  # file absent


@pytest.fixture()
def make_golden(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    return module


def test_make_golden_reproduces_the_shipped_tables(make_golden, tmp_path):
    assert make_golden.main() == 0
    for name in ("e6_p6.tsv", "e7_p7.tsv", "table1.tsv"):
        assert (tmp_path / name).read_bytes() == (SHIPPED / name).read_bytes(), name


def test_make_golden_refuses_a_decoration_without_a_class(make_golden):
    decorations = dict(make_golden.E6_DECORATIONS, **{"99:1": ("rigid", "")})
    with pytest.raises(ValueError, match="99:1"):
        make_golden.write_poset_tsv(6, 6, decorations, "e6_p6.tsv")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
