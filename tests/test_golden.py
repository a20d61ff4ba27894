"""Golden-file loading, token resolution, and tamper detection."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from schubflex import golden, poset
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
    assert (len(g6), len(g7)) == (len(e6.nodes), len(e7.nodes))
    counts6, counts7 = Counter(g6), Counter(g7)
    assert counts6 == {"rigid": 8, "plus": 14, "star": 2, "T": 3}
    assert counts7 == {"rigid": 14, "plus": 25, "star": 5, "T": 12}


def test_check_against_returns_decorations_by_node_and_refuses_a_table_unlike_the_poset(e6):
    rows = [(n.id, n.dim, n.degree, f"deco{n.index}") for n in e6.nodes]
    want = tuple(f"deco{k}" for k in range(27))
    assert check_against("e6_p6", rows, e6) == check_against("e6_p6", rows[::-1], e6) == want
    with pytest.raises(GoldenDataError, match="^e6_p6: duplicate node ids$"):
        check_against("e6_p6", rows + rows[:1], e6)
    with pytest.raises(GoldenDataError, match=r"mismatch \(missing \['n026'\], extra \['n99'\]\)$"):
        check_against("e6_p6", rows[:-1] + [("n99", 16, 78, "rigid")], e6)
    node_id, dim, degree, _ = rows[5]
    with pytest.raises(GoldenDataError, match=f"{node_id} is recorded as dim {dim} degree {degree + 1} "):
        check_against("e6_p6", rows[:5] + [(node_id, dim, degree + 1, "rigid")] + rows[6:], e6)


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
        assert r.y_star == (g6[resolve_token(e6, r.y_token).index] == "rigid")
        assert r.t_star == (g7[resolve_token(e7, r.t_token).index] == "rigid")


def test_token_roundtrip(e6, e7):
    for poset in (e6, e7):
        for node in poset.nodes:
            assert resolve_token(poset, node_token(poset, node)).id == node.id


def test_max_linear_flags(e6):
    flagged = [n for n in e6.nodes if is_max_linear(e6, n)]
    # the two maximal linear spaces: the lone dim-4 one and the P5 class
    dims = sorted(n.dim for n in flagged)
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


def _counting_reads(monkeypatch) -> list:
    """The paths golden._read_rows is asked to read from now on."""
    reads, real = [], golden._read_rows
    monkeypatch.setattr(golden, "_read_rows", lambda path, n: reads.append(path) or real(path, n))
    return reads


def test_a_table_is_read_once_per_poset_and_directory(tmp_path, monkeypatch):
    other = tmp_path / "other"
    other.mkdir()
    for name in ("e6_p6.tsv", "e7_p7.tsv"):
        (tmp_path / name).write_bytes((SHIPPED / name).read_bytes())
    (other / "e6_p6.tsv").write_bytes((SHIPPED / "e6_p6.tsv").read_bytes())
    reads = _counting_reads(monkeypatch)
    first = load_golden_poset("e6", tmp_path)
    assert load_golden_poset("e6", str(tmp_path)) is first  # the same directory, resolved
    monkeypatch.setenv("SCHUBFLEX_GOLDEN_DIR", str(tmp_path))
    assert load_golden_poset("e6") is first
    assert reads == [tmp_path / "e6_p6.tsv"]
    # Another target, and another directory, get their own read and check.
    seven = load_golden_poset("e7", tmp_path)
    copy = load_golden_poset("e6", other)
    assert reads == [tmp_path / "e6_p6.tsv", tmp_path / "e7_p7.tsv", other / "e6_p6.tsv"]
    assert copy is not first and copy == first
    assert len(seven) == 56
    with pytest.raises(TypeError):
        first[0] = None  # shared, so read-only


def test_a_rebuilt_poset_gets_its_own_load(tmp_path, monkeypatch):
    (tmp_path / "e6_p6.tsv").write_bytes((SHIPPED / "e6_p6.tsv").read_bytes())
    first = load_golden_poset("e6", tmp_path)
    reads = _counting_reads(monkeypatch)
    poset._quotient.cache_clear()
    try:
        again = load_golden_poset("e6", tmp_path)
    finally:
        poset._quotient.cache_clear()
    assert again is not first and reads == [tmp_path / "e6_p6.tsv"]


def test_a_malformed_table_raises_on_every_load(tmp_path, monkeypatch):
    (tmp_path / "e6_p6.tsv").write_text("n000\t0\t1\tshiny\tx\n")
    reads = _counting_reads(monkeypatch)
    for _ in range(2):
        with pytest.raises(GoldenDataError, match="unknown decoration"):
            load_golden_poset("e6", tmp_path)
    assert len(reads) == 2


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
