"""End-to-end checks of the decoration verifier.

The positive tests freeze the exact certificate kinds every class collects;
the negative tests tamper with copies of the shipped decoration tables and
expect the verifier to object (or the loader to refuse outright).
"""

from __future__ import annotations

import json
import shutil

import pytest

from schubflex import certify, moduli, poset, verify
from schubflex.certify import certificates
from schubflex.golden import GOLDEN_ENV_VAR, GoldenDataError, golden_dir
from schubflex.poset import quotient
from schubflex.verify import verify_all, verify_e6, verify_e7, verify_table1

E6_CERTS = {
    "0:1": [],
    "1:1": ["Bertini", "Linear"],
    "2:1": ["Bertini", "Cone", "Linear"],
    "3:1": ["Bertini", "Cone", "Linear"],
    "4:1a": [],
    "4:1b": ["Bertini", "Cone", "Linear"],
    "5:1": [],
    "5:2": ["Bertini", "Cone"],
    "6:2": ["Bertini", "Cone"],
    "6:3": ["Cone"],
    "7:2": ["Bertini"],
    "7:5": ["Bertini", "Cone"],
    "8:2": [],
    "8:5": [],
    "8:7": ["Cone"],
    "9:9": ["Tits"],
    "9:12": ["Bertini", "Cone"],
    "10:12": ["Bertini", "Cone"],
    "10:21": ["Tits"],
    "11:12": [],
    "11:33": ["Bertini", "Tits"],
    "12:33": [],
    "12:45": ["Tits"],
    "13:78": ["Bertini", "Tits"],
    "14:78": ["Bertini", "Tits"],
    "15:78": ["Bertini", "Divisor", "Tits"],
    "16:78": [],
}

E7_CERT_SPOTS = {
    "0:1": [],
    "1:1": ["Bertini", "Linear"],
    "5:1a": [],
    "5:1b": ["Bertini", "Cone", "Linear"],
    "6:1": [],
    "7:3": ["Cone"],
    "9:7": ["Cone"],
    "10:9": ["Cone"],
    "11:21": ["Cone"],
    "13:45": ["Cone"],
    "11:11": ["Tits"],
    "17:442": ["Tits"],
    "17:748": ["Bertini", "Tits"],
    "18:520": ["Tits"],
    "21:5586": ["Bertini", "Tits"],
    "22:5586": [],
    "26:13110": ["Bertini", "Divisor", "Tits"],
    "27:13110": [],
}


@pytest.fixture(scope="module")
def report_e6():
    return verify_e6()


@pytest.fixture(scope="module")
def report_e7(report_e6):
    return verify_e7()


@pytest.fixture(scope="module")
def report_table1():
    return verify_table1()


def test_verify_e6_passes(report_e6):
    assert report_e6.ok, f"BUG: 27-class verification failed: {report_e6.problems}"
    assert report_e6.problems == []
    assert report_e6.summary == {
        "classes": 27,
        "rigid": 8,
        "plus": 14,
        "star": 2,
        "T": 3,
    }


def test_verify_e6_certificates_frozen(report_e6):
    got = {row["token"]: row["certificates"] for row in report_e6.rows}
    assert got == E6_CERTS, "BUG: certificate kinds drifted on the 27-class poset"


def test_verify_e7_passes(report_e7):
    assert report_e7.ok, f"BUG: 56-class verification failed: {report_e7.problems}"
    assert report_e7.summary == {
        "classes": 56,
        "rigid": 14,
        "plus": 25,
        "star": 5,
        "T": 12,
    }


def test_verify_e7_certificate_spots(report_e7):
    got = {row["token"]: row["certificates"] for row in report_e7.rows}
    assert len(got) == 56
    for token, kinds in E7_CERT_SPOTS.items():
        assert got[token] == kinds, f"BUG: {token} collected {got[token]}, expected {kinds}"


def test_rigid_classes_hold_no_certificates(report_e6, report_e7):
    for report in (report_e6, report_e7):
        for row in report.rows:
            if row["decoration"] == "rigid":
                assert row["certificates"] == [], (
                    f"BUG: rigid {row['token']} holds {row['certificates']}"
                )
            else:
                assert row["certificates"], f"BUG: movable {row['token']} holds nothing"


def test_every_plus_has_bertini_every_star_has_cone(report_e6, report_e7):
    for report in (report_e6, report_e7):
        for row in report.rows:
            kinds = row["certificates"]
            if row["decoration"] == "plus":
                assert "Bertini" in kinds
            elif row["decoration"] == "star":
                assert "Cone" in kinds
            elif row["decoration"] == "T":
                assert "Tits" in kinds


def test_verify_table1_passes(report_table1):
    assert report_table1.ok, f"BUG: table replay failed: {report_table1.problems}"
    assert report_table1.summary == {"rows": 27, "distinct_targets": 27}
    assert all(row["ok"] and row["injective"] for row in report_table1.rows)


def test_table1_star_marks_match_decorations(report_table1):
    stars_y = [row["y"] for row in report_table1.rows if row["y_star"]]
    stars_t = [row["t"] for row in report_table1.rows if row["t_star"]]
    assert stars_y == ["0:1", "4:1a", "5:1", "8:2", "8:5", "11:12", "12:33", "16:78"]
    assert stars_t == ["10:2", "14:110", "15:98", "18:748", "21:1938", "22:5586"]


def test_verify_all_covers_three_targets():
    reports = verify_all()
    assert [r.target for r in reports] == ["e6", "e7", "table1"]
    assert all(r.ok for r in reports)


def test_verify_all_builds_each_quotient_once():
    # E6/P6, D5/P5, E6/P1, E6/P5, E7/P7, E7/P1 and E7/P6
    poset._quotient.cache_clear()
    verify_all()
    assert poset._quotient.cache_info().misses == 7


@pytest.mark.parametrize("target", ["e6", "e7"])
def test_certificates_run_on_the_family_table_poset(target):
    assert certificates(target).poset is quotient(target)


@pytest.mark.parametrize("target", ["e6", "e7"])
def test_certificates_run_once_per_shared_poset(target):
    first = certificates(target)
    assert certificates(target) is first
    poset._quotient.cache_clear()
    fresh = certificates(target)
    assert fresh is not first and fresh.poset is quotient(target)
    assert certificates(target) is fresh


def test_certificates_run_once_per_golden_directory(tmp_path, monkeypatch):
    shipped = certificates("e6")
    dst = _copy_golden(tmp_path)
    _rewrite_row(dst / "e6_p6.tsv", "n011", 3, "rigid")
    tampered = certificates("e6", golden_dir=dst)
    assert tampered is not shipped
    assert (shipped.golden.decoration("n011"), tampered.golden.decoration("n011")) == (
        "plus",
        "rigid",
    )
    monkeypatch.setenv(GOLDEN_ENV_VAR, str(dst))
    assert certificates("e6") is tampered  # the same resolved directory
    monkeypatch.setenv(GOLDEN_ENV_VAR, str(golden_dir(None).parent))
    with pytest.raises(GoldenDataError):  # no tables there
        certificates("e6")
    monkeypatch.delenv(GOLDEN_ENV_VAR)
    assert certificates("e6") is shipped


def test_shared_certificates_cannot_be_changed():
    found = certificates("e7")
    top = found.poset.top().index
    with pytest.raises(TypeError):
        found.witnesses[top] = ()
    with pytest.raises(AttributeError):
        found.witnesses[top].append(None)
    with pytest.raises(AttributeError):
        found.problems.append("late")
    with pytest.raises(AttributeError):
        found.witnesses = {}


def test_verify_all_runs_the_e7_interval_search_once(monkeypatch):
    searches, search = [], certify.interval_isomorphism

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(certify, "interval_isomorphism", counting)
    poset._quotient.cache_clear()
    assert all(report.ok for report in verify.verify_all())
    assert len(searches) == 1


def test_verify_table1_builds_three_quotients_and_runs_no_engine(monkeypatch):
    # E6/P6, E7/P7 and E7/P1: the table replays the sweep without certificates.
    def engine(*args):
        raise AssertionError("verify table1 ran a witness engine")

    for name in (
        "linear_space_witness",
        "bertini_witness",
        "divisor_witness",
        "cone_embedding",
        "basic_witness_homes",
        "tits_flexibility_witness",
    ):
        monkeypatch.setattr(certify, name, engine)
    monkeypatch.setattr(moduli, "moduli_witness_isotropic", engine)
    poset._quotient.cache_clear()
    assert verify_table1().ok
    assert poset._quotient.cache_info().misses == 3


def test_report_serialization_round_trips(report_e6):
    blob = json.loads(json.dumps(report_e6.to_json_dict(), sort_keys=True))
    assert blob["target"] == "e6"
    assert blob["ok"] is True
    assert len(blob["rows"]) == 27
    assert blob["problems"] == []
    text = report_e6.to_text()
    assert text.endswith("RESULT e6: OK\n")
    assert "16:78" in text


def _copy_golden(tmp_path):
    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    return dst


def _rewrite_row(path, node_id, field_index, value):
    lines = path.read_text().splitlines(keepends=True)
    hit = False
    for i, line in enumerate(lines):
        if line.startswith(node_id + "\t"):
            fields = line.rstrip("\n").split("\t")
            fields[field_index] = value
            lines[i] = "\t".join(fields) + "\n"
            hit = True
    assert hit, f"BUG: test fixture found no row for {node_id}"
    path.write_text("".join(lines))


def test_tampered_decoration_is_caught(tmp_path):
    dst = _copy_golden(tmp_path)
    # n011 is the movable class at dimension 7 with degree 2
    _rewrite_row(dst / "e6_p6.tsv", "n011", 3, "rigid")
    report = verify_e6(golden_dir=dst)
    assert not report.ok
    assert any("7:2" in p and "rigid" in p for p in report.problems)


def test_rigid_flipped_to_plus_is_caught(tmp_path):
    dst = _copy_golden(tmp_path)
    # n014 is the rigid class at dimension 8 with degree 2
    _rewrite_row(dst / "e6_p6.tsv", "n014", 3, "plus")
    report = verify_e6(golden_dir=dst)
    assert not report.ok
    assert any("8:2" in p for p in report.problems)


def test_unknown_decoration_refused_at_load(tmp_path):
    dst = _copy_golden(tmp_path)
    _rewrite_row(dst / "e6_p6.tsv", "n011", 3, "wobbly")
    with pytest.raises(GoldenDataError):
        verify_e6(golden_dir=dst)


def test_corrupted_degree_refused(tmp_path):
    dst = _copy_golden(tmp_path)
    _rewrite_row(dst / "e6_p6.tsv", "n011", 2, "999")
    with pytest.raises(GoldenDataError):
        verify_e6(golden_dir=dst)


def test_tampered_table_row_is_caught(tmp_path):
    dst = _copy_golden(tmp_path)
    lines = (dst / "table1.tsv").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("2:1\t"):
            fields = line.rstrip("\n").split("\t")
            fields[2] = "20:3648"
            lines[i] = "\t".join(fields) + "\n"
    (dst / "table1.tsv").write_text("".join(lines))
    report = verify_table1(golden_dir=dst)
    assert not report.ok
    assert any("2:1" in p for p in report.problems)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
