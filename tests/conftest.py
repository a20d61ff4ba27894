"""Session-scoped fixtures for the expensive posets, plus the acceptance summary."""

from __future__ import annotations

import re

import pytest

from schubflex.golden import load_golden_poset
from schubflex.poset import build_quotient_poset, quotient
from schubflex.weyl import build_cartan


def _quotient(family: str, rank: int, marked):
    return build_quotient_poset(build_cartan(family, rank), marked)


@pytest.fixture(scope="session")
def e6p6():
    return quotient("e6")


@pytest.fixture(scope="session")
def e6p1():
    return _quotient("E", 6, {1})


@pytest.fixture(scope="session")
def e6p5():
    return _quotient("E", 6, {5})


@pytest.fixture(scope="session")
def e7p7():
    return quotient("e7")


@pytest.fixture(scope="session")
def e7p1():
    return _quotient("E", 7, {1})


@pytest.fixture(scope="session")
def e7p6():
    return _quotient("E", 7, {6})


@pytest.fixture(scope="session")
def og510():
    return quotient("og", 5)


@pytest.fixture(scope="session")
def golden_e6():
    return load_golden_poset("e6")


@pytest.fixture(scope="session")
def golden_e7():
    return load_golden_poset("e7")


_CRITERIA_LABELS = {
    1: "27-class poset with degrees, under 1s",
    2: "56-class poset with degrees, under 5s",
    3: "transform table, 27 rows with stars, under 10s",
    4: "dimension table for the transform contexts",
    5: "chains of transforms",
    6: "decoration verification, zero violations",
    7: "classifiers equal the independent clause oracle",
    8: "Lagrangian/orthogonal translation",
    9: "degree formula equals standard tableau count",
    10: "duality",
    11: "dichotomy: multi-rigid or witnessed",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for outcome, verdict in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
        ("skipped", "SKIP"),
    ):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            if results.get(num) != "FAIL":
                results[num] = verdict
    if results:
        terminalreporter.write_sep("=", "acceptance summary")
        for num in sorted(results):
            label = _CRITERIA_LABELS.get(num, "")
            terminalreporter.write_line(
                f"ACCEPTANCE criterion {num:2d} ({label}): {results[num]}"
            )
