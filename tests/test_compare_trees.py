"""scripts/compare_trees.py: the outputs check end to end, its argv, the pair statistics and footprint argv."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from schubflex.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_trees = _load(ROOT / "scripts" / "compare_trees.py")


def test_outputs_of_one_tree_given_relatively_agree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tree = os.path.relpath(ROOT, tmp_path)
    assert compare_trees.main(["outputs", tree, tree]) == 0
    assert capsys.readouterr().out.endswith(" argv, 0 differences\n")


def test_outputs_names_the_first_argv_that_differs(monkeypatch, capsys):
    argvs = [["degree", "gr:2,5:1,3"], ["dual", "gr:2,5:1,3"], ["dual", "gr:2,5:1,2"]]
    real, runs = compare_trees.run_outputs, []

    def one_byte_off_in_change(tree, got):
        runs.append(real(tree, got))
        if len(runs) == 2:
            runs[1][1][1] = runs[1][1][1].replace("3", "4", 1)
            runs[1][2][1] = ""
        return runs[-1]

    monkeypatch.setattr(compare_trees, "output_argvs", lambda parent: argvs)
    monkeypatch.setattr(compare_trees, "run_outputs", one_byte_off_in_change)
    assert compare_trees.main(["outputs", str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == (
        "dual gr:2,5:1,3: stdout differs at line 1\n"
        "  parent: 'gr:2,5:3,5\\n'\n"
        "  change: 'gr:2,5:4,5\\n'\n"
    )


def test_argv_cover_every_command_and_every_benchmark_op():
    argvs = compare_trees.output_argvs(str(ROOT))
    assert all(argv[0] in ("classify", "degree", "dual") for argv in argvs[:10494])
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    held = {tuple(argv) for argv in argvs}
    workloads = _load(ROOT / "bench" / "workloads.py")
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            assert {op for op, _ in workloads.workload_ops(name, seed)} <= held, (name, seed)
    for target in ("e6", "e7", "table1", "all"):
        assert {("verify", target), ("verify", target, "--json")} <= held
    assert ("hasse", "e7", "--dot") in held
    assert {("tits", "e7", "7", "6", "--json"), ("tits", "a1", "0", "2")} <= held


def test_pair_statistics_on_fixed_numbers():
    got = compare_trees.pair_stats([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 4.0, 2.0])
    assert got == {"parent": 2.5, "change": 1.5, "ratio": 0.75, "parent_iqr": 1.5, "won": 2, "pairs": 4}
    lone = compare_trees.pair_stats([3.0, None], [2.0, 1.0])
    assert lone == {
        "parent": 3.0, "change": 2.0, "ratio": pytest.approx(2 / 3), "parent_iqr": 0, "won": 1, "pairs": 1
    }
    assert compare_trees.pair_stats([None], [1.0]) is None


def test_pairs_alternate_which_tree_runs_first():
    order = []
    runs = compare_trees.alternate({"parent": "P", "change": "C"}, 3, lambda tree: order.append(tree) or tree)
    assert "".join(order) == "PCCPPC"
    assert runs == {"parent": ["P"] * 3, "change": ["C"] * 3}


def test_footprint_takes_selectors_after_the_options(capsys):
    assert compare_trees.main(["footprint", str(ROOT), str(ROOT), "--runs", "1", "og:3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [
        ["hasse", "og:3", metric] for metric in ("wall_s", "peak_mib", "held_b_per_class")
    ]


def test_footprint_runs_a_selector_that_names_a_command_as_its_argv(capsys):
    argv = ["footprint", str(ROOT), str(ROOT), "degree og:5:1", "--runs", "1"]
    assert compare_trees.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [
        ["degree", "og:5:1", metric] for metric in ("wall_s", "peak_mib", "held_b_per_class")
    ]
    assert rows[-1].split()[3:] == ["n/a"]  # held bytes per class are hasse's alone


def test_command_names_are_the_cli_commands():
    assert set(compare_trees.COMMANDS) == set(COMMANDS)
