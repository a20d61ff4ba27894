"""Invariant checks must survive ``python -O``, which strips ``assert``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_has_no_assert():
    found = []
    for path in sorted((SRC / "schubflex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"assert or AssertionError in the package: {found}"


def test_verify_all_is_the_same_under_python_O():
    # hasse gr:1,64 also runs build_cartan's diagram-order check for A63.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for argv in (["verify", "all"], ["hasse", "gr:1,64", "--json"]):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "schubflex.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr.decode()
        assert runs[1].stdout == runs[0].stdout, f"{argv} differs under python -O"
