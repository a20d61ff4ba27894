"""Start-up cost: what importing the package and running one command load."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_package_does_not_import_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and builds each
    # record class at import time; the records are slots classes whose
    # fields Frozen.__init__ stores.
    found = []
    for path in sorted((SRC / "schubflex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"dataclasses imported in the package: {found}"


def test_constructions_and_verification_import_no_classifier():
    # The witness engines and the verify pipeline decide flexibility by their
    # own constructions, so "multi-rigid or witnessed" compares two
    # independent answers; they meet the classifiers only in cli classify.
    found = []
    for name in ("witnesses.py", "verify.py"):
        path = SRC / "schubflex" / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                continue
            if any(n.split(".")[-1] == "rigidity" for n in names):
                found.append(f"{name}:{node.lineno}")
    assert found == [], f"classifier imported by a construction module: {found}"


def test_commands_load_only_what_they_run():
    proc = _python(
        """
import contextlib, io, sys
from schubflex.cli import main

def loaded():
    names = ("dataclasses", "inspect", "schubflex.verify", "schubflex.tits")
    return sorted(name for name in names if name in sys.modules)

with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [main(["hasse", "e7", "--json"]), main(["classify", "gr:2,5:1,3"])]
    codes.append(main(["classify", "e6:30:1"]))  # refused token: nothing more to load
print(codes, loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", "all"])
print(code, out.getvalue().count("RESULT"), loaded())
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[0, 0, 2] []",
        "0 3 ['schubflex.tits', 'schubflex.verify']",
    ]


def test_verify_all_builds_each_sweep_context_once():
    # verify_all meets 7 distinct (P, Q) sweeps: 6/1, 6/5 and 5/6 on E6 and
    # 7/1, 1/7, 7/6 and 6/7 on E7; the E7 interval pair serves both the e7
    # certificates and the transform table.
    proc = _python(
        """
from schubflex import tits
from schubflex.verify import verify_all

built = []

class CountingContext(tits.TitsContext):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        built.append(self.label())

tits.TitsContext = CountingContext
print(all(report.ok for report in verify_all()), len(built), len(set(built)))
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "7", "7"]
