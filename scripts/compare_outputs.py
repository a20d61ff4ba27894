"""Compare the class commands' output of two source trees, argv by argv.

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository, each with its own
``src/``.  Standard library only.

The argv are ``classify``, ``degree`` and ``dual`` of every class of the
small quotients of each classical family (:data:`SMALL`), of indices just
outside them, of every e6/e7 class token that ``hasse e6`` and ``hasse e7``
print in PARENT (each ambiguous token also without its letter), and of the
fixed malformed specs in :data:`MALFORMED`.  One child per tree runs them all
through ``cli.main`` in order, capturing the exit code, stdout and stderr of
each.  The script exits 0 if every triple agrees, and 1 naming the first argv
whose exit code, stdout or stderr differ.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys

#: The largest parameter of each classical family that is swept in full.
SMALL = {"gr": 10, "lg": 8, "og": 9, "quad": 16}

MALFORMED = (
    "", ":", "gr", "gr:", "gr:2,5", "gr:2,5:", "gr:5:1", "gr:2,5,7:1,2", "gr:x,5:1,2",
    "gr:0,5:", "gr:5,5:1,2,3,4,5", "gr:2,5:1,x", "gr:2,5:1,,2", "gr:2,5: 1 , 3 ",
    "gr:2,5:1,2,3", "gr:3,1000000:1,3,4", "gr:3,30000:29998,29999,30000",
    "lg", "lg:", "lg:0:", "lg:3", "lg:3:4", "lg:x:1", "lg:3,4:1", "lg:1000000:1,2",
    "og:1:", "og:5:5", "og:5,5:1", "og:1000000:1,2", "og:40:1,2", "og:3:2,1",
    "quad:0:linear-1", "quad:2:linear-1", "quad:2:max-plus", "quad:7:max-plus",
    "quad:7:bogus-1", "quad:7:linear", "quad:7:linear-x", "quad:7:-1", "quad:7:linear-9",
    "quad:6:colinear-3", "quad:x:linear-1", "quad:7", "quad:1000000:linear-1",
    "e6", "e6:", "e6:9", "e6:9:", "e6:x:1", "e6:9:9:9", "e6:30:1", "e6:4:1", "e6:4:1c",
    "e6:9:9a", "e6:6", "e7:", "e7:22", "e7:22:5586:1", "e7:0:2", "e8:1:1", "zz:1:2",
    "sp:4:1", "GR:2,5:1,3", " gr:2,5:1,3",
)


def _seq(values) -> str:
    return ",".join(map(str, values))


def classical_specs():
    """Every class of the quotients up to SMALL, then indices just outside them."""
    for n in range(2, SMALL["gr"] + 1):
        for k in range(1, n):
            for lam in itertools.combinations(range(1, n + 1), k):
                yield f"gr:{k},{n}:{_seq(lam)}"
            yield f"gr:{k},{n}:{_seq(range(n - k + 2, n + 2))}"  # its last entry is n + 1
    for head, low, shift in (("lg", 1, 0), ("og", 2, 1)):
        for n in range(low, SMALL[head] + 1):
            entries = range(1, n - shift + 1)
            for size in range(len(entries) + 1):
                for lam in itertools.combinations(entries, size):
                    yield f"{head}:{n}:{_seq(lam)}"
            yield f"{head}:{n}:{_seq(range(1, n - shift + 2))}"
    for n in range(1, SMALL["quad"] + 1):
        top = (n + 1) // 2 if n % 2 else n // 2
        for j in range(0, top + 2):
            yield f"quad:{n}:linear-{j}"
            yield f"quad:{n}:colinear-{j}"
        yield f"quad:{n}:max-plus"
        yield f"quad:{n}:max-minus"


def run_child(tree: str, argvs: list) -> list:
    """[exit code, stdout, stderr] of each argv, run through ``cli.main`` in ``tree``."""
    child = r"""
import contextlib, io, json, sys, traceback
from schubflex import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException:
            traceback.print_exc()
            code = "raised"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""
    proc = subprocess.run(
        [sys.executable, "-c", child],
        input=json.dumps(argvs),
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def exceptional_specs(parent: str):
    """Every e6/e7 token that ``hasse`` prints in ``parent``, ambiguous ones also bare."""
    listings = run_child(parent, [["hasse", "e6"], ["hasse", "e7"]])
    for (code, out, _), head in zip(listings, ("e6", "e7")):
        if code != 0:
            raise SystemExit(f"hasse {head} exited {code} in {parent}")
        for line in out.splitlines()[1:]:
            for token in line.split(":", 1)[1].split():
                yield f"{head}:{token}"
                if token[-1].isalpha():
                    yield f"{head}:{token[:-1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the tree to compare against")
    parser.add_argument("change", help="the tree under test")
    args = parser.parse_args(argv)
    specs = [*classical_specs(), *exceptional_specs(args.parent), *MALFORMED]
    argvs = [[cmd, spec] for spec in specs for cmd in ("classify", "degree", "dual")]
    parent, change = run_child(args.parent, argvs), run_child(args.change, argvs)
    for argv, old, new in zip(argvs, parent, change):
        for part, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                print(f"{' '.join(argv)}: {part} differs\n  parent: {a!r}\n  change: {b!r}")
                return 1
    print(f"{len(argvs)} argv, 0 differences")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
