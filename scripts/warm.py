"""Warm in-process times of CLI commands and ``verify_all()``, in two source trees.

    python3 scripts/warm.py PARENT CHANGE [--runs N] [--calls N] [--json OUT]

PARENT and CHANGE are checkouts of this repository, each with its own
``src/``.  Standard library only.

Each run starts one fresh child per tree, the trees alternating as in
``scripts/footprint.py`` (the parent first on odd runs).  A child imports
``schubflex.cli`` and ``schubflex.verify`` and times its first
``verify_all()``, which builds the posets, sweep contexts and certificates
of the process ("cold").  Then it runs each of :data:`COMMANDS` once through
``cli.main`` and times ``--calls`` more calls of it, and ``--calls`` more
``verify_all()`` ("warm").  Output goes to /dev/null, and the child reports
the median of each, in ms.  The report prints the median over runs, per tree;
``--json`` also writes those medians and every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMANDS = (
    ("classify", "e6:9:9"),
    ("classify", "e7:22:5586"),
    ("degree", "e7:22:5586"),
    ("dual", "e6:9:9"),
    ("classify", "gr:2,5:1,3"),
)

SIDES = ("parent", "change")

# Run in each child, with the commands as JSON and the call count after -c.
_CHILD = """
import contextlib, json, os, statistics, sys, time
from schubflex import cli, verify

commands, calls = json.loads(sys.argv[1]), int(sys.argv[2])

def median_ms(call):
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3

with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    start = time.perf_counter()
    verify.verify_all()
    row = {"cold verify_all()": (time.perf_counter() - start) * 1e3}
    for argv in commands:
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")
        row[" ".join(argv)] = median_ms(lambda: cli.main(argv))
    row["warm verify_all()"] = median_ms(verify.verify_all)
print(json.dumps(row))
"""


def run_once(tree: str, calls: int) -> dict:
    """The child's medians, in ms, for one run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(COMMANDS), str(calls)],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the tree to compare against")
    parser.add_argument("change", help="the tree under test")
    parser.add_argument("--runs", type=int, default=6, help="children per tree (6)")
    parser.add_argument("--calls", type=int, default=200, help="timed calls per op (200)")
    parser.add_argument("--json", metavar="OUT", help="also write the medians and every run here")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for k in range(args.runs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(trees[side], args.calls))
    medians = {
        op: {side: statistics.median(r[op] for r in runs[side]) for side in SIDES}
        for op in runs["parent"][0]
    }
    print(f"{'op (median ms)':<28s}{'parent':>10s}{'change':>10s}")
    for op, row in medians.items():
        print(f"{op:<28s}{row['parent']:>10.4f}{row['change']:>10.4f}")
    if args.json:
        method = (
            f"scripts/warm.py: one fresh child per tree and run, parent and change alternated; "
            f"each op's median ms over {args.calls} in-process calls after one warm-up call "
            f"(cold verify_all(): its first call); medians over {args.runs} runs per tree"
        )
        with open(args.json, "w") as out:
            json.dump({"method": method, "medians_ms": medians, "runs_ms": runs}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
