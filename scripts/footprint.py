"""Wall time, peak memory and held bytes per class of ``hasse`` selectors, in two source trees.

    python3 scripts/footprint.py PARENT CHANGE [--runs N] [--json OUT] [SELECTOR ...]

PARENT and CHANGE are checkouts of this repository, each with its own
``src/``.  A SELECTOR is one ``hasse`` argv in quotes, like "og:16 --json";
without any, :data:`SELECTORS` are measured.  Standard library only, Linux
(``os.wait4``).

For each selector the two trees run alternately, ``--runs`` times each, the
parent first on odd runs.  A run is ``python -m schubflex.cli hasse ...`` in
a fresh child with stdout to /dev/null: its wall time is measured here, and
its peak resident memory is the ``ru_maxrss`` that ``os.wait4`` returns for
that child alone.  Held bytes per class come from one more child per tree.
It builds the selector's Cartan datum and loads the modules the command
needs, then starts tracemalloc, runs the same command through ``cli.main``
into /dev/null, and divides the memory still traced at the end by the class
count.  That is the shared poset plus whatever lookups the command built.

The report prints medians, one line per selector and tree.  ``--json`` also
writes them, with every run, in the ``selectors`` form of the BENCH_*.json
files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SELECTORS = (
    "og:16",
    "og:16 --json",
    "og:16 --dot",
    "og:18",
    "lg:15",
    "lg:17",
    "gr:1,2000",
)

SIDES = ("parent", "change")

# Run in the child that measures held bytes, with the selector's argv after -c.
_HELD = """
import contextlib, os, sys, tracemalloc
from schubflex import cli, golden, poset, weyl  # golden: the text output's tokens load it

argv = sys.argv[1:]
head, _, text = argv[0].partition(":")
params = cli.read_selector(head, text)
family, rank = poset.QUOTIENTS[head][1](*params, 2**64)[:2]
weyl.build_cartan(family, rank)
tracemalloc.start()
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    code = cli.main(["hasse", *argv])
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(code, held / len(poset.quotient(head, *params).nodes))
"""


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def run_once(tree: str, argv: list[str]) -> dict:
    """Wall seconds, peak MiB and exit code of one ``hasse`` child in ``tree``."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "schubflex.cli", "hasse", *argv],
        cwd=tree,
        env=_env(tree),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_mib": usage.ru_maxrss / 1024, "exit": child.returncode}


def held_per_class(tree: str, argv: list[str]) -> float | None:
    """Bytes still traced per class after the command, or None if it did not answer."""
    proc = subprocess.run(
        [sys.executable, "-c", _HELD, *argv],
        cwd=tree,
        env=_env(tree),
        capture_output=True,
        text=True,
    )
    words = proc.stdout.split()
    if proc.returncode or len(words) != 2 or words[0] != "0":
        return None
    return float(words[1])


def measure(trees: dict[str, str], selector: str, runs: int) -> dict:
    argv = selector.split()
    row = {"runs": runs, **{side: {"runs": []} for side in trees}}
    for k in range(runs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            row[side]["runs"].append(run_once(trees[side], argv))
    for side, tree in trees.items():
        done = row[side]["runs"]
        row[side]["wall_s"] = round(statistics.median(r["wall_s"] for r in done), 3)
        row[side]["peak_mib"] = round(statistics.median(r["peak_mib"] for r in done), 1)
        row[side]["exits"] = sorted({r["exit"] for r in done})
        held = held_per_class(tree, argv)
        row[side]["held_b_per_class"] = None if held is None else round(held)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the tree to compare against")
    parser.add_argument("change", help="the tree under test")
    parser.add_argument("selectors", nargs="*", default=list(SELECTORS), help='like "og:16 --json"')
    parser.add_argument("--runs", type=int, default=5, help="runs per tree and selector (5)")
    parser.add_argument("--json", metavar="OUT", help="also write the table and every run here")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    rows = {}
    print(f"{'selector':<22s}{'tree':<8s}{'wall_s':>8s}{'peak_mib':>10s}{'held_b/class':>14s}")
    for selector in args.selectors:
        row = rows[f"hasse {selector}"] = measure(trees, selector, args.runs)
        for side in SIDES:
            got = row[side]
            held = "-" if got["held_b_per_class"] is None else got["held_b_per_class"]
            label = selector if side == "parent" else ""
            print(f"{label:<22s}{side:<8s}{got['wall_s']:>8.3f}{got['peak_mib']:>10.1f}{held:>14}")
    if args.json:
        method = (
            "scripts/footprint.py: each command a fresh child, its peak from os.wait4's ru_maxrss; "
            "parent and change alternated; median wall s and peak MiB; held bytes per class from "
            "tracemalloc after the same command run through cli.main, Cartan datum and modules loaded first"
        )
        with open(args.json, "w") as out:
            json.dump({"method": method, "rows": rows}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
