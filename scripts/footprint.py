"""Wall time, peak memory and held bytes per class of ``hasse`` selectors, in two source trees.

    python3 scripts/footprint.py PARENT CHANGE [--runs N] [--json OUT] [SELECTOR ...]

PARENT and CHANGE are checkouts of this repository, each with its own
``src/``; relative paths are taken from the current directory.  A SELECTOR
is one ``hasse`` argv in quotes, like "og:16 --json"; without any,
:data:`SELECTORS` are measured.  Standard library only, Linux
(``/proc/self/status``).

For each selector the two trees run alternately, ``--runs`` times each, the
parent first on odd runs.  A run is ``hasse ...`` in a fresh child through
``bench/cli_op.py``, which runs ``schubflex.cli`` as ``python -m`` does, with
stdout to /dev/null: its wall time is measured here, and its peak resident
memory is the ``VmHWM`` the child reads from its own status at exit.  (The
``ru_maxrss`` of ``os.wait4`` will not do: ``subprocess`` starts children with
vfork, so that figure also holds this process's own high-water mark.)  Held
bytes per class come from one more child per tree.
It builds the selector's Cartan datum and loads the modules the command
needs, then starts tracemalloc, runs the same command through ``cli.main``
into /dev/null, and divides the memory still traced at the end by the class
count.  That is the shared poset plus whatever lookups the command built.

The report prints medians, one line per selector and tree.  ``--json`` also
writes them, with every run, in the ``selectors`` form of the BENCH_*.json
files.  The script exits 1 if any run of a selector did not exit 0, so a
tree that cannot answer is never read as a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark's one-op runner, which reports the child's own peak.
CLI_OP = Path(__file__).resolve().parents[1] / "bench" / "cli_op.py"

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
    """Wall seconds, peak MiB (None if unreported) and exit code of one ``hasse`` child in ``tree``."""
    read, write = os.pipe()
    start = time.perf_counter()
    try:
        child = subprocess.Popen(
            [sys.executable, str(CLI_OP), str(write), "hasse", *argv],
            cwd=tree,
            env=_env(tree),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            pass_fds=(write,),
        )
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as fh:
        kib = fh.read()
    child.wait()
    wall = time.perf_counter() - start
    peak = int(kib) / 1024 if kib else None
    return {"wall_s": wall, "peak_mib": peak, "exit": child.returncode}


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
        peaks = [r["peak_mib"] for r in done if r["peak_mib"] is not None]
        row[side]["peak_mib"] = round(statistics.median(peaks), 1) if peaks else None
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
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    rows = {}
    print(f"{'selector':<22s}{'tree':<8s}{'wall_s':>8s}{'peak_mib':>10s}{'held_b/class':>14s}")
    for selector in args.selectors:
        row = rows[f"hasse {selector}"] = measure(trees, selector, args.runs)
        for side in SIDES:
            got = row[side]
            held = "-" if got["held_b_per_class"] is None else got["held_b_per_class"]
            label = selector if side == "parent" else ""
            peak = "-" if got["peak_mib"] is None else f"{got['peak_mib']:.1f}"
            print(f"{label:<22s}{side:<8s}{got['wall_s']:>8.3f}{peak:>10s}{held:>14}")
    if args.json:
        method = (
            "scripts/footprint.py: each command a fresh child through bench/cli_op.py, its peak "
            "its own VmHWM; "
            "parent and change alternated; median wall s and peak MiB; held bytes per class from "
            "tracemalloc after the same command run through cli.main, Cartan datum and modules loaded first"
        )
        with open(args.json, "w") as out:
            json.dump({"method": method, "rows": rows}, out, indent=2)
            out.write("\n")
    failed = [
        f"hasse {selector} in {side} exited {rows[f'hasse {selector}'][side]['exits']}"
        for selector in args.selectors
        for side in SIDES
        if rows[f"hasse {selector}"][side]["exits"] != [0]
    ]
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
