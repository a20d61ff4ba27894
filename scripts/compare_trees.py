"""Compare two source trees of this repository: their outputs, warm times or footprints.

    python3 scripts/compare_trees.py outputs PARENT CHANGE
    python3 scripts/compare_trees.py warm PARENT CHANGE [--runs N] [--calls N] [--json OUT]
    python3 scripts/compare_trees.py footprint PARENT CHANGE [SELECTOR ...] [--runs N] [--json OUT]

PARENT and CHANGE are checkouts of this repository, each with its own
``src/``; relative paths are taken from the current directory.  Every child
runs with its tree as working directory and the tree's ``src/`` as
``PYTHONPATH``.  Standard library only; ``footprint`` needs Linux
(``/proc/self/status``).

``outputs`` runs the argv of :func:`output_argvs` through ``cli.main`` in one
child per tree, capturing the exit code, stdout and stderr of each, and exits
1 naming the first argv whose exit code, stdout or stderr differ, with the
first line that differs (0 if none does).  The argv are ``classify``,
``degree`` and ``dual`` of every class of the small quotients of each
classical family (:data:`SMALL`), of indices just outside them, of every
e6/e7 token that ``hasse e6`` and ``hasse e7`` print in PARENT (each
ambiguous token also without its letter) and of :data:`MALFORMED`; every op
of the benchmark's workloads on seeds 1 and 2 (``bench/workloads.py``);
``hasse`` of each swept quotient, e6 and e7 in its three formats; ``tits`` of
each of :data:`TITS` with every P and Q it lists, text and ``--json``; and
``verify`` of each target, text and ``--json``.

``warm`` and ``footprint`` run ``--runs`` pairs, each run a fresh child, and
the parent runs first on odd pairs.  A ``warm`` child imports
``schubflex.cli`` and ``schubflex.verify`` and times its first
``verify_all()``, which builds the posets, sweep contexts and certificates of
the process ("cold").  Then it runs each of :data:`WARM_COMMANDS` once through
``cli.main`` and times ``--calls`` more calls of it, and ``--calls`` more
``verify_all()`` ("warm"), output to /dev/null, and reports each op's median
in ms.  A SELECTOR is one argv in quotes: ``hasse`` and its arguments, like
"og:16 --json", or a whole command line when its first word is one of
:data:`COMMANDS`, like "degree og:18:1,5,7".  SELECTORs may come before the
options, after them or both; without any, :data:`SELECTORS` are measured.  A
``footprint`` run is one SELECTOR in a child through ``bench/cli_op.py``,
stdout to /dev/null: its wall time is measured here, and its peak is the
``VmHWM`` the child reads from its own status at exit.  (The ``ru_maxrss`` of
``os.wait4`` will not do: ``subprocess`` starts children with vfork, so that
figure also holds this process's own high-water mark.)  After the pairs of a
``hasse`` SELECTOR one more child per tree builds the selector's Cartan datum
and runs the same command on ``gr:1,2``, a quotient of two classes, so that
the modules it loads on first need (the text output's tokens, the JSON and
DOT writers) are compiled first.  Then it runs the command through
``cli.main`` under tracemalloc, with a full ``gc.collect()`` just before
tracing starts and again after the command, and divides the memory still
traced by the class count: the bytes a class holds (n/a for other
commands).  That figure counts what the command leaves reachable, mostly the
shared poset and the caches it filled.  A full collection also empties
CPython's free lists.  Without the first, the command reuses blocks parked
there before tracing began, which tracemalloc never sees; without the
second, blocks the command parked there count as held.  Either way the
figure would move with what ran before, with no change to the poset.  ``footprint``
exits 1 if any run did not exit 0, so a tree that cannot answer is never read
as a measurement.

Both print, per op or selector and per metric, each tree's median, the median
over pairs of the change/parent ratio, the parent's interquartile range and
the number of pairs the change won (lower is better; a tie counts for
neither).  The two runs of a pair are next to each other in time, so a slow
spell of a shared machine tends to touch both, where it can flip the medians
of a few runs.  ``--json`` also writes the method, those figures and every run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The benchmark's one-op runner, which reports the child's own peak.
CLI_OP = ROOT / "bench" / "cli_op.py"

SIDES = ("parent", "change")

#: The commands of ``schubflex.cli.COMMANDS``: a SELECTOR that starts with one is a whole argv.
COMMANDS = ("hasse", "classify", "degree", "dual", "tits", "verify")

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

#: Each sweep type with the P and Q nodes tried: 0 to rank + 1, so both
#: refusals are in; e7 skips the pairs whose sweeps cost seconds a tree.
TITS = (
    *(
        (f"{letter}{rank}", range(rank + 2))
        for letter, low, high in (("a", 1, 6), ("b", 2, 5), ("c", 1, 5), ("d", 2, 6))
        for rank in range(low, high + 1)
    ),
    ("e6", range(8)),
    ("e7", (0, 1, 6, 7, 8)),
)

WARM_COMMANDS = (
    ("classify", "e6:9:9"),
    ("classify", "e7:22:5586"),
    ("degree", "e7:22:5586"),
    ("dual", "e6:9:9"),
    ("classify", "gr:2,5:1,3"),
)

SELECTORS = (
    "gr:5,11 --json",
    "lg:8",
    "og:16",
    "og:16 --json",
    "og:16 --dot",
    "og:18",
    "lg:15",
    "lg:17",
    "gr:1,2000",
    "gr:1,2000 --json",
    "tits a2000 1 2000",
    "verify all --json",
    "verify table1",
    "classify e7:22:5586",
    "tits e7 6 7",
    "tits e7 7 6",
    "tits e6 5 6",
)

# Run in each outputs child, with the argv as JSON on stdin.
_OUTPUTS = r"""
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

# Run in each warm child, with the commands as JSON and the call count after -c.
_WARM = """
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

# Run in the child that measures held bytes, with the hasse argv after -c.
_HELD = """
import contextlib, gc, os, sys, tracemalloc
from schubflex import cli, poset, weyl
from schubflex.commands import read_selector

argv = sys.argv[1:]
head, _, text = argv[1].partition(":")
params = read_selector(head, text)
family, rank = poset.QUOTIENTS[head][1](*params, 2**64)[:2]
weyl.build_cartan(family, rank)
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    if cli.main([argv[0], "gr:1,2", *argv[2:]]) != 0:  # loads what this format needs
        raise SystemExit("the warm-up command failed")
    gc.collect()  # a full collection also empties CPython's free lists
    tracemalloc.start()
    code = cli.main(argv)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(code, held / len(poset.quotient(head, *params).nodes))
"""


def run_child(tree: str, args: list, **kwargs) -> subprocess.CompletedProcess:
    """``python ARGS`` run in ``tree`` with ``tree/src`` as its ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, **kwargs)


def alternate(trees: dict, runs: int, measure) -> dict:
    """``measure(tree)`` for ``runs`` pairs, the parent first on odd pairs, listed by side."""
    done = {side: [] for side in SIDES}
    for k in range(runs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            done[side].append(measure(trees[side]))
    return done


def pair_stats(parent: list, change: list) -> dict | None:
    """Both medians, the median change/parent ratio, the parent's IQR and the pairs the change won.

    ``parent[k]`` and ``change[k]`` are pair k.  Lower is better, a tie counts
    for neither side, and a pair missing either value is left out (None when
    no pair is left).
    """
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not pairs:
        return None
    ps = [p for p, _ in pairs]
    q1, _, q3 = statistics.quantiles(ps, n=4, method="inclusive") if len(ps) > 1 else ps * 3
    return {
        "parent": statistics.median(ps),
        "change": statistics.median(c for _, c in pairs),
        "ratio": statistics.median(c / p for p, c in pairs),
        "parent_iqr": q3 - q1,
        "won": sum(c < p for p, c in pairs),
        "pairs": len(pairs),
    }


def by_pair(runs: dict, metric: str) -> dict | None:
    return pair_stats(*([run[metric] for run in runs[side]] for side in SIDES))


def report(stats: dict, method: str, runs: dict, out: str | None) -> None:
    """Print one line per op or selector and metric; write them with every run to ``out``."""
    head = ("parent", 10), ("change", 10), ("ratio", 8), ("parent IQR", 12), ("won", 7)
    print(f"{'':<24s}{'metric':<18s}" + "".join(f"{word:>{width}s}" for word, width in head))
    for name, metrics in stats.items():
        for metric, got in metrics.items():
            if not isinstance(got, dict):  # None, or "n/a" for a metric the op does not have
                print(f"{name:<24s}{metric:<18s}  {got or 'no pair answered'}")
                continue
            print(
                f"{name:<24s}{metric:<18s}{got['parent']:>10.4g}{got['change']:>10.4g}"
                f"{got['ratio']:>8.3f}{got['parent_iqr']:>12.4g}{got['won']:>4d}/{got['pairs']:<2d}"
            )
    if out:
        with open(out, "w") as fh:
            json.dump({"method": method, "stats": stats, "runs": runs}, fh, indent=2)
            fh.write("\n")


def _seq(values) -> str:
    return ",".join(map(str, values))


def swept():
    """Each classical quotient up to SMALL, with every class index and then one just outside."""
    for n in range(2, SMALL["gr"] + 1):
        for k in range(1, n):
            lams = itertools.combinations(range(1, n + 1), k)
            yield f"gr:{k},{n}", [*map(_seq, lams), _seq(range(n - k + 2, n + 2))]  # ends at n + 1
    for head, low, shift in (("lg", 1, 0), ("og", 2, 1)):
        for n in range(low, SMALL[head] + 1):
            entries = range(1, n - shift + 1)
            lams = itertools.chain.from_iterable(
                itertools.combinations(entries, size) for size in range(n - shift + 1)
            )
            yield f"{head}:{n}", [*map(_seq, lams), _seq(range(1, n - shift + 2))]
    for n in range(1, SMALL["quad"] + 1):
        top = (n + 1) // 2 if n % 2 else n // 2
        kinds = [f"{kind}-{j}" for j in range(0, top + 2) for kind in ("linear", "colinear")]
        yield f"quad:{n}", [*kinds, "max-plus", "max-minus"]


def run_outputs(tree: str, argvs: list) -> list:
    """[exit code, stdout, stderr] of each argv, run through ``cli.main`` in ``tree``."""
    child = run_child(
        tree, ["-c", _OUTPUTS], input=json.dumps(argvs), capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)


def exceptional_specs(parent: str):
    """Every e6/e7 token that ``hasse`` prints in ``parent``, ambiguous ones also bare."""
    listings = run_outputs(parent, [["hasse", "e6"], ["hasse", "e7"]])
    for (code, out, _), head in zip(listings, ("e6", "e7")):
        if code != 0:
            raise SystemExit(f"hasse {head} exited {code} in {parent}")
        for line in out.splitlines()[1:]:
            for token in line.split(":", 1)[1].split():
                yield f"{head}:{token}"
                if token[-1].isalpha():
                    yield f"{head}:{token[:-1]}"


def output_argvs(parent: str) -> list:
    """The argv that ``outputs`` compares, in order."""
    quotients = list(swept())
    specs = [f"{selector}:{body}" for selector, bodies in quotients for body in bodies]
    specs += [*exceptional_specs(parent), *MALFORMED]
    argvs = [[cmd, spec] for spec in specs for cmd in ("classify", "degree", "dual")]
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    for name, seed in itertools.product(workloads["WORKLOADS"], (1, 2)):
        argvs += [list(op) for op, _ in workloads["workload_ops"](name, seed)]
    for selector in (*(selector for selector, _ in quotients), "e6", "e7"):
        argvs += [["hasse", selector, *fmt] for fmt in ((), ("--json",), ("--dot",))]
    for kind, nodes in TITS:
        pairs = itertools.product(map(str, nodes), repeat=2)
        argvs += [["tits", kind, *pair, *fmt] for pair in pairs for fmt in ((), ("--json",))]
    for target in ("e6", "e7", "table1", "all"):
        argvs += [["verify", target], ["verify", target, "--json"]]
    return argvs


def outputs(trees: dict, args) -> int:
    argvs = output_argvs(trees["parent"])
    parent, change = (run_outputs(trees[side], argvs) for side in SIDES)
    for argv, old, new in zip(argvs, parent, change):
        for part, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                lines = itertools.zip_longest(str(a).splitlines(True), str(b).splitlines(True))
                k, (a, b) = next((k, pair) for k, pair in enumerate(lines, 1) if pair[0] != pair[1])
                print(f"{' '.join(argv)}: {part} differs at line {k}")
                print(f"  parent: {a!r}\n  change: {b!r}")
                return 1
    print(f"{len(argvs)} argv, 0 differences")
    return 0


def warm(trees: dict, args) -> int:
    def measure(tree):
        child = ["-c", _WARM, json.dumps(WARM_COMMANDS), str(args.calls)]
        return json.loads(run_child(tree, child, capture_output=True, text=True, check=True).stdout)

    runs = alternate(trees, args.runs, measure)
    stats = {op: {"ms": by_pair(runs, op)} for op in runs["parent"][0]}
    method = (
        f"scripts/compare_trees.py warm: {args.runs} pairs of fresh children, the parent first on "
        f"odd pairs; each op's median ms over {args.calls} in-process calls after one warm-up call "
        f"(cold verify_all(): its first call); per op, both medians over runs, the median "
        f"change/parent ratio over pairs, the parent's IQR and the pairs the change won"
    )
    report(stats, method, runs, args.json)
    return 0


def op_run(tree: str, argv: list) -> dict:
    """Wall seconds, peak MiB (None if unreported) and exit code of one command's child."""
    read, write = os.pipe()
    start = time.perf_counter()
    try:
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        proc = run_child(tree, [str(CLI_OP), str(write), *argv], pass_fds=(write,), **quiet)
    finally:
        os.close(write)
    wall = time.perf_counter() - start
    with os.fdopen(read, "rb") as fh:
        kib = fh.read()
    return {"wall_s": wall, "peak_mib": int(kib) / 1024 if kib else None, "exit": proc.returncode}


def held_per_class(tree: str, argv: list) -> float | None:
    """Bytes still traced per class after the command, or None if it did not answer."""
    words = run_child(tree, ["-c", _HELD, *argv], capture_output=True, text=True).stdout.split()
    return float(words[1]) if len(words) == 2 and words[0] == "0" else None


def footprint(trees: dict, args) -> int:
    stats, runs, failed = {}, {}, []
    for selector in args.selectors:
        argv = selector.split()
        argv = argv if argv and argv[0] in COMMANDS else ["hasse", *argv]
        name = " ".join(argv)
        done = alternate(trees, args.runs, lambda tree: op_run(tree, argv))
        stats[name] = {metric: by_pair(done, metric) for metric in ("wall_s", "peak_mib")}
        hasse = argv[0] == "hasse"  # only a hasse poset has classes to divide by
        held = {side: held_per_class(trees[side], argv) if hasse else None for side in SIDES}
        held_stats = pair_stats(*([held[side]] for side in SIDES)) if hasse else "n/a"
        stats[name]["held_b_per_class"] = held_stats
        runs[name] = {side: {"runs": done[side], "held_b_per_class": held[side]} for side in SIDES}
        for side in SIDES:
            exits = sorted({run["exit"] for run in done[side]})
            if exits != [0]:
                failed.append(f"{name} in {side} exited {exits}")
    method = (
        f"scripts/compare_trees.py footprint: {args.runs} pairs per selector, the parent first on "
        "odd pairs; each run a fresh child through bench/cli_op.py, its peak its own VmHWM; held "
        "bytes per class (hasse only) from tracemalloc after the same command run through "
        "cli.main, its Cartan datum built and the command run on gr:1,2 first, one child per "
        "tree; per metric, both medians, the median change/parent ratio over pairs, the parent's "
        "IQR and the pairs the change won"
    )
    report(stats, method, runs, args.json)
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    sub = {}
    for mode, text in (
        ("outputs", "exit code, stdout and stderr of every command over ~16,000 argv"),
        ("warm", "warm in-process times of class commands and verify_all()"),
        ("footprint", "wall time and peak memory of commands, and held bytes per class of hasse"),
    ):
        sub[mode] = modes.add_parser(mode, help=text, description=text)
        sub[mode].add_argument("parent", help="the tree to compare against")
        sub[mode].add_argument("change", help="the tree under test")
    sub["footprint"].add_argument("selectors", nargs="*", help='like og:16 or "degree og:6:1"')
    sub["warm"].add_argument("--runs", type=int, default=6, help="pairs of children (6)")
    sub["warm"].add_argument("--calls", type=int, default=200, help="timed calls per op (200)")
    sub["footprint"].add_argument("--runs", type=int, default=5, help="pairs per selector (5)")
    for mode in ("warm", "footprint"):
        sub[mode].add_argument("--json", metavar="OUT", help="also write the figures and runs here")
    # A footprint SELECTOR after the options is left over here, as argparse
    # takes the positionals in one match.
    args, extra = parser.parse_known_args(argv)
    if extra and (args.mode != "footprint" or any(word.startswith("-") for word in extra)):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.mode == "footprint":
        args.selectors = [*args.selectors, *extra] or [*SELECTORS]
    trees = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    return {"outputs": outputs, "warm": warm, "footprint": footprint}[args.mode](trees, args)


if __name__ == "__main__":
    raise SystemExit(main())
