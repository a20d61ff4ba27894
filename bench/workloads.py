"""The benchmark's workloads and the rules that decide whether an op's output is right.

An op is ``(argv, expect)``: the argument list handed to the ``schubflex``
command line, and ``"ok"`` (exit 0, output on stdout, nothing on stderr) or
``"reject"`` (a usage error: exit 2, empty stdout, one ``error:`` line on
stderr). Every op list is a pure function of the seed, so the program sees
only the generated argument lists. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("verify", "hasse", "queries")

# The certificate pipeline: posets, witness engines, sweeps, golden tables.
VERIFY_OPS = (
    (("verify", "all", "--json"), "ok"),
    (("verify", "table1"), "ok"),
    (("classify", "e6:12:45"), "ok"),
    (("classify", "e7:22:5586"), "ok"),
)

# Wide quotients, high-rank quotients, and over-cap selectors that must exit 2.
# The sizes keep a pass near 6 s, so a 40 s run holds about six passes: with
# gr:6,12, gr:1,80 and quad:100 it held three, and the per-op medians of three
# passes left op_p50_ms spreading past its bound on a noisy machine.
HASSE_OPS = (
    (("hasse", "gr:5,11", "--json"), "ok"),
    (("hasse", "og:9", "--dot"), "ok"),
    (("hasse", "lg:8"), "ok"),
    (("hasse", "e7", "--json"), "ok"),
    (("hasse", "gr:1,64"), "ok"),
    (("hasse", "quad:80", "--json"), "ok"),
    (("hasse", "og:40"), "reject"),
    (("hasse", "gr:20,40"), "reject"),
    (("hasse", "lg:30"), "reject"),
)

QUERY_COUNT = 2000

# Class tokens of the two exceptional posets, in node-id order.
E6_TOKENS = (
    "0:1 1:1 2:1 3:1 4:1a 4:1b 5:2 5:1 6:3 6:2 7:5 7:2 8:5 8:7 8:2 9:12 9:9 "
    "10:12 10:21 11:12 11:33 12:45 12:33 13:78 14:78 15:78 16:78"
).split()
E7_TOKENS = (
    "0:1 1:1 2:1 3:1 4:1 5:1a 5:1b 6:2 6:1 7:3 7:2 8:5 8:2 9:5 9:7 9:2 10:12 "
    "10:9 10:2 11:12 11:21 11:11 12:12 12:33 12:32 13:45 13:33 13:65 14:78 "
    "14:110 14:98 15:78 15:286 15:98 16:78 16:364 16:384 17:78 17:442 17:748 "
    "18:520 18:1190 18:748 19:1710 19:1938 20:3648 20:1938 21:5586 21:1938 "
    "22:7524 22:5586 23:13110 24:13110 25:13110 26:13110 27:13110"
).split()

# Percent of the query stream per family (they sum to 100); query_ops draws
# exactly that many ops from each generator below. e7 degree/dual rebuild the
# 56-class poset, about 9 ms an op and the slowest common op; at 10% of the
# stream they hold op_p90_ms, so p90 sits inside that cluster, not on its edge.
QUERY_MIX = (
    ("gr", 30),
    ("lg", 15),
    ("og", 15),
    ("quad", 10),
    ("e6", 5),
    ("e7", 10),
    ("hasse", 7),
    ("malformed", 8),
)


def _seq(values) -> str:
    return ",".join(map(str, values))


def _subset(rng: random.Random, top: int, size: int) -> list[int]:
    return sorted(rng.sample(range(1, top + 1), size))


# Each generator makes the i-th op of its family. The command, and for og also
# n, follow i round-robin, so every seed has the same number of ops of each
# command (and og rank): og degree rebuilds the poset, 46 ms at n = 8 and far
# less below, and independent draws moved a pass's time by 10% from seed to seed.


def _gr(rng, i):
    # n stops at 18: gr_degree memoizes every subshape, so a full shape at
    # n = 18 already costs about 0.4 s and 30 MB.
    n = rng.randint(4, 18)
    k = rng.randint(1, n - 1)
    cmd = ("classify", "degree", "dual")[i % 3]
    return (cmd, f"gr:{k},{n}:{_seq(_subset(rng, n, k))}"), "ok"


def _lg(rng, i):
    n = rng.randint(2, 24)
    lam = _subset(rng, n, rng.randint(0, n))
    return (("classify", "dual")[i % 2], f"lg:{n}:{_seq(lam)}"), "ok"


def _og(rng, i):
    n = 3 + i // 3 % 6
    lam = _subset(rng, n - 1, rng.randint(0, n - 1))
    return (("classify", "degree", "dual")[i % 3], f"og:{n}:{_seq(lam)}"), "ok"


def _quad(rng, i):
    n = rng.choice([m for m in range(1, 40) if m != 2])
    odd = n % 2
    linear_top = (n + 1) // 2 if odd else n // 2
    colinear_top = (n - 1) // 2 if odd else n // 2 - 1
    kinds = [f"linear-{j}" for j in range(1, linear_top + 1)]
    kinds += [f"colinear-{j}" for j in range(colinear_top + 1)]
    if not odd:
        kinds += ["max-plus", "max-minus"]
    return (("classify", "degree", "dual")[i % 3], f"quad:{n}:{rng.choice(kinds)}"), "ok"


def _e6(rng, i):
    return (("degree", "dual")[i % 2], f"e6:{rng.choice(E6_TOKENS)}"), "ok"


def _e7(rng, i):
    return (("degree", "dual")[i % 2], f"e7:{rng.choice(E7_TOKENS)}"), "ok"


def _hasse(rng, i):
    n = rng.randint(3, 8)
    selector = rng.choice(
        (
            f"gr:{rng.randint(1, n - 1)},{n}",
            f"lg:{rng.randint(2, 5)}",
            f"og:{rng.randint(3, 6)}",
            f"quad:{rng.choice((1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))}",
            "e6",
            "e7",
        )
    )
    return ("hasse", selector, *rng.choice(((), ("--json",), ("--dot",)))), "ok"


def _malformed(rng, i):
    n = rng.randint(4, 12)
    cmd = rng.choice(("classify", "degree", "dual"))
    argv = rng.choice(
        (
            (cmd, f"gr:{n}:1"),  # gr needs k,n
            (cmd, f"gr:2,{n}:1,{n + 1}"),  # entry above n
            (cmd, f"gr:2,{n}:3,1"),  # not increasing
            (cmd, f"gr:2,{n}:1,x"),  # not an integer
            (cmd, f"sp:{n}:1"),  # unknown family
            (cmd, f"lg:{n}:{n + 1}"),  # entry above n
            (cmd, f"og:{n}:{n}"),  # entry above n-1
            (cmd, f"quad:{n}:bogus-1"),  # unknown quadric kind
            (cmd, f"e6:{n + 20}:1"),  # no such class
            (rng.choice(("degree", "dual")), "e6:4:1"),  # ambiguous token
            ("degree", f"lg:{n}:1"),  # no lg degrees
            ("hasse", f"gr:{n},{n}"),  # k out of range
        )
    )
    return argv, "reject"


_GENERATORS = {
    "gr": _gr,
    "lg": _lg,
    "og": _og,
    "quad": _quad,
    "e6": _e6,
    "e7": _e7,
    "hasse": _hasse,
    "malformed": _malformed,
}


# The full shape of every G(k,18). Every shape the gr generator draws lies
# inside one of these, so the degree memo ends each pass at the same size
# whatever the seed, and its cost shows on every seed.
GR_FULL_SHAPES = tuple(
    (("degree", f"gr:{k},18:{_seq(range(19 - k, 19))}"), "ok") for k in range(1, 18)
)


def query_ops(seed: int) -> list[tuple[tuple[str, ...], str]]:
    """The query stream for one seed: QUERY_COUNT ops in a seeded order.

    Each family gets exactly its QUERY_MIX share, so seeds differ in the ops
    drawn and their order, not in how many of each family there are. The
    GR_FULL_SHAPES count toward the gr share.
    """
    rng = random.Random(seed)
    ops = list(GR_FULL_SHAPES)
    for family, percent in QUERY_MIX:
        quota = QUERY_COUNT * percent // 100 - (len(GR_FULL_SHAPES) if family == "gr" else 0)
        ops += [_GENERATORS[family](rng, i) for i in range(quota)]
    rng.shuffle(ops)
    return ops


def workload_ops(name: str, seed: int) -> list[tuple[tuple[str, ...], str]]:
    """The op list of one pass; the fixed lists are shuffled by the seed."""
    if name == "queries":
        return query_ops(seed)
    ops = list({"verify": VERIFY_OPS, "hasse": HASSE_OPS}[name])
    random.Random(seed).shuffle(ops)
    return ops


# -- correctness -------------------------------------------------------------

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# The default seed and one held-out seed; record.py writes their digests.
RECORDED_SEEDS = (1, 2)


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    """op_digest of every op of one pass, in op order, or None for unrecorded seeds."""
    if not DIGESTS_PATH.exists():
        return None
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def op_digest(code: int, stdout: bytes) -> str:
    """Digest of an op's exit code and the sha256 of its stdout."""
    inner = hashlib.sha256(stdout).hexdigest()
    return hashlib.sha256(f"{code}:{inner}".encode()).hexdigest()[:16]


def _hook_length_count(shape) -> int:
    """Standard Young tableaux of a partition shape, by the hook length formula."""
    cells = sum(shape)
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + conjugate[j] - i - 1
    return math.factorial(cells) // hooks


def _hasse_class_count(selector: str) -> int:
    head, _, params = selector.partition(":")
    if head == "gr":
        k, n = map(int, params.split(","))
        return math.comb(n, k)
    if head == "lg":
        return 2 ** int(params)
    if head == "og":
        return 2 ** (int(params) - 1)
    if head == "quad":
        n = int(params)
        return n + 2 if n % 2 == 0 else n + 1
    return {"e6": 27, "e7": 56}[head]


def _semantic_problem(argv, stdout: bytes) -> str | None:
    """Independent checks on outputs that have a closed form."""
    cmd, spec = argv[0], argv[1]
    if cmd == "degree" and spec.startswith("gr:"):
        parts = [int(x) for x in spec.split(":")[2].split(",")]
        shape = sorted((x - i for i, x in enumerate(parts, 1)), reverse=True)
        shape = [x for x in shape if x > 0]
        if stdout.strip() != str(_hook_length_count(shape)).encode():
            return "degree differs from the hook length formula"
    if cmd == "hasse" and "--json" in argv:
        nodes = len(json.loads(stdout)["nodes"])
        if nodes != _hasse_class_count(spec):
            return f"hasse has {nodes} classes"
    return None


def op_problem(argv, expect: str, code, stdout: bytes, stderr: str, digest: str | None) -> str | None:
    """Why an op's result is wrong, or None when it is right.

    ``code`` is None when the op timed out. ``digest`` is the recorded
    op_digest for this op, or None when the seed has no recorded digests.
    """
    if code is None:
        return "timeout"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if expect == "reject":
        lines = stderr.splitlines()
        if code != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"not rejected cleanly (exit {code})"
    else:
        if code != 0 or not stdout or stderr:
            return f"exit {code} with {len(stdout)} bytes out, {len(stderr)} bytes err"
        problem = _semantic_problem(argv, stdout)
        if problem:
            return problem
    if digest is not None and op_digest(code, stdout) != digest:
        return "stdout or exit code differs from the recorded digest"
    return None


def error_rate(problems) -> float:
    """Failed ops over attempted ops; a problem is None for an op that passed."""
    problems = list(problems)
    return sum(p is not None for p in problems) / len(problems)
