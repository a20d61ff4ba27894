"""Benchmark driver for schubflex: closed loop, one client, at most one child at a time.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, untraced then traced

Run from the repository root. The ``verify`` and ``hasse`` ops each run the
CLI as a subprocess (cli_op.py, which runs ``schubflex.cli`` as
``python -m schubflex.cli`` does, with ``PYTHONPATH=src``); the ``queries``
stream runs in one child process through ``schubflex.cli.main``. Passes over
the op list repeat until ``--seconds`` have gone by. Times are wall-clock
times of the children, measured by this process and scaled to a reference
machine speed by calibrations timed here around the set-up block and
between passes (speed.py); the unscaled end-to-end figures are printed too.
Every op's output is checked (see workloads.op_problem). With ``--trace 1``
one pass counts the calls of the hot functions, then untraced passes
alternate with passes that time spans around the package's public functions;
both traced kinds wrap them from outside (tracer.py) and give the per-layer
metrics, and the difference in pass time between span and untraced passes is
``trace.overhead_s``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or its
per-layer ones with ``--trace 1``). The lines before it list every metric by
name and unit, the unscaled ones on lines starting ``raw``, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
CLI_OP = BENCH / "cli_op.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

OP_TIMEOUT_S = 60
QUERIES_TIMEOUT_S = 120
SETUP_REPEATS = 15


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Child:
    code: int | None  # None when the child was killed at its timeout
    stdout: bytes
    stderr: bytes
    result: bytes
    wall_s: float


def spawn(argv: list[str], timeout: float, result_fd: bool = False) -> Child:
    """Run one child to the end; ``{fd}`` in argv becomes a pipe the child may write a result to."""
    read_fd = write_fd = None
    if result_fd:
        read_fd, write_fd = os.pipe()
        argv = [a.replace("{fd}", str(write_fd)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(write_fd,) if result_fd else (),
        )
    finally:
        if write_fd is not None:
            os.close(write_fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    if read_fd is not None:
        chunks[read_fd] = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        deadline = start + timeout
        while sel.get_map():
            left = None if timed_out else deadline - time.perf_counter()
            if left is not None and left <= 0:
                proc.kill()
                timed_out = True
                continue
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    proc.wait()
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    if read_fd is not None:
        os.close(read_fd)
    return Child(
        code=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        result=b"".join(chunks[read_fd]) if read_fd is not None else b"",
        wall_s=wall,
    )


@dataclass
class Pass:
    latencies: list[float]  # per op, wall-clock seconds
    peak_rss_mb: float | None  # None for a traced pass
    problems: list[str | None]
    digests: list[str]
    layers: dict | None  # merged tracer summary of a traced pass
    import_s: list[float]
    speed: float = 1.0  # scale for this pass's times, set by run_workload (speed.Clock)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def cli_pass(ops, recorded, trace: str | None) -> Pass:
    """One pass of subprocess ops, each in a fresh interpreter; ``trace`` is a tracer kind or None."""
    traced = trace is not None
    children = []
    for argv, _ in ops:
        if traced:
            cmd = [sys.executable, str(WORKER), "{fd}", "cli", trace, *argv]
        else:
            cmd = [sys.executable, str(CLI_OP), "{fd}", *argv]
        children.append(spawn(cmd, OP_TIMEOUT_S, result_fd=True))
    problems, digests, summaries, import_s, peaks = [], [], [], [], []
    for i, ((argv, expect), child) in enumerate(zip(ops, children)):
        stderr = child.stderr.decode(errors="replace")
        problems.append(
            workloads.op_problem(
                argv, expect, child.code, child.stdout, stderr, recorded[i] if recorded else None
            )
        )
        digests.append(workloads.op_digest(child.code, child.stdout))
        if not child.result:
            problems[-1] = problems[-1] or "child wrote no result"
        elif traced:
            result = json.loads(child.result)
            summaries.append(result["trace"])
            import_s.append(result["import_s"])
        else:
            peaks.append(int(child.result) / 1024)
    return Pass(
        latencies=[c.wall_s for c in children],
        peak_rss_mb=None if traced else max(peaks, default=0.0),
        problems=problems,
        digests=digests,
        layers=tracer.merge_summaries(summaries) if traced else None,
        import_s=import_s,
    )


def queries_pass(seed: int, n_ops: int, trace: str | None) -> Pass:
    """One pass of the query stream, in one fresh worker process, which times each op."""
    traced = trace is not None
    cmd = [sys.executable, str(WORKER), "{fd}", "queries", str(seed), trace or "none"]
    child = spawn(cmd, QUERIES_TIMEOUT_S, result_fd=True)
    if child.code != 0 or not child.result:
        reason = f"query worker failed (exit {child.code}): {child.stderr.decode(errors='replace')[-300:]}"
        layers = tracer.merge_summaries([]) if traced else None
        return Pass([child.wall_s], 0.0, [reason] * n_ops, [], layers, [])
    result = json.loads(child.result)
    return Pass(
        latencies=result["latencies"],
        peak_rss_mb=result["peak_rss_kib"] / 1024,
        problems=result["problems"],
        digests=result["digests"],
        layers=tracer.merge_summaries([result["trace"]]) if traced else None,
        import_s=[result["import_s"]],
    )


def run_pass(workload: str, seed: int, ops, trace: str | None = None) -> Pass:
    """One pass of the op list, untraced or with one tracer kind (tracer.SPAN or tracer.COUNT)."""
    if workload == "queries":
        return queries_pass(seed, len(ops), trace)
    return cli_pass(ops, workloads.recorded_digests(workload, seed), trace)


def measure_setup(workload: str, seed: int) -> list[float]:
    """SETUP_REPEATS times: fresh interpreter to ``import schubflex.cli``, plus op generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = spawn([sys.executable, "-c", "import schubflex.cli"], OP_TIMEOUT_S)
        if child.code != 0:
            raise BenchError(f"cannot import schubflex.cli: {child.stderr.decode(errors='replace')}")
        start = time.perf_counter()
        workloads.workload_ops(workload, seed)
        times.append(child.wall_s + time.perf_counter() - start)
    return times


def end_to_end_metrics(
    passes: list[Pass], setup_times: list[float], setup_speed: float, scaled: bool = True
) -> dict[str, float]:
    """Medians over passes, except the latency percentiles: those are taken over
    the op list, of each op's median latency over the passes. With ``scaled``,
    each pass's times are multiplied by its speed, and the set-up times by the
    speed measured around the set-up block."""
    per_pass = [[t * p.speed for t in p.latencies] if scaled else p.latencies for p in passes]
    latencies = [statistics.median(op) for op in zip(*per_pass)]
    return {
        "setup_s": statistics.median(setup_times) * (setup_speed if scaled else 1.0),
        "wall_s": statistics.median(sum(times) for times in per_pass),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def per_layer_metrics(plain: list[Pass], traced: list[Pass], counted: Pass) -> dict[str, float]:
    """Medians over span passes, each with the counts of the counting pass added;
    trace.overhead_s compares the span passes with the untraced ones."""
    rows = [
        tracer.layer_metrics(tracer.merge_summaries([p.layers, counted.layers]), p.import_s)
        for p in traced
    ]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        p.wall_s * p.speed for p in traced
    ) - statistics.median(p.wall_s * p.speed for p in plain)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``; returns the result object before unit lookup."""
    ops = workloads.workload_ops(workload, seed)
    # Counts are the same on every pass, so one counting pass will do.
    counted = [run_pass(workload, seed, ops, tracer.COUNT)] if trace else []
    clock = speed.Clock()
    setup_times = [] if trace else measure_setup(workload, seed)
    setup_speed = 1.0 if trace else clock.factor()
    plain: list[Pass] = []
    traced: list[Pass] = []
    # Start a round only when one like the last still ends within ``seconds``,
    # so a run never takes much longer than asked for; there is always one.
    start = last = time.perf_counter()
    while not plain or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        plain.append(run_pass(workload, seed, ops))
        plain[-1].speed = clock.factor()
        if trace:
            traced.append(run_pass(workload, seed, ops, tracer.SPAN))
            traced[-1].speed = clock.factor()
    if trace:
        metrics, raw = per_layer_metrics(plain, traced, counted[0]), {}
    else:
        metrics = end_to_end_metrics(plain, setup_times, setup_speed)
        raw = end_to_end_metrics(plain, setup_times, setup_speed, scaled=False)
    return {
        "passes": len(plain),
        "ops": len(ops),
        "problems": [p for ps in counted + plain + traced for p in ps.problems],
        "metrics": metrics,
        "raw": raw,
    }


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def report(workload: str, outcome: dict, wanted: list[dict]) -> dict:
    """Print the human-readable lines and return the result object."""
    problems = outcome["problems"]
    failed = sum(p is not None for p in problems)
    print(f"# {workload}: {outcome['passes']} passes of {outcome['ops']} ops")
    for i, p in enumerate(problems):
        if p is not None:
            print(f"#   failed op {i % outcome['ops']}: {p}")
    print(f"{workload} error_rate {workloads.error_rate(problems):.4f} ({failed}/{len(problems)})")
    metrics = {}
    for m in wanted:
        value = outcome["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
        if m["name"] in outcome["raw"]:
            print(f"raw {workload} {m['name']} {outcome['raw'][m['name']]!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(problems), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schubflex" / "cli.py").is_file():
        print(f"error: no schubflex sources under {SRC}", file=sys.stderr)
        return 1
    try:
        if args.workload != "all":
            outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
            print(json.dumps(report(args.workload, outcome, wanted)))
            return 0
        results = {}
        for name in workloads.WORKLOADS:
            results[name] = {
                "end_to_end": report(name, run_workload(name, args.seed, args.seconds, False), spec["end_to_end"]),
                "per_layer": report(name, run_workload(name, args.seed, args.seconds, True), spec["per_layer"]),
            }
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
