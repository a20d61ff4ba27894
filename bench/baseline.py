"""Record baseline.json: each workload's metrics over seeds 1..10, one fresh run each.

    python3 bench/baseline.py                 # writes bench/baseline.json
    python3 bench/baseline.py --out set2.json

Run from the repository root. For every workload, ``run.py --trace 0`` runs
once per seed for BENCHMARK.json's run_seconds, and ``run.py --trace 1`` once
with the first seed. The file holds, per end-to-end metric, every value, the
median and the spread (distance between the quartiles over the median, as
statistics.quantiles gives them), the same for the unscaled values run.py
prints (see speed.py), and the per-layer values of the traced run. The
spreads are also printed, beside the metric's bound in BENCHMARK.json.
Nothing is written when a run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SPEC_PATH = BENCH.parent / "BENCHMARK.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh run.py; returns its metrics and the unscaled ones it printed."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong outputs\n{proc.stdout[-2000:]}")
    raw = {}
    for line in lines:
        if line.startswith(f"raw {workload} "):
            _, _, name, value, _ = line.split()
            raw[name] = float(value)
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "spread": spread(values), "values": values}


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    out = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps({k: round(v, 4) for k, v in runs[-1][0].items()}), flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            scaled = summary([r[0][key] for r in runs])
            scaled["unscaled"] = summary([r[1][key] for r in runs])
            end_to_end[key] = scaled
            print(f"{name} {key}: median {scaled['median']:.6g} spread {scaled['spread']:.4f} "
                  f"(bound {metric['bound']}); unscaled spread {scaled['unscaled']['spread']:.4f}",
                  flush=True)
        per_layer, _ = run_once(name, SEEDS[0], seconds, 1)
        print(f"{name} trace.overhead_s {per_layer['trace.overhead_s']:.4f}", flush=True)
        out["workloads"][name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
