"""Record digests.json: the op_digest of every op for the recorded seeds.

    python3 bench/record.py

Run from the repository root at a commit whose outputs are known to be right.
One untraced pass per workload and seed; the file is written only when every
op passes the structural checks.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    workloads.DIGESTS_PATH.unlink(missing_ok=True)
    digests: dict[str, dict[str, list[str]]] = {}
    for name in workloads.WORKLOADS:
        for seed in workloads.RECORDED_SEEDS:
            ops = workloads.workload_ops(name, seed)
            result = run.run_pass(name, seed, ops)
            failed = [(ops[i][0], p) for i, p in enumerate(result.problems) if p is not None]
            if failed:
                print(f"error: {name} seed {seed}: {failed[:5]}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = result.digests
            print(f"{name} seed {seed}: {len(ops)} ops")
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
