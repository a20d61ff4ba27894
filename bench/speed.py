"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same pure-Python work can take 1.5 times as
long in one second as in the next, and such phases come and go over seconds
to minutes. The driver therefore times a fixed loop before and after every
pass and the set-up block, in its own process, never in the process under
test, and scales the times of that block by REFERENCE_S / (mean of the two
loop times). Times are thus given in seconds of a machine that runs the loop
in REFERENCE_S, measured while the block ran; the driver prints the unscaled
figures beside them.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.200
_ITERATIONS = 12_000
_REPEATS = 10


def _loop() -> int:
    # Dict, set, sort and small-tuple work, the kind the package's inner loops
    # do; it tracked the ops' speed better than pure tuple arithmetic did.
    table: dict[tuple, int] = {}
    v = (1, 0, 2, 4, 0, 3, 1)
    for i in range(_ITERATIONS):
        v = v[1:] + ((v[0] * 3 + i) % 97,)
        table[v] = table.get(v, 0) + 1
    hits = sum(1 for k in table if k[0] in (1, 5, 9))
    seen = set()
    for k in sorted(table):
        seen.add(k[::2])
    return hits + len(seen)


def calibrate() -> float:
    """Seconds the fixed loop, run _REPEATS times, takes now."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _loop()
    return time.perf_counter() - start


class Clock:
    """Calibrations between consecutive timed blocks; each one closes a block and opens the next."""

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """Scale for the block that just ended: REFERENCE_S over the mean of the loop times around it."""
        now = calibrate()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor
