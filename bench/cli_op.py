"""One untraced CLI op: ``python bench/cli_op.py RESULT_FD ARGV...``.

Runs ``schubflex.cli`` as ``python -m schubflex.cli ARGV...`` does, and at
exit writes the process's own peak resident memory (VmHWM, in KiB) to the file
descriptor RESULT_FD. ru_maxrss from wait4 will not do: subprocess starts the
child with vfork, so the child's figure also holds the parent's high-water
mark, which is larger than some ops' own peak.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys


def peak_rss_kib() -> int:
    """This process's peak resident memory in KiB (Linux)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    fd = int(sys.argv.pop(1))
    atexit.register(lambda: os.write(fd, str(peak_rss_kib()).encode()))
    runpy.run_module("schubflex.cli", run_name="__main__", alter_sys=True)
