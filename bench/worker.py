"""Child process of the benchmark: runs schubflex ops inside one interpreter.

    python bench/worker.py RESULT_FD cli KIND ARGV...
        One CLI op with the tracer's KIND layers installed (``span`` or
        ``count``). stdout, stderr and the exit code are the CLI's own.
    python bench/worker.py RESULT_FD queries SEED KIND
        The whole query stream of SEED through ``schubflex.cli.main``, with
        each op's stdout and stderr captured; untraced when KIND is ``none``.

Either way one JSON object goes to the file descriptor RESULT_FD at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import tracer
import workloads
from cli_op import peak_rss_kib


def _main(cli, argv) -> int:
    """cli.main(argv), with argparse's SystemExit turned into its exit code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1


def _import_cli():
    start = time.perf_counter()
    from schubflex import cli

    return cli, time.perf_counter() - start


def _write(fd: int, result: dict) -> None:
    with os.fdopen(fd, "w") as fh:
        json.dump(result, fh)


def run_cli_op(fd: int, kind: str, argv: list[str]) -> int:
    cli, import_s = _import_cli()
    spans = tracer.Tracer()
    spans.install((kind,))
    spans.op = 0
    try:
        return _main(cli, argv)
    finally:
        sys.stdout.flush()
        _write(fd, {"import_s": import_s, "trace": spans.summary()})


def run_queries(fd: int, seed: int, kind: str) -> int:
    cli, import_s = _import_cli()
    ops = workloads.query_ops(seed)
    recorded = workloads.recorded_digests("queries", seed)
    spans = tracer.Tracer() if kind != "none" else None
    if spans:
        spans.install((kind,))
    rows = []
    for i, (argv, _) in enumerate(ops):
        if spans:
            spans.op = i
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = _main(cli, argv)
            except Exception:
                traceback.print_exc()
                code = 1
        rows.append((time.perf_counter() - t, code, out.getvalue().encode(), err.getvalue()))
    problems = [
        workloads.op_problem(argv, expect, code, out, err, recorded[i] if recorded else None)
        for i, ((argv, expect), (_, code, out, err)) in enumerate(zip(ops, rows))
    ]
    _write(
        fd,
        {
            "latencies": [row[0] for row in rows],
            "problems": problems,
            "digests": [workloads.op_digest(code, out) for _, code, out, _ in rows],
            "import_s": import_s,
            "trace": spans.summary() if spans else None,
            "peak_rss_kib": peak_rss_kib(),
        },
    )
    return 0


if __name__ == "__main__":
    fd, mode, rest = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    if mode == "cli":
        sys.exit(run_cli_op(fd, rest[0], rest[1:]))
    sys.exit(run_queries(fd, int(rest[0]), rest[1]))
