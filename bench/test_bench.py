"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter

import pytest

import run
import tracer
import workloads
from schubflex import cli, weyl


def _family(argv, expect) -> str:
    if expect == "reject":
        return "malformed"
    if argv[0] == "hasse":
        return "hasse"
    return argv[1].split(":")[0]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_same_seed_gives_same_ops():
    for name in workloads.WORKLOADS:
        assert workloads.workload_ops(name, 7) == workloads.workload_ops(name, 7)
    assert workloads.query_ops(1) != workloads.query_ops(2)
    assert sorted(workloads.workload_ops("hasse", 3)) == sorted(workloads.HASSE_OPS)


def test_query_mix_follows_the_stated_shares():
    ops = workloads.query_ops(5)
    shares = Counter(_family(argv, expect) for argv, expect in ops)
    assert len(ops) == workloads.QUERY_COUNT
    for family, percent in workloads.QUERY_MIX:
        assert shares[family] == workloads.QUERY_COUNT * percent // 100, family


def test_traced_outputs_are_byte_identical_to_untraced():
    ops = [argv for argv, _ in workloads.query_ops(1)[:60]]
    ops += [("hasse", "og:5", "--dot"), ("hasse", "e6", "--json"), ("classify", "e6:12:45")]
    plain = [_run_in_process(argv) for argv in ops]
    original_main, original_reflect = cli.main, weyl.reflect
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.main is not original_main
        traced = [_run_in_process(argv) for argv in ops]
    finally:
        spans.uninstall()
    assert cli.main is original_main and weyl.reflect is original_reflect
    assert traced == plain
    assert spans.summary()["spans"]["cli.main"][0] == len(ops)


def test_benchmark_children_match_the_plain_cli():
    argv = ["hasse", "og:5", "--dot"]
    plain = run.spawn([sys.executable, "-m", "schubflex.cli", *argv], 60)
    op = run.spawn([sys.executable, str(run.CLI_OP), "{fd}", *argv], 60, result_fd=True)
    spans, counts = (
        run.spawn([sys.executable, str(run.WORKER), "{fd}", "cli", kind, *argv], 60, result_fd=True)
        for kind in (tracer.SPAN, tracer.COUNT)
    )
    for child in (op, spans, counts):
        assert (child.code, child.stdout, child.stderr) == (plain.code, plain.stdout, plain.stderr)
    assert 5000 < int(op.result) < 10**6  # peak resident memory in KiB
    span_trace, count_trace = json.loads(spans.result)["trace"], json.loads(counts.result)["trace"]
    assert "cli.main" in span_trace["spans"] and "weyl.reflect" not in span_trace["counts"]
    assert count_trace["spans"] == {} and count_trace["counts"]["weyl.reflect"] > 0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["poset.build", 1.0, 6.0, 0, 0],
        ["poset.leq", 2.0, 3.0, 1, 0],
        ["poset.leq", 3.5, 4.0, 1, 0],
        ["rigidity.classify", 7.0, 9.0, 0, 0],
        ["rigidity.classify", 7.5, 8.5, 4, 0],
    ]
    totals = tracer.span_totals(spans)
    assert totals["cli.main"] == pytest.approx([1, 10.0, 3.0])
    assert totals["poset.build"] == pytest.approx([1, 5.0, 3.5])
    assert totals["poset.leq"] == pytest.approx([2, 1.5, 1.5])
    # The nested classify span counts once in calls and seconds, fully in self time.
    assert totals["rigidity.classify"] == pytest.approx([1, 2.0, 2.0])
    merged = tracer.merge_summaries(
        [{"spans": totals, "counts": {}, "memo": 0}, {"spans": totals, "counts": {}, "memo": 4}]
    )
    layers = tracer.layer_metrics(merged, [0.1, 0.3])
    assert layers["cli.self_s"] == pytest.approx(6.0)
    assert layers["poset.leq.calls"] == 4
    assert layers["classical.tableau_memo_entries"] == 4
    assert layers["cli.import_s"] == pytest.approx(0.2)


def test_error_rate_counts_every_kind_of_failure(capsys):
    ok = ("degree", "gr:2,4:2,4")
    bad = ("degree", "lg:4:1")
    good_out = b"2\n"
    cases = [
        workloads.op_problem(ok, "ok", 0, good_out, "", workloads.op_digest(0, good_out)),
        workloads.op_problem(ok, "ok", 0, good_out, "", None),
        workloads.op_problem(bad, "reject", 2, b"", "error: no lg degrees\n", None),
        workloads.op_problem(ok, "ok", 1, good_out, "", None),  # wrong exit code
        workloads.op_problem(ok, "ok", 0, b"3\n", "", None),  # wrong degree
        workloads.op_problem(ok, "ok", 0, good_out, "", workloads.op_digest(0, b"x")),  # digest
        workloads.op_problem(ok, "ok", 0, good_out, "Traceback (most recent call last):\n", None),
        workloads.op_problem(ok, "ok", None, b"", "", None),  # timeout
        workloads.op_problem(bad, "reject", 2, b"", "usage: x\nerror: y\n", None),
        workloads.op_problem(bad, "reject", 0, b"", "error: y\n", None),
    ]
    assert cases[:3] == [None, None, None]
    assert all(cases[3:])
    assert workloads.error_rate(cases) == pytest.approx(7 / 10)
    outcome = {"passes": 2, "ops": 5, "problems": cases, "metrics": {"wall_s": 1.5}, "raw": {"wall_s": 1.7}}
    result = run.report("w", outcome, [{"name": "wall_s", "unit": "s"}])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 10, 7)
    assert result["metrics"] == {"wall_s": {"value": 1.5, "unit": "s"}}
    out = capsys.readouterr().out
    assert "w error_rate 0.7000 (7/10)" in out
    assert "raw w wall_s 1.7 s" in out
