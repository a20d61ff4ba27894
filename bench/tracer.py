"""Spans and call counts recorded around schubflex's public functions, from outside the package.

``Tracer.install`` rebinds each function listed in LAYERS to a wrapper, in
every loaded ``schubflex`` module namespace that holds the same object (names
brought in with ``from .x import f`` included), and on the class for methods.
Nothing under ``src/`` changes. Spans are kept in memory as
``[name, start, end, parent, op]`` rows and summarised when the run ends.
Spans and counters are installed in separate passes (see LAYERS).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

SPAN, COUNT = "span", "count"

# (module, attribute, span or counter name, kind). Functions that run hundreds
# of thousands of times per pass are counted, not timed, and counted in a pass
# of their own, so the counting wrappers' cost stays out of the span times.
LAYERS = (
    ("weyl", "build_cartan", "weyl.build_cartan", SPAN),
    ("weyl", "positive_roots", "weyl.positive_roots", COUNT),
    ("weyl", "reflect", "weyl.reflect", COUNT),
    ("weyl", "act", "weyl.act", COUNT),
    ("poset", "build_quotient_poset", "poset.build", SPAN),
    ("poset", "QuotientPoset.leq", "poset.leq", SPAN),
    ("poset", "QuotientPoset.lower_interval", "poset.lower_interval", SPAN),
    ("poset", "QuotientPoset.poincare_dual", "poset.poincare_dual", SPAN),
    ("poset", "QuotientPoset.to_json", "poset.export", SPAN),
    ("poset", "QuotientPoset.to_dot", "poset.export", SPAN),
    ("tits", "make_context", "tits.make_context", SPAN),
    ("tits", "transform", "tits.transform", COUNT),
    ("tits", "tits_flexibility_witness", "tits.witness", SPAN),
    ("witnesses", "linear_space_witness", "witnesses.poset_engines", SPAN),
    ("witnesses", "bertini_witness", "witnesses.poset_engines", SPAN),
    ("witnesses", "divisor_witness", "witnesses.poset_engines", SPAN),
    ("witnesses", "interval_isomorphism", "witnesses.embedding", SPAN),
    ("witnesses", "cone_embedding", "witnesses.embedding", SPAN),
    ("witnesses", "moduli_witness_gr", "witnesses.moduli", SPAN),
    ("witnesses", "moduli_witness_isotropic", "witnesses.moduli", SPAN),
    ("witnesses", "quadric_witness", "witnesses.moduli", SPAN),
    ("golden", "load_golden_poset", "golden.load", SPAN),
    ("golden", "load_transform_table", "golden.load", SPAN),
    ("golden", "check_against", "golden.check_against", SPAN),
    ("golden", "node_token", "golden.token", SPAN),
    ("golden", "resolve_token", "golden.token", SPAN),
    ("verify", "verify_all", "verify.all", SPAN),
    ("verify", "verify_e6", "verify.e6", SPAN),
    ("verify", "verify_e7", "verify.e7", SPAN),
    ("verify", "verify_table1", "verify.table1", SPAN),
    ("rigidity", "classify", "rigidity.classify", SPAN),
    ("rigidity", "classify_gr", "rigidity.classify", SPAN),
    ("rigidity", "classify_lg", "rigidity.classify", SPAN),
    ("rigidity", "classify_og", "rigidity.classify", SPAN),
    ("rigidity", "classify_quadric", "rigidity.classify", SPAN),
    ("classical", "gr_degree", "classical.degree", SPAN),
    ("classical", "quadric_degree", "classical.degree", SPAN),
    ("cli", "main", "cli.main", SPAN),
    ("cli", "build_parser", "cli.build_parser", SPAN),
    ("cli", "parse_class_spec", "cli.parse", SPAN),
)

# Spans whose non-None result counts as a hit for the hit ratios.
HIT_SPANS = ("tits.witness", "witnesses.poset_engines")


class Tracer:
    """Holds the spans and counts of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {f"{name}.hits": 0 for name in HIT_SPANS}
        self.op = None
        self._quotients: set = set()
        self._roots_seen: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {name: self._hit_hook(name) for name in HIT_SPANS}
        self._hooks.update(
            {
                "weyl.positive_roots": self._roots_hook,
                "poset.build": self._build_hook,
                "cli.build_parser": self._parser_hook,
            }
        )

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0
        on_result = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_result is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    def _add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _hit_hook(self, name):
        def hook(args, result):
            if result is not None:
                self.counts[name + ".hits"] += 1

        return hook

    def _roots_hook(self, args, roots) -> None:
        # positive_roots is memoised per datum, so only a first call enumerates.
        if args[0] not in self._roots_seen:
            self._roots_seen.add(args[0])
            self._add("weyl.positive_roots.roots", len(roots))

    def _build_hook(self, args, poset) -> None:
        self._quotients.add((poset.datum.family, poset.datum.rank, poset.marked))
        self._add("poset.build.built", 1)
        self._add("poset.build.classes", len(poset.nodes))
        self._add("poset.build.covers", len(poset.covers))

    def _parser_hook(self, args, parser) -> None:
        parser.parse_args = self._span("cli.parse", parser.parse_args)

    # -- installation --------------------------------------------------------

    def install(self, kinds=(SPAN, COUNT)) -> None:
        """Wrap every LAYERS entry of the given kinds in place until uninstall."""
        modules = {m: importlib.import_module(f"schubflex.{m}") for m, _, _, _ in LAYERS}
        namespaces = [
            vars(mod) for name, mod in list(sys.modules.items())
            if name == "schubflex" or name.startswith("schubflex.")
        ]
        for module, attr, name, kind in LAYERS:
            if kind not in kinds:
                continue
            mod = modules[module]
            make = self._span if kind == SPAN else self._counter
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[method]
                setattr(cls, method, make(name, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(mod, attr)
            wrapper = make(name, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """What one process hands back: span totals and counts (see merge_summaries)."""
        counts = dict(self.counts)
        counts["poset.build.distinct"] = len(self._quotients)
        classical = sys.modules.get("schubflex.classical")
        memo = classical.standard_tableau_count.cache_info().currsize if classical else 0
        return {"spans": span_totals(self.spans), "counts": counts, "memo": memo}


def span_totals(spans) -> dict[str, list]:
    """Per span name: [calls, seconds, self seconds].

    calls and seconds cover only spans with no ancestor of the same name, so
    a recursive or re-entrant layer is not counted twice. Self seconds are a
    span's duration minus the durations of its direct children, summed over
    every span of the name.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[2] += (end - start) - child_time[i]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            row[0] += 1
            row[1] += end - start
    return totals


def merge_summaries(summaries) -> dict:
    """Add up the summaries of the processes of one pass."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    memo = 0
    for s in summaries:
        for name, row in s["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
        memo = max(memo, s["memo"])
    return {"spans": spans, "counts": counts, "memo": memo}


def layer_metrics(merged: dict, import_s: list[float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    spans, counts = merged["spans"], merged["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(prefix):
        return sum(row[2] for name, row in spans.items() if name.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    built = counts.get("poset.build.built", 0)
    distinct = counts.get("poset.build.distinct", 0)
    return {
        "weyl.build_cartan.s": seconds("weyl.build_cartan"),
        "weyl.positive_roots.calls": counts.get("weyl.positive_roots", 0),
        "weyl.positive_roots.roots": counts.get("weyl.positive_roots.roots", 0),
        "weyl.reflect.calls": counts.get("weyl.reflect", 0),
        "weyl.act.calls": counts.get("weyl.act", 0),
        "poset.build.s": seconds("poset.build"),
        "poset.build.calls": calls("poset.build"),
        "poset.build.distinct": distinct,
        "poset.build.distinct_ratio": ratio(distinct, built),
        "poset.build.classes": counts.get("poset.build.classes", 0),
        "poset.build.covers": counts.get("poset.build.covers", 0),
        "poset.leq.calls": calls("poset.leq"),
        "poset.leq.s": seconds("poset.leq"),
        "poset.lower_interval.s": seconds("poset.lower_interval"),
        "poset.poincare_dual.s": seconds("poset.poincare_dual"),
        "poset.export.s": seconds("poset.export"),
        "tits.make_context.s": seconds("tits.make_context"),
        "tits.transform.calls": counts.get("tits.transform", 0),
        "tits.witness.calls": calls("tits.witness"),
        "tits.witness.s": seconds("tits.witness"),
        "tits.witness.hit_ratio": ratio(counts.get("tits.witness.hits", 0), calls("tits.witness")),
        "witnesses.poset_engines.s": seconds("witnesses.poset_engines"),
        "witnesses.poset_engines.calls": calls("witnesses.poset_engines"),
        "witnesses.poset_engines.hit_ratio": ratio(
            counts.get("witnesses.poset_engines.hits", 0), calls("witnesses.poset_engines")
        ),
        "witnesses.embedding.s": seconds("witnesses.embedding"),
        "witnesses.moduli.s": seconds("witnesses.moduli"),
        "witnesses.moduli.calls": calls("witnesses.moduli"),
        "golden.load.s": seconds("golden.load"),
        "golden.check_against.s": seconds("golden.check_against"),
        "golden.token.calls": calls("golden.token"),
        "golden.token.s": seconds("golden.token"),
        "verify.e6.calls": calls("verify.e6"),
        "verify.e6.s": seconds("verify.e6"),
        "verify.e7.s": seconds("verify.e7"),
        "verify.table1.s": seconds("verify.table1"),
        "verify.self_s": self_seconds("verify."),
        "rigidity.classify.calls": calls("rigidity.classify"),
        "rigidity.classify.s": seconds("rigidity.classify"),
        "classical.degree.s": seconds("classical.degree"),
        "classical.tableau_memo_entries": merged["memo"],
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.main.calls": calls("cli.main"),
        "cli.build_parser.s": seconds("cli.build_parser"),
        "cli.parse.s": seconds("cli.parse"),
        "cli.self_s": spans.get("cli.main", [0, 0.0, 0.0])[2],
    }
