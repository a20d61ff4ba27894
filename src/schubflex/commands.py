"""Spec readers and command handlers, dispatched by :mod:`schubflex.cli`.

Class specs name a family and a class in one colon-joined argument:

    gr:2,5:1,3          jump sequence (1,3) on G(2,5)
    lg:3:1,2            Lagrangian family, n = 3
    og:5:2,3            even orthogonal family, n = 5
    quad:7:linear-2     projective line on the 7-dimensional quadric
    quad:6:max-plus     a maximal-family plane on Q^6
    e6:9:9              dimension:degree token on the 27-class poset
    e7:22:5586          same on the 56-class poset

Poset selectors for ``hasse`` drop the class part: gr:2,5  lg:3  og:5
quad:7  e6  e7.  One function, :func:`read_selector`, reads both a ``hasse``
selector and the selector part of a class spec, so both are refused in the
same words.  Every command that needs a family's poset goes through
:func:`schubflex.poset.quotient`, which reads the one family table,
:data:`schubflex.poset.QUOTIENTS`; a row also holds the selector's form.
A malformed spec raises :class:`SpecError`.

This module imports only :mod:`~schubflex.weyl` and :mod:`~schubflex.poset`
(with what they import), which every command needs, and loads the rest
through :func:`_module` on first need.  ``hasse`` loads
:mod:`~schubflex.golden` only for its text output's class tokens; a classical
spec loads :mod:`~schubflex.classical`, and its ``classify`` adds
:mod:`~schubflex.rigidity` and :mod:`~schubflex.witnesses`.  The certificate
pipeline (:mod:`~schubflex.verify` and :mod:`~schubflex.tits`) loads only in
``verify``, ``tits``, and ``classify`` of an e6/e7 class once its token has
resolved, so a refused token loads nothing more.  :func:`_module` caches each
module, so a process that runs many commands through ``cli.main`` runs no
import statement after the first command of each kind.  No package module
imports :mod:`schubflex.cli`: ``python -m schubflex.cli`` runs it as
``__main__``, so an import would compile it a second time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys

from . import weyl
from .poset import (
    DEFAULT_SIZE_CAP,
    GOLDEN_POSETS,
    QUOTIENTS,
    GoldenDataError,
    QuotientPoset,
    quotient,
)


@functools.lru_cache(maxsize=None)
def _module(name: str):
    """The module ``name`` (``.x`` for a package module), imported on first use."""
    return importlib.import_module(name, __package__)


class SpecError(ValueError):
    pass


def _parse_lam(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise SpecError(f"malformed index list {text!r} (want comma-joined integers)") from None


def read_selector(head: str, params: str) -> tuple[int, ...]:
    """The integer parameters of ``head:params``, a selector or a class spec's selector part.

    Each kind of mistake has one refusal: an unknown family, parameters unlike
    the family's written form (gr:k,n lg:n og:n quad:n e6 e7), and a gr k
    outside 1..n-1.
    """
    if head not in QUOTIENTS:
        raise SpecError(f"unknown family {head!r} (want gr, lg, og, quad, e6 or e7)")
    try:
        if head == "gr":
            k, n = map(int, params.split(","))
        elif head not in GOLDEN_POSETS:
            return (int(params),)
        elif params:
            raise ValueError(params)
        else:
            return ()
    except ValueError:
        form = QUOTIENTS[head][0]
        raise SpecError(f"malformed selector {head + ':' + params!r} (want {form})") from None
    if not 1 <= k <= n - 1:
        raise SpecError(f"need 1 <= k <= n-1 in {'gr:' + params!r}")
    return k, n


def parse_class_spec(spec: str):
    """A classical index object, or ("e6"|"e7", node) for exceptional specs.

    A classical selector's rank is bounded (:func:`weyl.check_rank`) before its index is built.
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise SpecError(f"malformed class spec {spec!r} (want family:...:class)")
    if head in GOLDEN_POSETS:  # the selector part is the head: the token holds a colon
        return head, _module(".golden").resolve_token(quotient(head), body)
    text, _, body = body.partition(":")
    params = read_selector(head, text)
    if (head, params) != ("quad", (2,)):  # Q^2 has no quotient of its own
        try:
            weyl.check_rank(QUOTIENTS[head][1](*params, 0)[1])
        except ValueError as exc:
            raise SpecError(f"bad selector {head + ':' + text!r}: {exc}") from None
    classical = _module(".classical")
    if head == "gr":
        return classical.GrIndex(*params, _parse_lam(body))
    if head != "quad":
        return classical.IsotropicIndex(head, *params, _parse_lam(body))
    if body in ("max-plus", "max-minus"):
        return classical.QuadricIndex(*params, body)
    kind, _, j = body.rpartition("-")
    try:
        j = int(j)
    except ValueError:
        kind = ""
    if not kind:
        want = "linear-j, colinear-j, max-plus or max-minus"
        raise SpecError(f"malformed quadric kind {body!r} (want {want})")
    return classical.QuadricIndex(*params, kind, j)


def build_selector(selector: str, size_cap: int = DEFAULT_SIZE_CAP) -> QuotientPoset:
    head, _, params = selector.partition(":")
    params = read_selector(head, params)
    try:
        return quotient(head, *params, size_cap=size_cap)
    except ValueError as exc:
        raise SpecError(f"bad selector {selector!r}: {exc}") from None


def _safe_token(poset: QuotientPoset, node) -> str:
    try:
        return _module(".golden").node_token(poset, node)
    except GoldenDataError:
        if node.degree is None:
            return str(node.dim)
        return f"{node.dim}:{node.degree}"


def cmd_hasse(selector: str, output: str = "text", size_cap: int = DEFAULT_SIZE_CAP) -> int:
    poset = build_selector(selector, size_cap)
    if output == "json":
        poset.to_json(sys.stdout)
        return 0
    if output == "dot":
        poset.to_dot(sys.stdout)
        return 0
    covers = sum(len(poset.lower_covers(n)) for n in poset.nodes)  # no tuple of every pair
    print(
        f"{poset.type_label()} / P{sorted(poset.marked)}: "
        f"{len(poset.nodes)} classes, {covers} covers, "
        f"dimension {poset.dimension}"
    )
    for dim in range(poset.dimension + 1):
        nodes = poset.nodes_by_dim(dim)
        toks = " ".join(_safe_token(poset, n) for n in nodes)
        print(f"  dim {dim:>2d}: {toks}")
    return 0


def _classical_dimension(idx) -> int:
    classical = _module(".classical")
    if isinstance(idx, classical.GrIndex):
        return classical.gr_dimension(idx)
    if isinstance(idx, classical.IsotropicIndex):
        return classical.isotropic_dimension(idx)
    return classical.quadric_dimension(idx)


def _classical_witness(idx):
    classical, witnesses = _module(".classical"), _module(".witnesses")
    if isinstance(idx, classical.GrIndex):
        return witnesses.moduli_witness_gr(idx)
    if isinstance(idx, classical.IsotropicIndex):
        return witnesses.moduli_witness_isotropic(idx)
    return witnesses.quadric_witness(idx)


def cmd_classify(spec: str, golden_dir: str | None = None) -> int:
    parsed = parse_class_spec(spec)  # a refused token never loads the pipeline
    if isinstance(parsed, tuple):
        target, node = parsed
        row = _module(".verify").certificates(target, golden_dir).row(node)
        print(f"class: {target}:{row['token']}")
        print(f"dimension: {row['dim']}")
        print(f"degree: {row['degree']}")
        print(f"decoration: {row['decoration']}")
        print(f"certificates: {', '.join(row['certificates']) or 'none'}")
        for detail in row["details"]:
            print(f"  [{detail['kind']}]")
            for key in sorted(detail):
                if key != "kind":
                    print(f"    {key}: {detail[key]}")
        return 0
    verdict = _module(".rigidity").classify(parsed)
    print(f"class: {parsed}")
    print(f"dimension: {_classical_dimension(parsed)}")
    print(f"verdict: {verdict}")
    if not verdict.rigid:
        w = _classical_witness(parsed)
        if w is None:
            print("witness: none found", file=sys.stderr)
            return 1
        print(f"witness: {w.kind}")
        for key in sorted(w.payload):
            print(f"  {key}: {w.payload[key]}")
    return 0


def _print_gr_degree(idx) -> None:
    """Print a gr degree, refused past sys.get_int_max_str_digits() (0 sets no limit).

    The degree is at most (k(n-k))!; past that, a float estimate refuses before the product.
    """
    classical, limit = _module(".classical"), sys.get_int_max_str_digits()
    big = limit and math.lgamma(idx.k * (idx.n - idx.k) + 1) >= (limit + 1) * math.log(10)
    if not big or classical.gr_degree_log10(idx) < limit + 1:  # + 1: past the float error
        try:
            print(classical.gr_degree(idx))  # str() raises before anything is written
            return
        except ValueError:  # past the limit, whose advice is not ours to give
            pass
    raise ValueError(f"the degree has more than {limit} digits, too many to print")


def cmd_degree(spec: str) -> int:
    parsed = parse_class_spec(spec)
    if isinstance(parsed, tuple):
        print(parsed[1].degree)
        return 0
    classical = _module(".classical")
    if isinstance(parsed, classical.GrIndex):
        _print_gr_degree(parsed)
        return 0
    if isinstance(parsed, classical.QuadricIndex):
        print(classical.quadric_degree(parsed))
        return 0
    if parsed.family == "og":
        poset = quotient("og", parsed.n)  # refuses an over-cap n before the fingerprint
        print(poset.node_by_fingerprint(classical.og_to_fingerprint(parsed)).degree)
        return 0
    if parsed.n == 1:  # LG(1,2) = P^1, the one minuscule lg: a chain, one class per dimension
        (node,) = quotient("lg", 1).nodes_by_dim(classical.isotropic_dimension(parsed))
        print(node.degree)
        return 0
    raise SpecError(
        "degree is not implemented for lg classes (the minimal embedding is not minuscule)"
    )


def cmd_dual(spec: str) -> int:
    parsed = parse_class_spec(spec)
    if isinstance(parsed, tuple):
        target, node = parsed
        poset = quotient(target)
        print(f"{target}:{_module('.golden').node_token(poset, poset.poincare_dual(node))}")
        return 0
    classical = _module(".classical")
    if isinstance(parsed, classical.GrIndex):
        print(classical.dual_index(parsed))
        return 0
    if isinstance(parsed, classical.IsotropicIndex):
        print(classical.isotropic_dual(parsed))
        return 0
    print(classical.quadric_dual(parsed))
    return 0


def _parse_type(text: str):
    body = text.strip().upper()
    if len(body) < 2 or body[0] not in "ABCDEFG":
        raise SpecError(f"malformed type {text!r} (want a family letter and a rank, like e6)")
    try:
        rank = int(body[1:])
    except ValueError:
        raise SpecError(f"malformed type {text!r}") from None
    return body[0], rank


def _dump_json(blob) -> None:
    """Print ``blob`` as json.dumps(blob, sort_keys=True, indent=2) spells it, written as encoded."""
    _module("json").dump(blob, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def cmd_tits(type_name: str, p: int, q: int, output: str = "text") -> int:
    tits = _module(".tits")
    family, rank = _parse_type(type_name)
    ctx = tits.make_context(weyl.build_cartan(family, rank), {p}, {q})
    if output == "json":
        _dump_json(tits.context_json_dict(ctx))
        return 0
    print(f"context: {ctx.label()}  d_tau={ctx.d_tau}")
    for row in tits.transform_rows(ctx):
        src, dst = row["src"], row["dst"]
        verdict = "injective" if row["injective"] else "collapsing"
        print(
            f"  {src['id']} (dim {src['dim']:>2d}) -> "
            f"{dst['id']} (dim {dst['dim']:>2d})  {verdict}"
        )
    return 0


def cmd_verify(target: str, golden_dir: str | None = None, output: str = "text") -> int:
    verify = _module(".verify")
    if target == "all":
        reports = verify.verify_all(golden_dir)
    else:
        reports = [getattr(verify, f"verify_{target}")(golden_dir)]
    if output == "json":
        blob = [r.to_json_dict() for r in reports]
        _dump_json(blob[0] if len(blob) == 1 else blob)
    else:
        for r in reports:
            sys.stdout.write(r.to_text())
    return 0 if all(r.ok for r in reports) else 1
