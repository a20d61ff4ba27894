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
same words.  :data:`FAMILIES` has one row per family: how its class is read
and how ``classify``, ``degree`` and ``dual`` answer, none of which builds a
classical quotient.  Every command that needs a family's poset gets it from
:func:`schubflex.poset.quotient`.  A malformed spec raises :class:`SpecError`.

This module imports only :mod:`~schubflex.weyl` and :mod:`~schubflex.poset`
(with what they import), which every command needs, and loads the rest
through :func:`_module` on first need.  ``hasse`` loads
:mod:`~schubflex.golden` only for its text output's class tokens.  A class
spec loads :mod:`~schubflex.classical`, or :mod:`~schubflex.golden` for an
e6/e7 token; ``classify`` adds :mod:`~schubflex.rigidity`, and
:mod:`~schubflex.witnesses` for a flexible class, or for an e6/e7 class the
certificate pipeline (:mod:`~schubflex.verify`, which loads the rest) once its
token has resolved, so a refused token loads nothing more.  :func:`_module`
caches each module, so a process that runs many commands through
``cli.main`` runs no import statement after the first command of each kind.
No package module imports :mod:`schubflex.cli`: ``python -m schubflex.cli``
runs it as ``__main__``, so an import would compile it a second time.
"""

from __future__ import annotations

import importlib
import math
import sys
from functools import lru_cache, partial

from . import weyl
from .diagram import _write_batches
from .poset import (
    DEFAULT_SIZE_CAP,
    GOLDEN_POSETS,
    QUOTIENTS,
    GoldenDataError,
    QuotientPoset,
    check_quotient,
    quotient,
)


@lru_cache(maxsize=None)
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


def _quadric_index(classical, n: int, body: str):
    if body in ("max-plus", "max-minus"):
        return classical.QuadricIndex(n, body)
    kind, _, j = body.rpartition("-")
    try:
        j = int(j)
    except ValueError:
        kind = ""
    if not kind:
        want = "linear-j, colinear-j, max-plus or max-minus"
        raise SpecError(f"malformed quadric kind {body!r} (want {want})")
    return classical.QuadricIndex(n, kind, j)


def _verdict(dimension: str, classifier: str, witness: str, idx, golden_dir) -> int:
    """Print a classical class's verdict, and a witness if it is flexible."""
    verdict = getattr(_module(".rigidity"), classifier)(idx)
    dim = getattr(_module(".classical"), dimension)(idx)
    print(f"class: {idx}\ndimension: {dim}\nverdict: {verdict}")
    if not verdict.rigid:
        w = getattr(_module(".witnesses"), witness)(idx)
        if w is None:
            print("witness: none found", file=sys.stderr)
            return 1
        print(f"witness: {w.kind}")
        for key in sorted(w.payload):
            print(f"  {key}: {w.payload[key]}")
    return 0


def _certificate_row(cls, golden_dir) -> int:
    """Print an e6/e7 class's row of its poset's certificates."""
    target, _, node = cls
    row = _module(".verify").certificates(target, golden_dir).row(node)
    print(f"class: {target}:{row['token']}\ndimension: {row['dim']}\ndegree: {row['degree']}")
    print(f"decoration: {row['decoration']}")
    print(f"certificates: {', '.join(row['certificates']) or 'none'}")
    for detail in row["details"]:
        print(f"  [{detail['kind']}]")
        for key in sorted(detail):
            if key != "kind":
                print(f"    {key}: {detail[key]}")
    return 0


def _gr_degree(idx) -> str:
    """A gr degree, refused past sys.get_int_max_str_digits() (0 sets no limit).

    The degree is at most (k(n-k))!; past that, a float estimate refuses before the product.
    """
    classical, limit = _module(".classical"), sys.get_int_max_str_digits()
    big = limit and math.lgamma(idx.k * (idx.n - idx.k) + 1) >= (limit + 1) * math.log(10)
    if not big or classical.gr_degree_log10(idx) < limit + 1:  # + 1: past the float error
        try:
            return str(classical.gr_degree(idx))
        except ValueError:  # past the limit, whose advice is not ours to give
            pass
    raise ValueError(f"the degree has more than {limit} digits, too many to print")


def _lg_degree(idx) -> int:
    if idx.n != 1:
        raise SpecError(
            "degree is not implemented for lg classes (the minimal embedding is not minuscule)"
        )
    return 1  # LG(1,2) = P^1, the one minuscule lg: a point and the line, both of degree 1


def _og_degree(idx) -> int:
    check_quotient("og", idx.n)  # refuses an over-cap n as hasse og:n does, building nothing
    return _module(".classical").og_degree(idx)


def _token_dual(cls) -> str:
    target, poset, node = cls
    return f"{target}:{_module('.golden').node_token(poset, poset.poincare_dual(node))}"


#: One row per class family: (reader, classify, degree, dual).  A classical
#: reader takes classical, the selector's parameters and the class part; an
#: e6/e7 class is read as (head, poset, node).  The rest look up what they call
#: when called, so each module loads on first need and bench/tracer.py sees it.
FAMILIES = {
    "gr": (lambda classical, k, n, body: classical.GrIndex(k, n, _parse_lam(body)),
           partial(_verdict, "gr_dimension", "classify_gr", "moduli_witness_gr"),
           _gr_degree, lambda idx: _module(".classical").dual_index(idx)),
    "lg": (lambda classical, n, body: classical.IsotropicIndex("lg", n, _parse_lam(body)),
           partial(_verdict, "isotropic_dimension", "classify_lg", "moduli_witness_isotropic"),
           _lg_degree, lambda idx: _module(".classical").isotropic_dual(idx)),
    "og": (lambda classical, n, body: classical.IsotropicIndex("og", n, _parse_lam(body)),
           partial(_verdict, "isotropic_dimension", "classify_og", "moduli_witness_isotropic"),
           _og_degree, lambda idx: _module(".classical").isotropic_dual(idx)),
    "quad": (_quadric_index,
             partial(_verdict, "quadric_dimension", "classify_quadric", "quadric_witness"),
             lambda idx: _module(".classical").quadric_degree(idx),
             lambda idx: _module(".classical").quadric_dual(idx)),
    "e6": (None, _certificate_row, lambda cls: cls[2].degree, _token_dual),
    "e7": (None, _certificate_row, lambda cls: cls[2].degree, _token_dual),
}


def parse_class_spec(spec: str) -> tuple:
    """The :data:`FAMILIES` row of a class spec, and its class.

    A classical selector's rank is bounded (:func:`weyl.check_rank`) before its index is built.
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise SpecError(f"malformed class spec {spec!r} (want family:...:class)")
    if head in GOLDEN_POSETS:  # the selector part is the head: the token holds a colon
        poset = quotient(head)
        return FAMILIES[head], (head, poset, _module(".golden").resolve_token(poset, body))
    text, _, body = body.partition(":")
    params = read_selector(head, text)
    if (head, params) != ("quad", (2,)):  # Q^2 has no quotient of its own
        try:
            weyl.check_rank(QUOTIENTS[head][1](*params, 0)[1])
        except ValueError as exc:
            raise SpecError(f"bad selector {head + ':' + text!r}: {exc}") from None
    row = FAMILIES[head]
    return row, row[0](_module(".classical"), *params, body)


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


def cmd_classify(spec: str, golden_dir: str | None = None) -> int:
    row, cls = parse_class_spec(spec)  # a refused token never loads the pipeline
    return row[1](cls, golden_dir)


def cmd_degree(spec: str) -> int:
    row, cls = parse_class_spec(spec)
    print(row[2](cls))
    return 0


def cmd_dual(spec: str) -> int:
    row, cls = parse_class_spec(spec)
    print(row[3](cls))
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
    """Print ``blob`` as json.dumps(blob, sort_keys=True, indent=2) does, 256 chunks a write."""
    encoder = _module("json").JSONEncoder(sort_keys=True, indent=2)
    _write_batches(sys.stdout, encoder.iterencode(blob))
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
