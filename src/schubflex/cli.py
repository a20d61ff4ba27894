"""Command line front end.

Exit codes: 0 on success, 1 when a verification target fails, 2 on usage
errors (including malformed or ambiguous class specs), 3 when the shipped
decoration tables are unreadable or internally inconsistent, 141 (128 +
SIGPIPE) when the reader of stdout closes it early, as ``| head`` does; that
exit prints nothing on stderr.

Class specs name a family and a class in one colon-joined argument:

    gr:2,5:1,3          jump sequence (1,3) on G(2,5)
    lg:3:1,2            Lagrangian family, n = 3
    og:5:2,3            even orthogonal family, n = 5
    quad:7:linear-2     projective line on the 7-dimensional quadric
    quad:6:max-plus     a maximal-family plane on Q^6
    e6:9:9              dimension:degree token on the 27-class poset
    e7:22:5586          same on the 56-class poset

Poset selectors for ``hasse`` drop the class part: gr:2,5  lg:3  og:5
quad:7  e6  e7.  Every command that needs a family's poset goes through
:func:`schubflex.poset.quotient`, which reads the one family table,
:data:`schubflex.poset.QUOTIENTS`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import weyl
from .classical import (
    GrIndex,
    IsotropicIndex,
    QuadricIndex,
    dual_index,
    gr_degree,
    gr_dimension,
    isotropic_dimension,
    isotropic_dual,
    og_to_fingerprint,
    quadric_degree,
    quadric_dimension,
    quadric_dual,
)
from .golden import GOLDEN_POSETS, GoldenDataError, TokenError, node_token, resolve_token
from .poset import DEFAULT_SIZE_CAP, QUOTIENTS, QuotientPoset, quotient
from .rigidity import classify
from .tits import context_json_dict, make_context, transform_rows
from .verify import certificates, verify_all, verify_e6, verify_e7, verify_table1
from .witnesses import (
    moduli_witness_gr,
    moduli_witness_isotropic,
    quadric_witness,
)


class SpecError(ValueError):
    pass


def _parse_lam(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"malformed index list {text!r} (want comma-joined integers)") from None


def parse_class_spec(spec: str):
    """A classical index object, or ("e6"|"e7", token) for exceptional specs."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(f"malformed class spec {spec!r} (want family:...:class)")
    if head in GOLDEN_POSETS:
        return (head, rest)
    params, _, body = rest.partition(":")
    if head == "gr":
        try:
            k, n = (int(x) for x in params.split(","))
        except ValueError:
            raise SpecError(f"malformed gr selector {spec!r} (want gr:k,n:...)") from None
        return GrIndex(k, n, _parse_lam(body))
    if head in ("lg", "og"):
        try:
            n = int(params)
        except ValueError:
            raise SpecError(f"malformed {head} selector {spec!r} (want {head}:n:...)") from None
        return IsotropicIndex(head, n, _parse_lam(body))
    if head == "quad":
        try:
            n = int(params)
        except ValueError:
            raise SpecError(f"malformed quad selector {spec!r} (want quad:n:kind)") from None
        if body in ("max-plus", "max-minus"):
            return QuadricIndex(n, body)
        kind, sep2, j = body.rpartition("-")
        if not sep2:
            raise SpecError(f"malformed quadric kind {body!r}")
        try:
            return QuadricIndex(n, kind, int(j))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    raise SpecError(f"unknown family {head!r} (want gr, lg, og, quad, e6 or e7)")


def build_selector(selector: str, size_cap: int = DEFAULT_SIZE_CAP) -> QuotientPoset:
    head, _, params = selector.partition(":")
    if head not in QUOTIENTS:
        raise SpecError(f"unknown poset selector {selector!r}")
    try:
        if head in GOLDEN_POSETS:
            if params:
                raise SpecError(f"selector {head!r} takes no parameters, got {selector!r}")
            return quotient(head, size_cap=size_cap)
        if head == "gr":
            k, n = (int(x) for x in params.split(","))
            if not 1 <= k <= n - 1:
                raise SpecError(f"need 1 <= k <= n-1 in {selector!r}")
            return quotient(head, k, n, size_cap=size_cap)
        return quotient(head, int(params), size_cap=size_cap)
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad selector {selector!r}: {exc}") from None


def _safe_token(poset: QuotientPoset, node) -> str:
    try:
        return node_token(poset, node)
    except GoldenDataError:
        if node.degree is None:
            return str(node.dim)
        return f"{node.dim}:{node.degree}"


def cmd_hasse(args) -> int:
    poset = build_selector(args.selector, args.size_cap)
    if args.json:
        sys.stdout.write(poset.to_json())
        return 0
    if args.dot:
        sys.stdout.write(poset.to_dot())
        return 0
    print(
        f"{poset.type_label()} / P{sorted(poset.marked)}: "
        f"{len(poset.nodes)} classes, {len(poset.covers)} covers, "
        f"dimension {poset.dimension}"
    )
    for dim in range(poset.dimension + 1):
        nodes = poset.nodes_by_dim(dim)
        toks = " ".join(_safe_token(poset, n) for n in nodes)
        print(f"  dim {dim:>2d}: {toks}")
    return 0


def _classical_dimension(idx) -> int:
    if isinstance(idx, GrIndex):
        return gr_dimension(idx)
    if isinstance(idx, IsotropicIndex):
        return isotropic_dimension(idx)
    return quadric_dimension(idx)


def _classical_witness(idx):
    if isinstance(idx, GrIndex):
        return moduli_witness_gr(idx)
    if isinstance(idx, IsotropicIndex):
        return moduli_witness_isotropic(idx)
    return quadric_witness(idx)


def cmd_classify(args) -> int:
    parsed = parse_class_spec(args.spec)
    if isinstance(parsed, tuple):
        target, token = parsed
        node = resolve_token(quotient(target), token)
        row = certificates(target, args.golden_dir).row(node)
        print(f"class: {target}:{row['token']}")
        print(f"dimension: {row['dim']}")
        print(f"degree: {row['degree']}")
        print(f"decoration: {row['decoration']}")
        certs = ", ".join(row["certificates"]) if row["certificates"] else "none"
        print(f"certificates: {certs}")
        for detail in row["details"]:
            print(f"  [{detail['kind']}]")
            for key in sorted(detail):
                if key != "kind":
                    print(f"    {key}: {detail[key]}")
        return 0
    verdict = classify(parsed)
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


def cmd_degree(args) -> int:
    parsed = parse_class_spec(args.spec)
    if isinstance(parsed, tuple):
        target, token = parsed
        print(resolve_token(quotient(target), token).degree)
        return 0
    if isinstance(parsed, GrIndex):
        print(gr_degree(parsed))
        return 0
    if isinstance(parsed, QuadricIndex):
        print(quadric_degree(parsed))
        return 0
    if parsed.family == "og":
        print(quotient("og", parsed.n).node_by_fingerprint(og_to_fingerprint(parsed)).degree)
        return 0
    raise SpecError(
        "degree is not implemented for lg classes (the minimal embedding is not minuscule)"
    )


def cmd_dual(args) -> int:
    parsed = parse_class_spec(args.spec)
    if isinstance(parsed, tuple):
        target, token = parsed
        poset = quotient(target)
        node = resolve_token(poset, token)
        print(f"{target}:{node_token(poset, poset.poincare_dual(node))}")
        return 0
    if isinstance(parsed, GrIndex):
        print(dual_index(parsed))
        return 0
    if isinstance(parsed, IsotropicIndex):
        print(isotropic_dual(parsed))
        return 0
    print(quadric_dual(parsed))
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


def cmd_tits(args) -> int:
    family, rank = _parse_type(args.type)
    try:
        datum = weyl.build_cartan(family, rank)
        ctx = make_context(datum, {args.p}, {args.q})
    except (ValueError, TypeError) as exc:
        raise SpecError(str(exc)) from None
    if args.json:
        print(json.dumps(context_json_dict(ctx), sort_keys=True, indent=2))
        return 0
    print(f"context: {ctx.label()}  d_tau={ctx.d_tau}")
    for row in transform_rows(ctx):
        src, dst = row["src"], row["dst"]
        verdict = "injective" if row["injective"] else "collapsing"
        print(
            f"  {src['id']} (dim {src['dim']:>2d}) -> "
            f"{dst['id']} (dim {dst['dim']:>2d})  {verdict}"
        )
    return 0


def cmd_verify(args) -> int:
    if args.target == "all":
        reports = verify_all(args.golden_dir)
    else:
        verify_one = {"e6": verify_e6, "e7": verify_e7, "table1": verify_table1}[args.target]
        reports = [verify_one(args.golden_dir)]
    if args.json:
        blob = [r.to_json_dict() for r in reports]
        print(json.dumps(blob[0] if len(blob) == 1 else blob, sort_keys=True, indent=2))
    else:
        for r in reports:
            sys.stdout.write(r.to_text())
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubflex",
        description="Schubert-class posets, rigidity verdicts and movability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hasse", help="print a quotient poset (text, JSON or DOT)")
    p.add_argument("selector", help="gr:k,n lg:n og:n quad:n e6 e7")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable poset")
    fmt.add_argument("--dot", action="store_true", help="Graphviz input")
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP, metavar="N")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("classify", help="rigidity verdict and a witness for one class")
    p.add_argument("spec", help="a class spec, like gr:2,5:1,3 or e6:9:9")
    p.add_argument("--golden-dir", default=None, metavar="DIR")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("degree", help="degree of one class in its minimal embedding")
    p.add_argument("spec")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("dual", help="Poincare dual of one class")
    p.add_argument("spec")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("tits", help="incidence sweep of one quotient into another")
    p.add_argument("type", help="a family letter and rank, like e6")
    p.add_argument("p", type=int, help="marked node of the target quotient")
    p.add_argument("q", type=int, help="marked node of the swept quotient")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tits)

    p = sub.add_parser("verify", help="check the shipped decoration tables from scratch")
    p.add_argument("target", choices=["e6", "e7", "table1", "all"])
    p.add_argument("--golden-dir", default=None, metavar="DIR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; argparse keeps no per-parse state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (SpecError, TokenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GoldenDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit stays quiet
        # (the recipe in the Python docs on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
