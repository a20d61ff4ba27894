"""Class specs: their grammar and reader, and the ``classify``, ``degree`` and ``dual`` handlers.

Class specs name a family and a class in one colon-joined argument:

    gr:2,5:1,3          jump sequence (1,3) on G(2,5)
    lg:3:1,2            Lagrangian family, n = 3
    og:5:2,3            even orthogonal family, n = 5
    quad:7:linear-2     projective line on the 7-dimensional quadric
    quad:6:max-plus     a maximal-family plane on Q^6
    e6:9:9              dimension:degree token on the 27-class poset
    e7:22:5586          same on the 56-class poset

The selector part is read by :func:`schubflex.commands.read_selector`, as a
``hasse`` selector is, so both are refused in the same words.
:data:`FAMILIES` has one row per family: how its class is read and how
``classify``, ``degree`` and ``dual`` answer, none of which builds a
classical quotient.  A malformed spec raises
:class:`~schubflex.commands.SpecError`.

A class spec loads :mod:`~schubflex.classical` (gr, quad) or
:mod:`~schubflex.isotropic` (lg, og), or :mod:`~schubflex.golden` for an
e6/e7 token; ``classify`` adds :mod:`~schubflex.rigidity`, whose
:func:`~schubflex.rigidity.classify` gives every classical verdict, and
:mod:`~schubflex.moduli` for a flexible class, or for an e6/e7 class the
certificate pipeline (:mod:`~schubflex.certify`, which loads the rest) once
its token has resolved, so a refused token loads nothing more.  Each loads
through :func:`schubflex.diagram._module` on first need.  This module is
apart from :mod:`~schubflex.commands` so that neither module's compile is
large (see :mod:`~schubflex.cli`).
"""

from __future__ import annotations

import math
import sys
from functools import partial

from . import weyl
from .commands import SpecError, read_selector
from .diagram import _module
from .poset import GOLDEN_POSETS, QUOTIENTS, check_quotient, quotient


def _parse_lam(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise SpecError(f"malformed index list {text!r} (want comma-joined integers)") from None


def _quadric_index(n: int, body: str):
    classical = _module(".classical")
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


def _verdict(indices: str, dimension: str, witness: str, idx, golden_dir) -> int:
    """Print a classical class's verdict, and a witness if it is flexible."""
    verdict = _module(".rigidity").classify(idx)
    dim = getattr(_module(indices), dimension)(idx)
    print(f"class: {idx}\ndimension: {dim}\nverdict: {verdict}")
    if not verdict.rigid:
        w = getattr(_module(".moduli"), witness)(idx)
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
    row = _module(".certify").certificates(target, golden_dir).row(node)
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
    return _module(".isotropic").og_degree(idx)


def _token_dual(cls) -> str:
    target, poset, node = cls
    return f"{target}:{_module('.golden').node_token(poset, poset.poincare_dual(node))}"


#: One row per class family: (reader, classify, degree, dual).  A classical
#: reader takes the selector's parameters and the class part, and its index
#: type comes from classical (gr, quad) or isotropic (lg, og); an e6/e7 class
#: is read as (head, poset, node), and both share one row.  A classical
#: classify names the functions of the class's dimension and witness; its
#: verdict is :func:`schubflex.rigidity.classify`'s.  Every slot looks up what
#: it calls when called, so each module loads on first need and
#: bench/tracer.py sees it.
FAMILIES = {
    "gr": (lambda k, n, body: _module(".classical").GrIndex(k, n, _parse_lam(body)),
           partial(_verdict, ".classical", "gr_dimension", "moduli_witness_gr"),
           _gr_degree, lambda idx: _module(".classical").dual_index(idx)),
    "lg": (lambda n, body: _module(".isotropic").IsotropicIndex("lg", n, _parse_lam(body)),
           partial(_verdict, ".isotropic", "isotropic_dimension", "moduli_witness_isotropic"),
           _lg_degree, lambda idx: _module(".isotropic").isotropic_dual(idx)),
    "og": (lambda n, body: _module(".isotropic").IsotropicIndex("og", n, _parse_lam(body)),
           partial(_verdict, ".isotropic", "isotropic_dimension", "moduli_witness_isotropic"),
           _og_degree, lambda idx: _module(".isotropic").isotropic_dual(idx)),
    "quad": (_quadric_index,
             partial(_verdict, ".classical", "quadric_dimension", "quadric_witness"),
             lambda idx: _module(".classical").quadric_degree(idx),
             lambda idx: _module(".classical").quadric_dual(idx)),
    **dict.fromkeys(
        GOLDEN_POSETS, (None, _certificate_row, lambda cls: cls[2].degree, _token_dual)
    ),
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
    return row, row[0](*params, body)


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
