"""The selector reader and the ``hasse``, ``tits`` and ``verify`` handlers of :mod:`schubflex.cli`.

Poset selectors for ``hasse`` name a family and its parameters: gr:2,5
lg:3  og:5  quad:7  e6  e7.  One function, :func:`read_selector`, reads both
a ``hasse`` selector and the selector part of a class spec
(:mod:`~schubflex.specs`), so both are refused in the same words.  Every
command that needs a family's poset gets it from
:func:`schubflex.poset.quotient`.  A malformed selector, type or class spec
raises :class:`SpecError`.

This module imports only :mod:`~schubflex.weyl` and :mod:`~schubflex.poset`
(with what they import), which every command needs, and loads the rest
through :func:`schubflex.diagram._module` on first need: for
:mod:`schubflex.cli`, the module of each handler on its first dispatch (so
only the class-spec commands load :mod:`~schubflex.specs`), and for its own
handlers and those of :mod:`~schubflex.specs`, what they run.  ``hasse`` loads
:mod:`~schubflex.golden` only for its text output's class tokens, read a
dimension at a time, and with ``--json`` or ``--dot`` the poset loads its
writers (:mod:`~schubflex.exports`); ``tits`` loads :mod:`~schubflex.tits`
and ``verify`` :mod:`~schubflex.verify`, which loads the rest.  With
``--json`` both load :mod:`~schubflex.jsonout`, which spells their reports;
no command loads the json package, whose modules and indented encoder would
raise its peak memory.  ``_module`` caches each module, so a process that
runs many commands through ``cli.main`` runs no import statement after the
first command of each kind.
No package module imports :mod:`schubflex.cli`: ``python -m schubflex.cli``
runs it as ``__main__``, so an import would compile it a second time.
"""

from __future__ import annotations

import sys

from . import weyl
from .diagram import _module, _write_batches
from .poset import (
    DEFAULT_SIZE_CAP,
    GOLDEN_POSETS,
    QUOTIENTS,
    QuotientPoset,
    quotient,
)


class SpecError(ValueError):
    pass


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


def build_selector(selector: str, size_cap: int = DEFAULT_SIZE_CAP) -> QuotientPoset:
    head, _, params = selector.partition(":")
    params = read_selector(head, params)
    try:
        return quotient(head, *params, size_cap=size_cap)
    except ValueError as exc:
        raise SpecError(f"bad selector {selector!r}: {exc}") from None


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
    layer_tokens = _module(".golden").layer_tokens
    for dim in range(poset.dimension + 1):
        nodes = poset.nodes_by_dim(dim)
        toks = (tok or (str(n.dim) if n.degree is None else f"{n.dim}:{n.degree}")  # no token
                for n, tok in zip(nodes, layer_tokens(poset, nodes)))
        print(f"  dim {dim:>2d}: {' '.join(toks)}")
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
    """Print ``blob`` as print(json.dumps(blob, sort_keys=True, indent=2)) does, a batch at a time.

    :mod:`~schubflex.jsonout` spells the text, and :func:`_write_batches`
    writes its pieces out, ending a batch as the poset exports do.
    """
    _write_batches(sys.stdout, _module(".jsonout").chunks(blob))
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
