"""Frozen reference decorations for the two exceptional posets.

The data files live under ``data/golden/`` inside the package:

* ``e6_p6.tsv`` and ``e7_p7.tsv``: one row per Schubert class,
  ``node_id<TAB>dim<TAB>degree<TAB>decoration<TAB>comment`` with decoration
  one of ``rigid``/``plus``/``star``/``T`` (the expected classification:
  multi-rigid, Bertini-flexible, cone-flexible, transform-flexible).
* ``table1.tsv``: the transform table,
  ``y_token<TAB>y_star<TAB>t_token<TAB>t_star`` with stars ``*`` or ``-``.

Lines starting with ``#`` are comments.  The directory is resolved from an
explicit argument, then the SCHUBFLEX_GOLDEN_DIR environment variable, then
the packaged copy.  Loading cross-checks every row against the live poset and
raises GoldenDataError on any mismatch, and on a file it cannot read or decode
(the CLI reports these as data-integrity failures, exit code 3).  A loaded
table is the tuple of the decorations by node index, loaded and checked once
per process for each shared poset and resolved directory, and shared.

Class tokens are ``dim:degree`` strings, with one rule, :func:`layer_tokens`.
Where two degree-1 classes of one dimension share the pair (only in dimension
4 of the 27-node poset and dimension 5 of the 56-node poset) a suffix tells
them apart: ``a`` is the maximal linear space (no degree-1 class covers it),
``b`` the other one.  A bare ambiguous token is a usage error (TokenError,
exit code 2).
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from .frozen import Frozen
from .poset import GOLDEN_POSETS, GoldenDataError, QuotientPoset, SchubertNode, quotient

DECORATIONS = ("rigid", "plus", "star", "T")

GOLDEN_ENV_VAR = "SCHUBFLEX_GOLDEN_DIR"

_PACKAGED_DIR = Path(__file__).parent / "data" / "golden"


class TokenError(ValueError):
    """A class token is malformed or does not name a unique class."""


class TransformRow(Frozen):
    __slots__ = ("y_token", "y_star", "t_token", "t_star")


def golden_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(GOLDEN_ENV_VAR)
    if env:
        return Path(env)
    return _PACKAGED_DIR


def _read_rows(path: Path, n_fields: int) -> list[list[str]]:
    try:
        if not path.is_file():
            raise GoldenDataError(f"missing golden file: {path}")
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:  # is_file too: it raises on EACCES, ENAMETOOLONG
        raise GoldenDataError(f"cannot read golden file {path}: {exc}") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise GoldenDataError(
                f"{path.name}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        out.append(fields)
    return out


def load_golden_poset(target: str, directory=None) -> tuple[str, ...]:
    """The e6/e7 decorations by node index, checked against the live poset of ``target``.

    The directory is resolved as :func:`golden_dir` does.  The table is read
    and checked once per process for each target, shared poset and resolved
    directory, the key :func:`schubflex.certify.certificates` uses, so a
    rebuilt poset or another directory gets its own load and check.
    """
    return _load_golden_poset(target, quotient(target), golden_dir(directory))


@lru_cache(maxsize=None)
def _load_golden_poset(target: str, poset: QuotientPoset, directory: Path) -> tuple[str, ...]:
    stem = GOLDEN_POSETS[target]
    path = directory / f"{stem}.tsv"
    rows = []
    for node_id, dim_s, deg_s, deco, _ in _read_rows(path, 5):
        try:
            dim, deg = int(dim_s), int(deg_s)
        except ValueError:
            raise GoldenDataError(
                f"{path.name}: non-integer dim/degree in row for {node_id!r}"
            ) from None
        if dim < 0 or deg < 1:
            raise GoldenDataError(f"{path.name}: bad dim/degree for {node_id!r}")
        if deco not in DECORATIONS:
            raise GoldenDataError(
                f"{path.name}: unknown decoration {deco!r} for {node_id!r}"
            )
        rows.append((node_id, dim, deg, deco))
    return check_against(stem, rows, poset)


def check_against(name: str, rows: list, poset: QuotientPoset) -> tuple[str, ...]:
    """The decorations by node index of the (id, dim, degree, decoration) rows of table ``name``.

    Every class of ``poset`` needs exactly one row, with its dimension and degree.
    """
    live = {n.id: n for n in poset.nodes}
    ids = {row[0] for row in rows}
    if len(ids) != len(rows):
        raise GoldenDataError(f"{name}: duplicate node ids")
    if ids != live.keys():
        missing, extra = sorted(live.keys() - ids), sorted(ids - live.keys())
        raise GoldenDataError(f"{name}: node id mismatch (missing {missing}, extra {extra})")
    decorations = [None] * len(poset.nodes)
    for node_id, dim, degree, decoration in rows:
        node = live[node_id]
        if node.dim != dim or node.degree != degree:
            raise GoldenDataError(
                f"{name}: {node_id} is recorded as dim {dim} degree "
                f"{degree} but the poset has dim {node.dim} degree {node.degree}"
            )
        decorations[node.index] = decoration
    return tuple(decorations)


def load_transform_table(directory=None) -> list[TransformRow]:
    path = golden_dir(directory) / "table1.tsv"
    rows = []
    for y_tok, y_star, t_tok, t_star in _read_rows(path, 4):
        for s in (y_star, t_star):
            if s not in ("*", "-"):
                raise GoldenDataError(f"{path.name}: star field must be '*' or '-', got {s!r}")
        rows.append(TransformRow(y_tok, y_star == "*", t_tok, t_star == "*"))
    if len({r.y_token for r in rows}) != len(rows):
        raise GoldenDataError(f"{path.name}: duplicate source tokens")
    return rows


def is_max_linear(poset: QuotientPoset, node: SchubertNode) -> bool:
    """Degree-1 class that no degree-1 class of the next dimension covers."""
    return node.degree == 1 and not any(c.degree == 1 for c in poset.upper_covers(node))


def layer_tokens(poset: QuotientPoset, layer: list[SchubertNode]) -> list:
    """The token of each class of ``layer``, in its order, or None where the rule names none.

    ``layer`` is the classes of one dimension, or all those of some degrees.
    A class whose degree no other class shares is ``dim:degree``; of exactly
    two degree-1 classes, one a maximal linear space, that one is ``dim:1a``
    and the other ``dim:1b``.
    """
    counts = {}
    for n in layer:
        counts[n.degree] = counts.get(n.degree, 0) + 1
    tokens = []
    for n in layer:
        tokens.append(f"{n.dim}:{n.degree}" if counts[n.degree] == 1 else None)
    if counts.get(1) == 2:
        pair = [k for k, n in enumerate(layer) if n.degree == 1]
        maximal = [k for k in pair if is_max_linear(poset, layer[k])]
        if len(maximal) == 1:
            for k in pair:
                tokens[k] = f"{layer[k].dim}:1{'a' if k in maximal else 'b'}"
    return tokens


def node_token(poset: QuotientPoset, node: SchubertNode) -> str:
    """``dim:degree`` plus an a/b suffix when that pair is shared, by :func:`layer_tokens`."""
    peers = [n for n in poset.nodes_by_dim(node.dim) if n.degree == node.degree]
    token = layer_tokens(poset, peers)[peers.index(node)]
    if token is None:
        raise GoldenDataError(
            f"cannot form a unique token for {node.id} (dim {node.dim}, degree {node.degree})"
        )
    return token


def resolve_token(poset: QuotientPoset, token: str) -> SchubertNode:
    """Find the class named by a ``dim:degree[a|b]`` token."""
    body = token.strip()
    suffix = body[-1:] if body[-1:] in ("a", "b") else ""
    try:
        dim, deg = map(int, body.removesuffix(suffix).split(":"))
    except ValueError:  # not two integers
        raise TokenError(f"malformed class token {token!r} (want dim:degree)") from None
    matches = [n for n in poset.nodes_by_dim(dim) if n.degree == deg]
    if not matches:
        raise TokenError(f"no class with dimension {dim} and degree {deg}")
    tokens, wanted = layer_tokens(poset, matches), f"{dim}:{deg}{suffix}"
    if wanted in tokens:
        return matches[tokens.index(wanted)]
    if suffix:
        raise TokenError(f"suffix {suffix!r} does not apply to token {token!r}")
    raise TokenError(f"token {token!r} is ambiguous; append 'a' (maximal linear) or 'b'")
