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
raises GoldenDataError on any mismatch (the CLI reports these as
data-integrity failures, exit code 3).  A decoration table is loaded and
checked once per process for each shared poset and resolved directory, and
the loaded table is shared and read-only.

Class tokens are ``dim:degree`` strings.  Where two classes share dimension
and degree (only the degree-1 pairs in dimension 4 of the 27-node poset and
dimension 5 of the 56-node poset) a suffix disambiguates: ``a`` is the
maximal linear space (no degree-1 class covers it), ``b`` the other one.  A
bare ambiguous token is a usage error (TokenError, exit code 2).
"""

from __future__ import annotations

import os
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .frozen import Frozen
from .poset import GOLDEN_POSETS, GoldenDataError, QuotientPoset, SchubertNode, quotient

DECORATIONS = ("rigid", "plus", "star", "T")

GOLDEN_ENV_VAR = "SCHUBFLEX_GOLDEN_DIR"


class TokenError(ValueError):
    """A class token is malformed or does not name a unique class."""


class GoldenRow(Frozen):
    __slots__ = ("node_id", "dim", "degree", "decoration", "comment")


class TransformRow(Frozen):
    __slots__ = ("y_token", "y_star", "t_token", "t_star")


class GoldenPoset:
    def __init__(self, name: str, rows: list[GoldenRow]):
        self.name = name
        self.rows = MappingProxyType({r.node_id: r for r in rows})
        if len(self.rows) != len(rows):
            raise GoldenDataError(f"{name}: duplicate node ids")

    def decoration(self, node_id: str) -> str:
        try:
            return self.rows[node_id].decoration
        except KeyError:
            raise GoldenDataError(f"{self.name}: no golden row for {node_id!r}") from None


def golden_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(GOLDEN_ENV_VAR)
    if env:
        return Path(env)
    return _packaged_dir()


@lru_cache(maxsize=None)
def _packaged_dir() -> Path:
    """The copy shipped in the package, located once per process."""
    return Path(str(resources.files("schubflex").joinpath("data", "golden")))


def _read_rows(path: Path, n_fields: int) -> list[list[str]]:
    if not path.is_file():
        raise GoldenDataError(f"missing golden file: {path}")
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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


def load_golden_poset(target: str, directory=None) -> GoldenPoset:
    """Load e6/e7 golden decorations, checked against the live poset of ``target``.

    The directory is resolved as :func:`golden_dir` does.  The table is read
    and checked once per process for each target, shared poset and resolved
    directory, the key :func:`schubflex.verify.certificates` uses, so a
    rebuilt poset or another directory gets its own load and check.
    """
    return _load_golden_poset(target, quotient(target), golden_dir(directory))


@lru_cache(maxsize=None)
def _load_golden_poset(target: str, poset: QuotientPoset, directory: Path) -> GoldenPoset:
    stem = GOLDEN_POSETS[target]
    path = directory / f"{stem}.tsv"
    rows = []
    for node_id, dim_s, deg_s, deco, comment in _read_rows(path, 5):
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
        rows.append(GoldenRow(node_id, dim, deg, deco, comment))
    golden = GoldenPoset(stem, rows)
    check_against(golden, poset)
    return golden


def check_against(golden: GoldenPoset, poset: QuotientPoset) -> None:
    """Cross-check a golden table against the freshly built poset."""
    live = {n.id: n for n in poset.nodes}
    if set(golden.rows) != set(live):
        missing = sorted(set(live) - set(golden.rows))
        extra = sorted(set(golden.rows) - set(live))
        raise GoldenDataError(
            f"{golden.name}: node id mismatch (missing {missing}, extra {extra})"
        )
    for r in golden.rows.values():
        node = live[r.node_id]
        if node.dim != r.dim or node.degree != r.degree:
            raise GoldenDataError(
                f"{golden.name}: {r.node_id} is recorded as dim {r.dim} degree "
                f"{r.degree} but the poset has dim {node.dim} degree {node.degree}"
            )


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
    """Degree-1 class not covered by another degree-1 class."""
    if node.degree != 1:
        return False
    return all(c.degree != 1 for c in poset.upper_covers(node))


def node_token(poset: QuotientPoset, node: SchubertNode) -> str:
    """``dim:degree`` plus an a/b suffix when that pair is shared."""
    peers = poset.find_nodes(node.dim, node.degree)
    if len(peers) == 1:
        return f"{node.dim}:{node.degree}"
    if len(peers) == 2 and sum(is_max_linear(poset, p) for p in peers) == 1:
        return f"{node.dim}:{node.degree}{'a' if is_max_linear(poset, node) else 'b'}"
    raise GoldenDataError(
        f"cannot form a unique token for {node.id} (dim {node.dim}, degree {node.degree})"
    )


def resolve_token(poset: QuotientPoset, token: str) -> SchubertNode:
    """Find the class named by a ``dim:degree[a|b]`` token."""
    body = token.strip()
    suffix = ""
    if body and body[-1] in "ab":
        body, suffix = body[:-1], body[-1]
    parts = body.split(":")
    if len(parts) != 2:
        raise TokenError(f"malformed class token {token!r} (want dim:degree)")
    try:
        dim, deg = int(parts[0]), int(parts[1])
    except ValueError:
        raise TokenError(f"malformed class token {token!r} (want dim:degree)") from None
    matches = poset.find_nodes(dim, deg)
    if not matches:
        raise TokenError(f"no class with dimension {dim} and degree {deg}")
    if suffix:
        maximal = [n for n in matches if is_max_linear(poset, n)]
        rest = [n for n in matches if not is_max_linear(poset, n)]
        if len(matches) != 2 or len(maximal) != 1:
            raise TokenError(f"suffix {suffix!r} does not apply to token {token!r}")
        return maximal[0] if suffix == "a" else rest[0]
    if len(matches) > 1:
        raise TokenError(
            f"token {token!r} is ambiguous; append 'a' (maximal linear) or 'b'"
        )
    return matches[0]
