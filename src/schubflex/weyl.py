"""Exact root-system and Weyl-group arithmetic for families A, B, C, D, E6, E7.

Conventions (Bourbaki numbering throughout):

* Simple roots are labelled 1..rank.  The Cartan matrix has
  cartan[i][j] = <alpha_{i+1}, alpha_{j+1}^vee> (0-based); a datum holds only
  its off-diagonal nonzero entries, as the neighbour lists
  bonds[i] = ((j, cartan[i][j]), ...), and no dense matrix (the tests'
  oracles rebuild one).
* Weights are integer tuples in fundamental-weight coordinates:
  v[i] = <v, alpha_{i+1}^vee>.  The simple reflection acts by
  s_i(v) = v - v[i] * (row i of the Cartan matrix), so it moves only
  coordinate i and those of node i+1's at most three neighbours.
* Words are sequences of 1-based letters and denote products of simple
  reflections read left to right; ``act`` therefore applies the rightmost
  letter first, so act(word, v) == element(word)(v).
* B_n has the doubled entry cartan[n-2][n-1] == -2 (short root alpha_n);
  C_n is its transpose; D_n is the path 1..n-1 with node n attached to n-2;
  D_2 is two unlinked nodes (A1 x A1) and C_1 one node (A1);
  E6/E7 use edges (1,3),(3,4),(4,5),(5,6),(2,4) and, for E7, (6,7).

Building a datum costs O(rank): the neighbour lists, plus a check that the
diagram read back from them has the family's group order.  Group orders,
quotient dimensions and the opposition involution are closed forms read off
the diagram, in :mod:`~schubflex.closed_forms`, so no package code
enumerates roots; :func:`positive_roots` stays as an enumeration for
cross-checks.
"""

from __future__ import annotations

from functools import lru_cache

from .closed_forms import InternalError, levi_order, weyl_order
from .frozen import Frozen

_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 2, "E": 6}

# Bound on classes x rank, the fingerprint coordinates a quotient replays for
# its lookups; the poset builders check it beside their size cap.
MAX_COORDINATES = 2 * 10**7


class CartanDatum(Frozen):
    """A validated Dynkin diagram plus the family/rank it came from.

    ``bonds`` has O(rank) entries, so hashing and comparing a datum is O(rank).
    """

    __slots__ = ("family", "rank", "bonds")

    def __repr__(self) -> str:
        return f"CartanDatum({self.family}{self.rank})"


def _edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Return (i, j, c_ij, c_ji) with 0-based node indices."""
    edges = []
    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            edges.append((i, i + 1, -1, -1))
        if family == "B" and rank >= 2:
            edges[-1] = (rank - 2, rank - 1, -2, -1)
        if family == "C" and rank >= 2:
            edges[-1] = (rank - 2, rank - 1, -1, -2)
    elif family == "D":
        for i in range(rank - 2):
            edges.append((i, i + 1, -1, -1))
        if rank >= 3:  # D2 is A1 x A1: two nodes, no edge
            edges.append((rank - 3, rank - 1, -1, -1))
    elif family == "E":
        one_based = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank == 7:
            one_based.append((6, 7))
        edges = [(a - 1, b - 1, -1, -1) for a, b in one_based]
    return edges


def check_rank(rank: int) -> None:
    """Refuse a rank whose quotients would pass :data:`MAX_COORDINATES` whatever is marked."""
    if rank * (rank + 1) > MAX_COORDINATES:  # each quotient has at least rank + 1 classes
        raise ValueError(
            f"rank {rank} is too large: its quotients would store over {MAX_COORDINATES} "
            "fingerprint coordinates"
        )


@lru_cache(maxsize=None)
def build_cartan(family: str, rank: int) -> CartanDatum:
    """Build the Dynkin diagram of one of A, B, C, D (Bourbaki) or E6/E7."""
    if family not in _MIN_RANK:
        raise ValueError(f"unknown family {family!r}")
    if family == "E":
        if rank not in (6, 7):
            raise ValueError(f"family E supports rank 6 or 7, got {rank}")
    elif rank < _MIN_RANK[family]:
        raise ValueError(f"family {family} needs rank >= {_MIN_RANK[family]}, got {rank}")
    check_rank(rank)

    bonds = [[] for _ in range(rank)]
    for i, j, cij, cji in _edges(family, rank):
        bonds[i].append((j, cij))
        bonds[j].append((i, cji))
    datum = CartanDatum(family, rank, tuple(map(tuple, bonds)))
    # Reading the components back from the diagram and recognising their shapes
    # must give the family's closed-form group order: a dropped edge splits the
    # diagram and a misplaced branch changes its type.  O(rank), no roots.
    expected = weyl_order(datum)
    actual = levi_order(datum, range(1, rank + 1))
    if actual != expected:
        raise InternalError(f"{family}{rank} diagram has group order {actual}, expected {expected}")
    return datum


def reflect(datum: CartanDatum, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection s_i (1-based i) to a weight vector."""
    c = v[i - 1]
    if c == 0:
        return tuple(v)
    out = list(v)
    out[i - 1] = -c
    for j, a in datum.bonds[i - 1]:
        out[j] -= c * a
    return tuple(out)


def act(datum: CartanDatum, word, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the group element spelled by ``word`` to ``v`` (rightmost letter first).

    No package code calls it: the posets replay their vectors a letter at a
    time.  The tests' oracles apply whole words with it, and the benchmark's
    tracer counts its calls by name.
    """
    out = tuple(v)
    for i in reversed(tuple(word)):
        out = reflect(datum, i, out)
    return out


def marked_weight(datum: CartanDatum, marked) -> tuple[int, ...]:
    """lambda_P, the sum of the fundamental weights of the marked nodes."""
    return tuple(1 if i + 1 in marked else 0 for i in range(datum.rank))


@lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, sorted by (height, coords).

    Enumerated on first request per datum, at O(rank^4) for the classical
    families (O(rank^2) roots, each reflected in rank directions at O(rank)
    apiece).  A root's pairings <c, alpha_i^vee> are 2 c_i plus what its
    coordinates' bonds add.  No package code calls it: dimensions come from
    the closed-form root counts.  It stays here only because the benchmark's
    tracer wraps it by name, and moves to the tests' oracles with the next
    benchmark change.
    """
    n = datum.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            pairing = [2 * x for x in c]
            for j, x in enumerate(c):
                for i, a in datum.bonds[j]:
                    pairing[i] += x * a
            for i in range(n):
                image = list(c)
                image[i] -= pairing[i]
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    pos = [c for c in seen if all(x >= 0 for x in c)]
    pos.sort(key=lambda c: (sum(c), c))
    return tuple(pos)
