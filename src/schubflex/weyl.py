"""Exact root-system and Weyl-group arithmetic for families A, B, C, D, E6, E7.

Conventions (Bourbaki numbering throughout):

* Simple roots are labelled 1..rank.  ``cartan[i][j]`` (0-based storage) holds
  <alpha_{i+1}, alpha_{j+1}^vee>, so row i lists the fundamental-weight
  coordinates of alpha_{i+1}.
* Weights are integer tuples in fundamental-weight coordinates:
  v[i] = <v, alpha_{i+1}^vee>.  The simple reflection acts by
  s_i(v) = v - v[i] * (row i of the Cartan matrix).
* Words are sequences of 1-based letters and denote products of simple
  reflections read left to right; ``act`` therefore applies the rightmost
  letter first, so act(word, v) == element(word)(v).
* B_n has the doubled entry cartan[n-2][n-1] == -2 (short root alpha_n);
  C_n is its transpose; D_n is the path 1..n-1 with node n attached to n-2;
  E6/E7 use edges (1,3),(3,4),(4,5),(5,6),(2,4) and, for E7, (6,7).

Building a datum costs O(rank^2): the matrix, plus a check that the diagram
read back from it has the family's group order.  Roots are enumerated only on
request (:func:`positive_roots`, memoised), and only :func:`quotient_dimension`
asks for them, so the size cap of a quotient is checked from the closed-form
orders before any root exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6}


class InternalError(RuntimeError):
    """A structural invariant failed: a bug in the package, not bad input."""


@dataclass(frozen=True)
class CartanDatum:
    """A validated Cartan matrix plus the family/rank it came from."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]

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
        edges.append((rank - 3, rank - 1, -1, -1))
    elif family == "E":
        one_based = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank == 7:
            one_based.append((6, 7))
        edges = [(a - 1, b - 1, -1, -1) for a, b in one_based]
    return edges


@lru_cache(maxsize=None)
def build_cartan(family: str, rank: int) -> CartanDatum:
    """Build the Cartan matrix for one of A, B, C, D (Bourbaki) or E6/E7."""
    if family not in _MIN_RANK:
        raise ValueError(f"unknown family {family!r}")
    if family == "E":
        if rank not in (6, 7):
            raise ValueError(f"family E supports rank 6 or 7, got {rank}")
    elif rank < _MIN_RANK[family]:
        raise ValueError(f"family {family} needs rank >= {_MIN_RANK[family]}, got {rank}")

    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _edges(family, rank):
        rows[i][j] = cij
        rows[j][i] = cji
    datum = CartanDatum(family, rank, tuple(tuple(r) for r in rows))
    # Reading the components back from the matrix and recognising their shapes
    # must give the family's closed-form group order: a dropped edge splits the
    # diagram and a misplaced branch changes its type.  O(rank^2), no roots.
    expected = weyl_order(datum)
    actual = levi_order(datum, range(1, rank + 1))
    if actual != expected:
        raise InternalError(f"{family}{rank} diagram has group order {actual}, expected {expected}")
    return datum


def reflect(datum: CartanDatum, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection s_i (1-based i) to a weight vector."""
    row = datum.cartan[i - 1]
    c = v[i - 1]
    if c == 0:
        return tuple(v)
    return tuple(v[j] - c * row[j] for j in range(datum.rank))


def act(datum: CartanDatum, word, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the group element spelled by ``word`` to ``v`` (rightmost letter first)."""
    out = tuple(v)
    for i in reversed(tuple(word)):
        out = reflect(datum, i, out)
    return out


def rho(datum: CartanDatum) -> tuple[int, ...]:
    """Sum of fundamental weights: the all-ones vector."""
    return (1,) * datum.rank


def longest_element(datum: CartanDatum, generators) -> tuple[int, ...]:
    """Reduced word for the longest element of the parabolic subgroup <s_i : i in generators>.

    Greedy ascent: starting from the identity, repeatedly multiply on the right
    by the smallest available generator that increases length.  Any maximal
    chain in weak order ends at the longest element, so the greedy choice is
    only a determinism device.
    """
    gens = sorted(set(generators))
    for i in gens:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"generator {i} out of range for rank {datum.rank}")
    d = rho(datum)
    word = []
    while True:
        i = next((g for g in gens if d[g - 1] > 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        d = reflect(datum, i, d)


@lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, sorted by (height, coords).

    Enumerated on first request per datum, at O(rank^4) for the classical
    families (O(rank^2) roots, each reflected in rank directions at O(rank)
    apiece), so nothing on the way to a size-capped quotient calls it.
    """
    n = datum.rank
    cartan = datum.cartan
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                pairing = sum(c[j] * cartan[j][i] for j in range(n))
                image = list(c)
                image[i] -= pairing
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    pos = [c for c in seen if all(x >= 0 for x in c)]
    pos.sort(key=lambda c: (sum(c), c))
    return tuple(pos)


def quotient_dimension(datum: CartanDatum, marked) -> int:
    """Dimension of G/P for the parabolic whose marked node set is ``marked``.

    Counts positive roots whose support meets the marked set.
    """
    marked = _check_marked(datum, marked)
    return sum(1 for c in positive_roots(datum) if any(c[i - 1] > 0 for i in marked))


def _check_marked(datum: CartanDatum, marked) -> frozenset[int]:
    marked = frozenset(marked)
    if not marked:
        raise ValueError("marked node set must be nonempty")
    for i in marked:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"marked node {i} out of range for rank {datum.rank}")
    return marked


def weyl_order(datum: CartanDatum) -> int:
    """Order of the full Weyl group, by the classical closed forms."""
    n = datum.rank
    if datum.family == "A":
        return math.factorial(n + 1)
    if datum.family in ("B", "C"):
        return (2**n) * math.factorial(n)
    if datum.family == "D":
        return (2 ** (n - 1)) * math.factorial(n)
    return {6: 51840, 7: 2903040}[n]


def levi_order(datum: CartanDatum, generators) -> int:
    """Order of the parabolic subgroup generated by the listed simple reflections.

    Splits the induced subdiagram into connected components, recognises each
    component's type from its shape, and multiplies the closed-form orders.
    """
    gens = sorted(set(generators))
    for i in gens:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"generator {i} out of range for rank {datum.rank}")
    order = 1
    for comp in _components(datum, gens):
        order *= _component_order(datum, comp)
    return order


def _components(datum: CartanDatum, gens: list[int]) -> list[list[int]]:
    remaining = set(gens)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for i in frontier:
                for j in remaining - comp:
                    if datum.cartan[i - 1][j - 1] != 0:
                        comp.add(j)
                        nxt.append(j)
            frontier = nxt
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def _component_order(datum: CartanDatum, comp: list[int]) -> int:
    r = len(comp)
    if r == 1:
        return 2
    doubled = any(
        datum.cartan[i - 1][j - 1] == -2 for i in comp for j in comp if i != j
    )
    if doubled:
        return (2**r) * math.factorial(r)
    neighbour_counts = {
        i: sum(1 for j in comp if j != i and datum.cartan[i - 1][j - 1] != 0)
        for i in comp
    }
    branch = [i for i, c in neighbour_counts.items() if c >= 3]
    if not branch:
        return math.factorial(r + 1)  # simply-laced path: type A_r
    if len(branch) > 1 or neighbour_counts[branch[0]] > 3:
        raise InternalError(f"unsupported diagram shape on nodes {comp}")
    arms = sorted(_arm_lengths(datum, comp, branch[0]))
    if arms[0] == 1 and arms[1] == 1:
        return (2 ** (r - 1)) * math.factorial(r)  # type D_r
    if arms == [1, 2, 2]:
        return 51840  # type E6
    if arms == [1, 2, 3]:
        return 2903040  # type E7
    raise InternalError(f"unsupported diagram shape on nodes {comp}")


def _arm_lengths(datum: CartanDatum, comp: list[int], branch: int) -> list[int]:
    lengths = []
    for start in comp:
        if start == branch or datum.cartan[branch - 1][start - 1] == 0:
            continue
        count = 0
        prev, cur = branch, start
        while True:
            count += 1
            nxt = [
                j
                for j in comp
                if j not in (prev, cur) and datum.cartan[cur - 1][j - 1] != 0
            ]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        lengths.append(count)
    return lengths
