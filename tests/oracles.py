"""Independent reference implementations that only the tests use.

Each helper recomputes something the package computes another way (or checks
an invariant the package relies on without recomputing it), so the tests can
compare the two.
"""

from __future__ import annotations

from functools import lru_cache

from schubflex.classical import GrIndex, dual_index, gr_dimension
from schubflex.weyl import CartanDatum, act, reflect, rho

# Number of positive roots per family and rank (Humphreys, Reflection Groups
# and Coxeter Groups, 3.18): the check that an enumeration of the roots read
# the whole Cartan matrix right.
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63}[n],
}


def length(datum: CartanDatum, word) -> int:
    """Coxeter length of the element spelled by ``word`` (which may be unreduced).

    Works by peeling descents off d = w^{-1}(rho) until it returns to rho;
    each peel shortens the element by exactly one.
    """
    r = rho(datum)
    d = act(datum, tuple(reversed(tuple(word))), r)
    steps = 0
    while d != r:
        i = next(k for k in range(datum.rank) if d[k] < 0)
        d = reflect(datum, i + 1, d)
        steps += 1
    return steps


def is_reduced(datum: CartanDatum, word) -> bool:
    word = tuple(word)
    return length(datum, word) == len(word)


def levi_orbit_order(datum: CartanDatum, generators) -> int:
    """Order of a parabolic subgroup, counted as a weight orbit.

    Independent of :func:`schubflex.weyl.levi_order`: the orbit of the
    strictly dominant weight sum(omega_i for i in generators) under the
    subgroup is free, so its size equals the group order.  Exponential in the
    component sizes; meant as a cross-check on small generator sets.
    """
    gens = sorted(set(generators))
    start = tuple(1 if (i + 1) in gens else 0 for i in range(datum.rank))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                w = reflect(datum, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def max_rep_word(ctx, ref) -> tuple[int, ...]:
    """Reduced word for the maximal representative w0_Q * u of a G/Q coset."""
    node = ctx.q_poset.node(ref)
    word = ctx.w0q_word + tuple(node.min_word)
    assert is_reduced(ctx.datum, word), f"lengths must add for w0_Q * u at {node.id}"
    return word


def ungroup(groups) -> tuple[int, ...]:
    """Inverse of :func:`schubflex.classical.grouped`: lambda from (value, multiplicity) runs."""
    out = []
    pos = 0
    for v, m in groups:
        for _ in range(m):
            pos += 1
            out.append(v + pos)
    return tuple(out)


def gr_pairing(a: GrIndex, b: GrIndex) -> int:
    """Intersection number sigma_a . sigma_b in complementary dimensions (0 or 1)."""
    if (a.k, a.n) != (b.k, b.n):
        raise ValueError("indices live on different Grassmannians")
    if gr_dimension(a) + gr_dimension(b) != a.k * (a.n - a.k):
        raise ValueError("pairing needs complementary dimensions")
    return 1 if b.lam == dual_index(a).lam else 0


@lru_cache(maxsize=None)
def corner_peeling_count(shape: tuple[int, ...]) -> int:
    """Standard tableaux of a partition shape: sum over the shapes with one corner removed.

    The cell holding the largest entry of a standard filling is a corner, so
    the count is the sum of the counts of the shapes left after removing one.
    """
    shape = tuple(x for x in shape if x > 0)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            smaller = list(shape)
            smaller[i] -= 1
            total += corner_peeling_count(tuple(smaller))
    return total
