"""Index arithmetic for Schubert classes on Grassmannians and quadrics.

Families and their index conventions (all 1-based, strictly increasing):

* ``G(k,n)``: k-subsets lambda of {1..n}.  sigma_lambda(F) is the closure of
  {W : dim(W n F_{lambda_i}) >= i}; dim sigma_lambda = sum(lambda_i - i).
* quadric ``Q^n``: the closed class list -- Linear(j) (a j-1 dimensional
  linear space on Q), CoLinear(j) (tangent-type section, dimension n-j), and
  for even n the two families of maximal linear spaces.

The *shifted* form of lambda is lambda_i - i; the *grouped* form collects the
shifted values into (value, multiplicity) runs, written mu_1^{i_1}...mu_t^{i_t}.
The Lagrangian and orthogonal indices are in :mod:`~schubflex.isotropic`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, fsum, lgamma, log

from .frozen import Frozen


# ---------------------------------------------------------------------------
# Grassmannian indices


class GrIndex(Frozen):
    """A Schubert index on G(k,n)."""

    __slots__ = ("k", "n", "lam")

    def __init__(self, k: int, n: int, lam):
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        lam = tuple(lam)
        if len(lam) != k:
            raise ValueError(f"index must have exactly k={k} parts, got {lam}")
        if any(not 1 <= x <= n for x in lam):
            raise ValueError(f"entries must lie in 1..{n}: {lam}")
        if any(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError(f"entries must strictly increase: {lam}")
        super().__init__(k, n, lam)

    def __str__(self) -> str:
        return f"gr:{self.k},{self.n}:{','.join(map(str, self.lam))}"


def shifted(lam) -> tuple[int, ...]:
    """lambda_i - i, the partition-like form (weakly increasing)."""
    return tuple(x - i for i, x in enumerate(lam, start=1))


def grouped(lam) -> tuple[tuple[int, int], ...]:
    """Run-length encoding of the shifted form: ((mu_1, i_1), ..., (mu_t, i_t))."""
    runs: list[list[int]] = []
    for v in shifted(lam):
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return tuple((v, m) for v, m in runs)


def gr_dimension(idx: GrIndex) -> int:
    return sum(shifted(idx.lam))


def dual_index(idx: GrIndex) -> GrIndex:
    """Poincare dual on G(k,n): lambda*_i = n + 1 - lambda_{k+1-i}."""
    return GrIndex(idx.k, idx.n, tuple(idx.n + 1 - x for x in reversed(idx.lam)))


def ann_index(idx: GrIndex) -> GrIndex:
    """The annihilator index on G(n-k,n): complement of lambda, reversed through n+1.

    Corresponds to sending a subspace to its annihilator in the dual space;
    it is an involution and preserves dimension and rigidity.
    """
    taken = set(idx.lam)
    complement = [x for x in range(1, idx.n + 1) if x not in taken]
    return GrIndex(idx.n - idx.k, idx.n, tuple(sorted(idx.n + 1 - x for x in complement)))


@lru_cache(maxsize=1024)
def standard_tableau_count(shape: tuple[int, ...]) -> int:
    """Number of standard fillings of a partition shape (weakly decreasing rows).

    Hook length formula (Frame, Robinson and Thrall 1954): cells! divided by
    the product of the hook lengths, exact in integers and O(cells).
    """
    columns = [0] * max(shape, default=0)
    for row in shape:
        for j in range(row):
            columns[j] += 1
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
    return factorial(sum(shape)) // hooks


def gr_degree(idx: GrIndex) -> int:
    """Projective degree of sigma_lambda in the Pluecker embedding."""
    return standard_tableau_count(tuple(sorted(shifted(idx.lam), reverse=True)))


def gr_degree_log10(idx: GrIndex) -> float:
    """log10 of gr_degree(idx) in floats: a digit count without the exact product.

    It is log10(cells!) less the log10 of the hook product, summed a row at a
    time: with k rows and l_i = shape[i] + k - 1 - i, the hook lengths of row
    i are 1..l_i without the l_i - l_j of the rows j below it (Frobenius).
    The l_j of a run of equal rows are consecutive, so what one run removes
    from row i is a range, whose log is a difference of two lgammas: O(k) per
    run of equal parts, so O(k) for a rectangle.
    """
    shape = sorted(shifted(idx.lam), reverse=True)
    runs, row = [], 0  # (l of a run's top row, its row count), top run first
    for part, rows in groupby(shape):
        count = len(list(rows))
        runs.append((part + len(shape) - 1 - row, count))
        row += count
    terms = [lgamma(sum(shape) + 1)]
    for r, (top, count) in enumerate(runs):
        for first in range(top, top - count, -1):
            # Its own run's rows below remove 1..first - (top - count + 1).
            terms.append(lgamma(first - top + count) - lgamma(first + 1))
            terms += [lgamma(first - low + c) - lgamma(first - low) for low, c in runs[r + 1 :]]
    return fsum(terms) / log(10)


# ---------------------------------------------------------------------------
# Quadrics


class QuadricIndex(Frozen):
    """A Schubert class on the smooth quadric Q^n.

    kind "linear" with parameter j: a linear space of projective dimension
    j-1 lying on Q (for even n only up to j = n/2; the two maximal families
    get their own kinds "max-plus"/"max-minus").  kind "colinear" with
    parameter j: the n-j dimensional tangent-type section (j = 0 is the
    fundamental class).
    """

    __slots__ = ("n", "kind", "j")

    def __init__(self, n: int, kind: str, j: int | None = None):
        if n < 1:
            raise ValueError("quadric dimension must be >= 1")
        if kind in ("max-plus", "max-minus"):
            if n % 2 != 0:
                raise ValueError("max-linear kinds exist only on even quadrics")
            if j is not None:
                raise ValueError("max-linear kinds take no parameter")
        elif kind == "linear":
            top = (n + 1) // 2 if n % 2 else n // 2
            if j is None or not 1 <= j <= top:
                raise ValueError(f"linear parameter must lie in 1..{top}, got {j}")
        elif kind == "colinear":
            top = (n - 1) // 2 if n % 2 else n // 2 - 1
            if j is None or not 0 <= j <= top:
                raise ValueError(f"colinear parameter must lie in 0..{top}, got {j}")
        else:
            raise ValueError(f"unknown quadric kind {kind!r}")
        super().__init__(n, kind, j)

    def __str__(self) -> str:
        if self.kind in ("max-plus", "max-minus"):
            return f"quad:{self.n}:{self.kind}"
        return f"quad:{self.n}:{self.kind}-{self.j}"


def quadric_dimension(idx: QuadricIndex) -> int:
    if idx.kind == "linear":
        return idx.j - 1
    if idx.kind in ("max-plus", "max-minus"):
        return idx.n // 2
    return idx.n - idx.j


def quadric_degree(idx: QuadricIndex) -> int:
    """Degree in the ambient projective space: linear spaces 1, sections 2."""
    return 1 if idx.kind in ("linear", "max-plus", "max-minus") else 2


def quadric_dual(idx: QuadricIndex) -> QuadricIndex:
    """Poincare dual class.

    Linear(j) pairs with CoLinear(j-1).  On even quadrics each maximal family
    pairs with itself when n = 0 mod 4 and with the other family when
    n = 2 mod 4 (the intersection parity of two maximal linear spaces).
    """
    n = idx.n
    if idx.kind == "linear":
        return QuadricIndex(n, "colinear", idx.j - 1)
    if idx.kind == "colinear":
        return QuadricIndex(n, "linear", idx.j + 1)
    if n % 4 == 0:
        return idx
    return QuadricIndex(n, "max-minus" if idx.kind == "max-plus" else "max-plus")

