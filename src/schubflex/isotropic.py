"""Index arithmetic for Schubert classes on the Lagrangian and orthogonal Grassmannians.

Index conventions (1-based, strictly increasing):

* ``LG(n,2n)``: subsequences lambda of {1..n} (s = len(lambda) conditions on a
  Lagrangian subspace); dim sigma_lambda = n(n+1)/2 - sum(n+1-lambda_i).
* ``OG(n,2n)``: one spinor component of the orthogonal Grassmannian;
  subsequences lambda of {1..n-1}; dim sigma_lambda = n(n-1)/2 - sum(n-lambda_i),
  and its degree counts the shifted tableaux of the n-j for j in 1..n-1 not in lambda.

This module is apart from :mod:`~schubflex.classical`, which holds the
Grassmannian and quadric indices, so that neither module's compile is large
(see :mod:`~schubflex.cli`).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod

from .closed_forms import InternalError
from .frozen import Frozen


class IsotropicIndex(Frozen):
    """A Schubert index on LG(n,2n) (family "lg") or OG(n,2n) (family "og")."""

    __slots__ = ("family", "n", "lam")

    def __init__(self, family: str, n: int, lam):
        if family not in ("lg", "og"):
            raise ValueError(f"family must be 'lg' or 'og', got {family!r}")
        bound = n if family == "lg" else n - 1
        min_n = 1 if family == "lg" else 2
        if n < min_n:
            raise ValueError(f"need n >= {min_n} for {family}")
        lam = tuple(lam)
        if len(lam) > bound:
            raise ValueError(f"at most {bound} parts allowed: {lam}")
        if any(not 1 <= x <= bound for x in lam):
            raise ValueError(f"entries must lie in 1..{bound}: {lam}")
        if any(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError(f"entries must strictly increase: {lam}")
        super().__init__(family, n, lam)

    def __str__(self) -> str:
        return f"{self.family}:{self.n}:{','.join(map(str, self.lam))}"


def isotropic_dimension(idx: IsotropicIndex) -> int:
    if idx.family == "lg":
        return idx.n * (idx.n + 1) // 2 - sum(idx.n + 1 - x for x in idx.lam)
    return idx.n * (idx.n - 1) // 2 - sum(idx.n - x for x in idx.lam)


def og_degree(idx: IsotropicIndex) -> int:
    """Projective degree of an og class in the spinor embedding, exact in integers.

    It counts the standard shifted tableaux of the strict partition mu of the
    n - j for j in 1..n-1 not in lambda, of size isotropic_dimension(idx):
    |mu|! prod_{i<j} (mu_i - mu_j) / (prod_i mu_i! prod_{i<j} (mu_i + mu_j))
    (Schur 1911; Thrall 1952).
    """
    if idx.family != "og":
        raise ValueError("og_degree needs an og class")
    mu = [idx.n - j for j in range(1, idx.n) if j not in idx.lam]
    top, bottom = factorial(sum(mu)), prod(map(factorial, mu))
    for a, b in combinations(mu, 2):
        top, bottom = top * (a - b), bottom * (a + b)
    degree, rest = divmod(top, bottom)
    if rest:
        raise InternalError(f"the shifted hook formula leaves a remainder for {idx}")
    return degree


def fingerprint_to_og(n: int, fingerprint) -> IsotropicIndex:
    """The og class of the coset with this fingerprint in the D_n quotient marked {n}."""
    fp = tuple(fingerprint)
    if len(fp) != n:
        raise ValueError(f"fingerprint must have length {n}")
    for first in (1, -1):
        e = [first]
        for j in range(n - 1):
            e.append(e[-1] - 2 * fp[j])
        if any(x not in (-1, 1) for x in e):
            continue
        if e[n - 2] + e[n - 1] != 2 * fp[n - 1]:
            continue
        minus = {i + 1 for i, x in enumerate(e) if x == -1}
        if len(minus) % 2:
            continue
        lam = tuple(x for x in range(1, n) if x not in minus)
        return IsotropicIndex("og", n, lam)
    raise ValueError(f"fingerprint {fp} does not encode a spinor-orbit weight")


def isotropic_dual(idx: IsotropicIndex) -> IsotropicIndex:
    """Poincare dual: the complement of lambda in the allowed entry range."""
    bound = idx.n if idx.family == "lg" else idx.n - 1
    inside = set(idx.lam)
    return IsotropicIndex(
        idx.family, idx.n, tuple(x for x in range(1, bound + 1) if x not in inside)
    )
