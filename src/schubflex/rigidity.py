"""Multi-rigidity classification of Schubert classes.

A class sigma is *multi-rigid* when every irreducible representative of every
positive multiple m*sigma is a translate of the Schubert variety itself (so
nothing can be deformed, even after scaling the class); otherwise we call it
*flexible* here.  For each classical family the classification is a finite
list of inequalities on the grouped index mu_1^{i_1}...mu_t^{i_t}:

* G(k,n): interior multiplicities i_j >= 2 (1 < j < t), consecutive values
  spread out (mu_{j-1} <= mu_j - 2 for 1 < j <= t), i_1 >= 2 unless mu_1 = 0,
  and i_t >= 2 unless mu_t = n-k.  The point class and the fundamental class
  are multi-rigid outright; for k = 1 they are the *only* multi-rigid classes
  and the block tests above degenerate, so they are special-cased first.
* LG(n,2n): i_j >= 2 and mu_{j-1} <= mu_j - 2 for all 1 < j <= t, i_1 >= 2
  unless mu_1 = 0, and lambda_s <= n-2 whenever lambda_s < n.
* OG(n,2n) (entries up to n-1): same interior/first clauses, with the tail
  condition lambda_s <= n-3 whenever lambda_s < n-1.
* Q^n: the rigid classes are the point, the fundamental class, and (even n)
  the two maximal-linear families; every other class is flexible.

Verdicts carry human-readable reasons naming the failed clauses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .classical import GrIndex, QuadricIndex, grouped
from .diagram import _module
from .frozen import Frozen

if TYPE_CHECKING:  # for annotations only; classify loads it past the gr and quad checks
    from .isotropic import IsotropicIndex

MULTI_RIGID = "MultiRigid"
FLEXIBLE = "Flexible"


class Verdict(Frozen):
    __slots__ = ("status", "reasons")

    @property
    def rigid(self) -> bool:
        return self.status == MULTI_RIGID

    def __str__(self) -> str:
        if self.reasons:
            return f"{self.status} ({'; '.join(self.reasons)})"
        return self.status


def _rigid(*reasons: str) -> Verdict:
    return Verdict(MULTI_RIGID, tuple(reasons))


def _verdict(failures: list[str]) -> Verdict:
    return Verdict(FLEXIBLE, tuple(failures)) if failures else _rigid()


def classify_gr(idx: GrIndex) -> Verdict:
    k, n, lam = idx.k, idx.n, idx.lam
    if lam == tuple(range(1, k + 1)):
        return _rigid("point class")
    if lam == tuple(range(n - k + 1, n + 1)):
        return _rigid("fundamental class")
    groups = grouped(lam)
    t = len(groups)
    failures = []
    for j in range(1, t - 1):  # interior blocks, 0-based positions 1..t-2
        if groups[j][1] < 2:
            failures.append(f"interior block {j + 1} has multiplicity 1")
    for j in range(1, t):
        if groups[j][0] - groups[j - 1][0] < 2:
            failures.append(f"blocks {j}/{j + 1} differ by 1")
    mu1, i1 = groups[0]
    if mu1 > 0 and i1 < 2:
        failures.append("first block has multiplicity 1 with mu_1 > 0")
    mut, it = groups[-1]
    if mut < n - k and it < 2:
        failures.append("last block has multiplicity 1 with mu_t < n-k")
    return _verdict(failures)


def classify_lg(idx: IsotropicIndex) -> Verdict:
    if idx.family != "lg":
        raise ValueError(f"classify_lg needs an lg index, got {idx}")
    return _classify_isotropic(idx, tail_bound=idx.n, tail_margin=2)


def classify_og(idx: IsotropicIndex) -> Verdict:
    if idx.family != "og":
        raise ValueError(f"classify_og needs an og index, got {idx}")
    return _classify_isotropic(idx, tail_bound=idx.n - 1, tail_margin=3)


def _classify_isotropic(idx: IsotropicIndex, tail_bound: int, tail_margin: int) -> Verdict:
    lam = idx.lam
    if not lam:
        return _rigid("fundamental class")
    groups = grouped(lam)
    t = len(groups)
    failures = []
    for j in range(1, t):
        if groups[j][1] < 2:
            failures.append(f"block {j + 1} has multiplicity 1")
        if groups[j][0] - groups[j - 1][0] < 2:
            failures.append(f"blocks {j}/{j + 1} differ by 1")
    mu1, i1 = groups[0]
    if mu1 > 0 and i1 < 2:
        failures.append("first block has multiplicity 1 with mu_1 > 0")
    last = lam[-1]
    if idx.n - tail_margin < last < tail_bound:
        failures.append(f"last entry {last} falls in the forbidden window below {tail_bound}")
    return _verdict(failures)


def classify_quadric(idx: QuadricIndex) -> Verdict:
    if idx.kind in ("max-plus", "max-minus"):
        return _rigid("maximal linear family on an even quadric")
    if idx.kind == "linear" and idx.j == 1:
        return _rigid("point class")
    if idx.kind == "colinear" and idx.j == 0:
        return _rigid("fundamental class")
    return _verdict([f"{idx.kind} class with parameter {idx.j}"])


def classify(idx) -> Verdict:
    """Dispatch on index type (Grassmannian, quadric, isotropic): the verdict ``classify`` prints.

    :mod:`~schubflex.isotropic` loads past the gr and quad checks, through the
    cached :func:`schubflex.diagram._module`, so a gr or quad index never
    compiles it and no call runs an import statement.
    """
    if isinstance(idx, GrIndex):
        return classify_gr(idx)
    if isinstance(idx, QuadricIndex):
        return classify_quadric(idx)
    if isinstance(idx, _module(".isotropic").IsotropicIndex):
        return classify_lg(idx) if idx.family == "lg" else classify_og(idx)
    raise TypeError(f"cannot classify {type(idx).__name__}")
