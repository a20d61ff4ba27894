"""Closed forms read off a Dynkin diagram: group orders, quotient dimensions, the opposition.

Each takes a :class:`~schubflex.weyl.CartanDatum` and reads only its family,
rank and neighbour lists.  Group orders and dimensions come from one closed
form per irreducible type (:func:`_type_counts`): :func:`weyl_order`,
:func:`levi_order` and :func:`quotient_dimension` all recognise the
components of a subdiagram and read that table, so no package code
enumerates roots.  w_0 is never spelled as a word: it acts on weights as
minus :func:`opposition`.

This module is apart from :mod:`~schubflex.weyl`, which imports the two
orders its diagrams are checked against, so that neither module's compile is
large (see :mod:`~schubflex.cli`).  It imports nothing of the package, so
:class:`InternalError`, which every layer raises when a structural invariant
fails, is defined here.
"""

from __future__ import annotations

import math


class InternalError(RuntimeError):
    """A structural invariant failed: a bug in the package, not bad input."""


def quotient_dimension(datum, marked) -> int:
    """Dimension of G/P for the parabolic whose marked node set is ``marked``.

    The positive roots whose support meets the marked set: N(Phi) - N(Phi_L),
    where N counts positive roots and L is the Levi diagram on the unmarked
    nodes (Humphreys, Reflection Groups and Coxeter Groups, Table 3.1).
    """
    marked = _check_marked(datum, marked)
    levi = [i for i in range(1, datum.rank + 1) if i not in marked]
    return _type_counts(datum.family, datum.rank)[1] - sum(
        _type_counts(*_component_type(datum, comp))[1] for comp in _components(datum, levi)
    )


def _check_marked(datum, marked) -> frozenset[int]:
    marked = frozenset(marked)
    if not marked:
        raise ValueError("marked node set must be nonempty")
    for i in marked:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"marked node {i} out of range for rank {datum.rank}")
    return marked


def _type_counts(family: str, r: int) -> tuple[int, int]:
    """(Weyl group order, positive-root count) of the irreducible type family_r."""
    if family == "A":
        return math.factorial(r + 1), r * (r + 1) // 2
    if family in ("B", "C"):
        return (2**r) * math.factorial(r), r * r
    if family == "D":
        return (2 ** (r - 1)) * math.factorial(r), r * (r - 1)
    return {6: (51840, 36), 7: (2903040, 63)}[r]


def opposition(datum) -> tuple[int, ...]:
    """The opposition involution iota as 0-based node images: w_0(omega_i) = -omega_iota(i).

    One closed form per type (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
    Plates I-IX): reversal on A_r, the swap of nodes r-1 and r on D_r for odd
    r, 1<->6 and 3<->5 on E6, the identity on B_r, C_r, even D_r and E7.
    """
    r = datum.rank
    if datum.family == "A":
        return tuple(range(r - 1, -1, -1))
    if datum.family == "D" and r % 2:
        return (*range(r - 2), r - 1, r - 2)
    if datum.family == "E" and r == 6:
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(r))


def weyl_order(datum) -> int:
    """Order of the full Weyl group, by the classical closed forms."""
    return _type_counts(datum.family, datum.rank)[0]


def levi_order(datum, generators) -> int:
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
        order *= _type_counts(*_component_type(datum, comp))[0]
    return order


def _components(datum, gens: list[int]) -> list[list[int]]:
    """The connected components of the subdiagram on the sorted nodes ``gens``."""
    remaining, comps = set(gens), []
    for seed in gens:
        if seed in remaining:
            remaining.discard(seed)
            comp, stack = [seed], [seed]
            while stack:
                for j, _ in datum.bonds[stack.pop() - 1]:
                    if j + 1 in remaining:
                        remaining.discard(j + 1)
                        comp.append(j + 1)
                        stack.append(j + 1)
            comps.append(sorted(comp))
    return comps


def _component_type(datum, comp: list[int]) -> tuple[str, int]:
    """The (family, rank) of a connected subdiagram, recognised from its shape."""
    r, members = len(comp), set(comp)
    links = {i: [(j + 1, c) for j, c in datum.bonds[i - 1] if j + 1 in members] for i in comp}
    if any(c == -2 for bonds in links.values() for _, c in bonds):
        return datum.family, r  # only B and C data carry a doubled edge
    branch = [i for i in comp if len(links[i]) >= 3]
    if not branch:
        return "A", r  # simply-laced path
    if len(branch) > 1 or len(links[branch[0]]) > 3:
        raise InternalError(f"unsupported diagram shape on nodes {comp}")
    arms = sorted(_arm_lengths(links, branch[0]))
    if arms[0] == 1 and arms[1] == 1:
        return "D", r
    if arms in ([1, 2, 2], [1, 2, 3]):
        return "E", r
    raise InternalError(f"unsupported diagram shape on nodes {comp}")


def _arm_lengths(links: dict[int, list[tuple[int, int]]], branch: int) -> list[int]:
    lengths = []
    for start, _ in links[branch]:
        count, prev, cur = 1, branch, start
        while nxt := [j for j, _ in links[cur] if j != prev]:
            count += 1
            prev, cur = cur, nxt[0]
        lengths.append(count)
    return lengths
