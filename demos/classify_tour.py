"""Rigidity verdicts across all five families, with the reasons spelled out.

Run with:  python3 demos/classify_tour.py
"""

from __future__ import annotations

from schubflex.classical import GrIndex, QuadricIndex
from schubflex.isotropic import IsotropicIndex
from schubflex.rigidity import classify


def show(idx):
    print(f"  {str(idx):<22s} {classify(idx)}")


def main():
    print("Grassmannian classes, by the block structure of the jump sequence:")
    show(GrIndex(2, 4, (2, 3)))
    show(GrIndex(2, 4, (2, 4)))
    show(GrIndex(2, 5, (1, 3)))
    show(GrIndex(3, 6, (2, 3, 6)))
    show(GrIndex(3, 6, (1, 3, 5)))

    print("\nEvery class on a quadric is settled by a four-entry list:")
    for kind, j in (("linear", 1), ("linear", 2), ("max-plus", None), ("max-minus", None),
                    ("colinear", 1), ("colinear", 0)):
        show(QuadricIndex(4, kind, j))

    print("\nLagrangian classes add a window condition on the last entry:")
    show(IsotropicIndex("lg", 3, ()))
    show(IsotropicIndex("lg", 3, (1,)))
    show(IsotropicIndex("lg", 3, (1, 2)))
    show(IsotropicIndex("lg", 3, (3,)))

    print("\nSpinor classes use the same clauses with a wider window:")
    show(IsotropicIndex("og", 5, (2, 3)))
    show(IsotropicIndex("og", 5, (2,)))
    show(IsotropicIndex("og", 5, (1, 2, 3, 4)))

    print("\nThe Lagrangian and spinor verdicts coincide under n -> n+1:")
    for lam in ((1,), (1, 2), (2, 3), (3,)):
        lg = classify(IsotropicIndex("lg", 3, lam))
        og = classify(IsotropicIndex("og", 4, lam))
        mark = "==" if lg.rigid == og.rigid else "!="
        print(f"  lg:3:{','.join(map(str, lam))}  {lg.status:<10s} {mark} og:4 {og.status}")

    print("\nExceptional classes are classified by the shipped decoration tables;")
    print("run `schubflex classify e6:9:9` or `schubflex verify all` to see them.")


if __name__ == "__main__":
    main()
