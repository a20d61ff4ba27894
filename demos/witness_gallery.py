"""One worked example of every flexibility-certificate kind.

A certificate names a construction moving a positive multiple of a Schubert
class into an irreducible representative.  The five kinds:

  Linear    a degree-one class inside a bigger linear space
  Bertini   a sweep of hypersurface sections inside the cover class
  Divisor   a pencil argument for codimension-one classes
  Moduli    deforming the defining flag of the representative
  Cone      a cone over a movable class of a smaller variety
  Tits      a sweep of incidence fibers over a movable source class

Run with:  python3 demos/witness_gallery.py
"""

from __future__ import annotations

from schubflex.classical import GrIndex, QuadricIndex
from schubflex.isotropic import IsotropicIndex
from schubflex.moduli import moduli_witness_gr, moduli_witness_isotropic, quadric_witness
from schubflex.verify import verify_e6


def show(title, witness):
    print(f"\n{title}")
    if witness is None:
        print("  multi rigid, no certificate")
        return
    print(f"  kind: {witness.kind}")
    for key in sorted(witness.payload):
        print(f"  {key}: {witness.payload[key]}")


def main():
    print("Classical families (certificates straight from the index):")
    show("G(2,5), jumps (1,3):", moduli_witness_gr(GrIndex(2, 5, (1, 3))))
    show("G(4,6), jumps (1,2,4,5):", moduli_witness_gr(GrIndex(4, 6, (1, 2, 4, 5))))
    show("OG(5,10), lam=(2,3):", moduli_witness_isotropic(IsotropicIndex("og", 5, (2, 3))))
    show("LG(4,8), lam=(2,):", moduli_witness_isotropic(IsotropicIndex("lg", 4, (2,))))
    show("Q^7, a line:", quadric_witness(QuadricIndex(7, "linear", 2)))
    show("Q^6, a maximal plane:", quadric_witness(QuadricIndex(6, "max-plus")))

    print("\n\nExceptional classes (certificates collected by the verifier):")
    report = verify_e6()
    wanted = {"1:1", "5:2", "6:3", "9:9", "15:78", "8:5"}
    for row in report.rows:
        if row["token"] not in wanted:
            continue
        print(f"\n{row['token']} (decorated {row['decoration']}):")
        if not row["details"]:
            print("  multi rigid, no certificate")
        for detail in row["details"]:
            print(f"  [{detail['kind']}]")
            for key in sorted(detail):
                if key != "kind":
                    print(f"    {key}: {detail[key]}")


if __name__ == "__main__":
    main()
