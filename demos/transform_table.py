"""Build the 27-row transform table live and print it with star marks.

The sweep construction: inside the 33-dimensional quotient E7/P1 there is a
16-dimensional interval below a distinguished apex that is a graded copy of
the 27-class poset.  Sweeping each interval class by incidence fibers lands
in the 56-class poset, ten dimensions up, and every sweep is
dimension-faithful.  Stars mark the multi-rigid classes on each side.

Run with:  python3 demos/transform_table.py
"""

from __future__ import annotations

from schubflex.golden import load_golden_poset, node_token
from schubflex.poset import build_quotient_poset
from schubflex.tits import injectivity_check, make_context, transform
from schubflex.weyl import build_cartan
from schubflex.witnesses import interval_isomorphism


def main():
    e6 = build_cartan("E", 6)
    e7 = build_cartan("E", 7)
    e6p6 = build_quotient_poset(e6, {6})
    e7p7 = build_quotient_poset(e7, {7})
    e7p1 = build_quotient_poset(e7, {1})

    ctx = make_context(e7, {7}, {1})
    reverse = make_context(e7, {1}, {7})
    apex = transform(reverse, e7p7.bottom())
    print(f"apex of the interval: {apex.id}, dimension {apex.dim} in E7/P1")

    psi = interval_isomorphism(e6p6, e7p1, apex)
    assert psi is not None, "the graded copy should always be found"
    print(f"graded copy of the 27-class poset: {len(psi)} classes matched\n")

    golden6 = load_golden_poset("e6")
    golden7 = load_golden_poset("e7")
    print(f"{'class':>8s}    {'sweep':>9s}   faithful")
    for y, src in zip(e6p6.nodes, psi):
        dst = transform(ctx, src)
        y_tok = node_token(e6p6, y) + ("*" if golden6[y.index] == "rigid" else " ")
        t_tok = node_token(e7p7, dst) + ("*" if golden7[dst.index] == "rigid" else " ")
        faithful = "yes" if injectivity_check(ctx, src) else "NO"
        print(f"{y_tok:>9s} -> {t_tok:>10s}   {faithful}")

    print("\nEvery row gains exactly d_tau = 10 dimensions; compare the")
    print("dim:deg labels column by column.")


if __name__ == "__main__":
    main()
