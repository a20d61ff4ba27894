"""Regenerate the golden TSV files under src/schubflex/data/golden/.

The poset skeletons (node ids, dimensions, degrees) are recomputed from the
library; the decorations and the transform table are the hand-checked
reference classification embedded below, keyed by class token.  Output is
byte-deterministic, so rerunning this script on an unchanged library is a
no-op, and any skeleton drift shows up as a git diff.  tests/test_golden.py
runs it into a temporary directory and compares the bytes, so drift also
fails the test suite.
"""

from __future__ import annotations

from pathlib import Path

from schubflex.golden import node_token
from schubflex.poset import build_quotient_poset
from schubflex.weyl import build_cartan

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "schubflex" / "data" / "golden"

# token -> (decoration, comment)
E6_DECORATIONS = {
    "0:1": ("rigid", "point class"),
    "1:1": ("plus", ""),
    "2:1": ("plus", ""),
    "3:1": ("plus", ""),
    "4:1a": ("rigid", "maximal linear space; its only cover has degree 2"),
    "4:1b": ("plus", "non-maximal linear space, sits under the P5 class"),
    "5:1": ("rigid", "maximal linear space (P5)"),
    "5:2": ("plus", ""),
    "6:2": ("plus", ""),
    "6:3": ("star", "cone image of a flexible spinor-variety class"),
    "7:2": ("plus", ""),
    "7:5": ("plus", ""),
    "8:2": ("rigid", "smooth quadric section Q8"),
    "8:5": ("rigid", ""),
    "8:7": ("star", "cone image of a flexible spinor-variety class"),
    "9:9": ("T", "transform of a line in the companion quotient"),
    "9:12": ("plus", ""),
    "10:12": ("plus", ""),
    "10:21": ("T", "transform of a plane in the companion quotient"),
    "11:12": ("rigid", "cone apex over the 10-dim spinor variety"),
    "11:33": ("plus", ""),
    "12:33": ("rigid", ""),
    "12:45": ("T", "needs the composed transform through the 216-class quotient"),
    "13:78": ("plus", ""),
    "14:78": ("plus", ""),
    "15:78": ("plus", ""),
    "16:78": ("rigid", "fundamental class"),
}

E7_DECORATIONS = {
    "0:1": ("rigid", "point class"),
    "1:1": ("plus", ""),
    "2:1": ("plus", ""),
    "3:1": ("plus", ""),
    "4:1": ("plus", ""),
    "5:1a": ("rigid", "maximal linear space; its only cover has degree 2"),
    "5:1b": ("plus", "non-maximal linear space, sits under the P6 class"),
    "6:1": ("rigid", "maximal linear space (P6)"),
    "6:2": ("plus", ""),
    "7:2": ("plus", ""),
    "7:3": ("star", "cone image of a flexible 27-class-poset class"),
    "8:2": ("plus", ""),
    "8:5": ("plus", ""),
    "9:2": ("plus", ""),
    "9:5": ("rigid", ""),
    "9:7": ("star", "cone image of a flexible 27-class-poset class"),
    "10:2": ("rigid", "smooth quadric section Q10"),
    "10:9": ("star", "cone image of a flexible 27-class-poset class"),
    "10:12": ("plus", ""),
    "11:11": ("T", "transform of a line in the adjoint quotient"),
    "11:12": ("plus", ""),
    "11:21": ("star", "cone image of a flexible 27-class-poset class"),
    "12:12": ("rigid", ""),
    "12:32": ("T", ""),
    "12:33": ("plus", ""),
    "13:33": ("rigid", "pinned by the transform table: not the dim-13 star class"),
    "13:45": ("star", "pinned by the transform table: image of the composed-transform class"),
    "13:65": ("T", ""),
    "14:78": ("plus", ""),
    "14:98": ("plus", "pinned by the transform table: image of a non-maximal linear space"),
    "14:110": ("rigid", "pinned by the transform table: image of the maximal linear space"),
    "15:78": ("plus", ""),
    "15:98": ("rigid", "image of the maximal P5 class"),
    "15:286": ("T", ""),
    "16:78": ("plus", ""),
    "16:364": ("T", ""),
    "16:384": ("T", ""),
    "17:78": ("rigid", "cone apex over the 16-dim 27-class poset"),
    "17:442": ("T", ""),
    "17:748": ("plus", ""),
    "18:520": ("T", "needs the composed transform through the 756-class quotient"),
    "18:748": ("rigid", ""),
    "18:1190": ("T", ""),
    "19:1710": ("T", ""),
    "19:1938": ("plus", ""),
    "20:1938": ("plus", ""),
    "20:3648": ("T", ""),
    "21:1938": ("rigid", ""),
    "21:5586": ("plus", ""),
    "22:5586": ("rigid", ""),
    "22:7524": ("T", ""),
    "23:13110": ("plus", ""),
    "24:13110": ("plus", ""),
    "25:13110": ("plus", ""),
    "26:13110": ("plus", ""),
    "27:13110": ("rigid", "fundamental class"),
}

# (y_token, y_star, t_token, t_star) in presentation order
TRANSFORM_TABLE = [
    ("0:1", True, "10:2", True),
    ("1:1", False, "11:11", False),
    ("2:1", False, "12:32", False),
    ("3:1", False, "13:65", False),
    ("4:1a", True, "14:110", True),
    ("4:1b", False, "14:98", False),
    ("5:2", False, "15:286", False),
    ("5:1", True, "15:98", True),
    ("6:2", False, "16:364", False),
    ("6:3", False, "16:384", False),
    ("7:2", False, "17:442", False),
    ("7:5", False, "17:748", False),
    ("8:2", True, "18:520", False),
    ("8:7", False, "18:1190", False),
    ("8:5", True, "18:748", True),
    ("9:9", False, "19:1710", False),
    ("9:12", False, "19:1938", False),
    ("10:21", False, "20:3648", False),
    ("10:12", False, "20:1938", False),
    ("11:33", False, "21:5586", False),
    ("11:12", True, "21:1938", True),
    ("12:45", False, "22:7524", False),
    ("12:33", True, "22:5586", True),
    ("13:78", False, "23:13110", False),
    ("14:78", False, "24:13110", False),
    ("15:78", False, "25:13110", False),
    ("16:78", True, "26:13110", False),
]


def write_poset_tsv(rank: int, marked: int, decorations: dict, out_name: str) -> None:
    poset = build_quotient_poset(build_cartan("E", rank), {marked})
    lines = [
        f"# decorations for the {len(poset.nodes)}-class poset E{rank}/P{marked}",
        "# node_id\tdim\tdegree\tdecoration\tcomment",
    ]
    seen = set()
    for node in poset.nodes:
        tok = node_token(poset, node)
        deco, comment = decorations[tok]
        seen.add(tok)
        lines.append(f"{node.id}\t{node.dim}\t{node.degree}\t{deco}\t{comment}")
    extra = sorted(set(decorations) - seen)
    if extra:
        raise ValueError(f"decorations name no class of E{rank}/P{marked}: {extra}")
    path = OUT_DIR / out_name
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(poset.nodes)} rows)")


def write_transform_tsv() -> None:
    lines = [
        "# transform table: the 27 classes of the 27-class poset and their images",
        "# in the 56-class poset; '*' marks a multi-rigid class on either side",
        "# y_token\ty_star\tt_token\tt_star",
    ]
    for y_tok, y_star, t_tok, t_star in TRANSFORM_TABLE:
        lines.append(
            f"{y_tok}\t{'*' if y_star else '-'}\t{t_tok}\t{'*' if t_star else '-'}"
        )
    path = OUT_DIR / "table1.tsv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(TRANSFORM_TABLE)} rows)")


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    write_poset_tsv(6, 6, E6_DECORATIONS, "e6_p6.tsv")
    write_poset_tsv(7, 7, E7_DECORATIONS, "e7_p7.tsv")
    write_transform_tsv()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
