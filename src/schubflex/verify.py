"""Ground-up verification of the frozen decorations against the live engines.

Every class of the two exceptional posets carries a frozen decoration:
"rigid", "plus" (Bertini-movable), "star" (cone-movable) or "T"
(transform-movable).  :func:`schubflex.certify.certificates` is the one
pipeline that runs every witness engine from scratch on the shared posets,
once per process for each poset and golden directory; verification holds the
decorations it collects to the following rules, and ``classify`` prints the
same row for a single class:

* a rigid class must collect no certificate at all;
* a non-rigid class must collect at least one;
* "plus" needs a Bertini certificate, "star" a Cone certificate, "T" a
  Tits certificate, each possibly among others.

The 56-class run leans on the 27-class decorations twice (the cone gate and
the interval gate), so it verifies those first and reports loudly when they
cannot be trusted.  The transform-table check replays every frozen row
through the live sweep; a row whose token names no unique class is a data
error (GoldenDataError), not the user's usage error.
"""

from __future__ import annotations

from .certify import Certificates, _e7_interval, certificates
from .golden import (
    GoldenDataError,
    TokenError,
    load_golden_poset,
    load_transform_table,
    node_token,
    resolve_token,
)
from .poset import QuotientPoset, SchubertNode, quotient
from .tits import injectivity_check, transform


class VerifyReport:
    __slots__ = ("target", "rows", "problems", "summary")

    def __init__(self, target: str):
        self.target = target
        self.rows: list[dict] = []
        self.problems: list[str] = []
        self.summary: dict = {}

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "summary": self.summary,
            "rows": self.rows,
            "problems": self.problems,
        }

    def to_text(self) -> str:
        lines = [f"verify {self.target}"]
        for row in self.rows:
            if "decoration" in row:
                certs = ",".join(row["certificates"]) or "-"
                lines.append(
                    f"  {row['node']}  {row['token']:>9s}  {row['decoration']:<5s}  "
                    f"certs={certs}"
                )
            else:
                flag = "ok" if row["ok"] else "MISMATCH"
                lines.append(
                    f"  {row['y']:>7s} -> {row['t']:>9s}  "
                    f"stars={'*' if row['y_star'] else '.'}{'*' if row['t_star'] else '.'}  "
                    f"{flag}"
                )
        for key, val in sorted(self.summary.items()):
            lines.append(f"  {key}: {val}")
        for p in self.problems:
            lines.append(f"  VIOLATION: {p}")
        lines.append(f"RESULT {self.target}: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


# The certificate kind that each flexible decoration needs.
_NEEDS = {"plus": "Bertini", "star": "Cone", "T": "Tits"}


def _apply_rules(report: VerifyReport, found: Certificates) -> None:
    report.problems.extend(found.problems)
    counts = {"rigid": 0, "plus": 0, "star": 0, "T": 0}
    for node in found.poset.nodes:
        row = found.row(node)
        report.rows.append(row)
        token, deco, kinds = row["token"], row["decoration"], row["certificates"]
        counts[deco] += 1
        if deco == "rigid":
            if kinds:
                report.problems.append(
                    f"{token} is decorated rigid but holds certificates {kinds}"
                )
        elif not kinds:
            report.problems.append(
                f"{token} is decorated {deco} but no engine certifies it"
            )
        elif _NEEDS[deco] not in kinds:
            report.problems.append(
                f"{token} is decorated {deco} without a {_NEEDS[deco]} certificate"
            )
    report.summary["classes"] = len(found.poset.nodes)
    report.summary.update(counts)


def verify_e6(golden_dir=None) -> VerifyReport:
    """Check the 27-class decorations with every engine run from scratch."""
    report = VerifyReport("e6")
    _apply_rules(report, certificates("e6", golden_dir))
    return report


def verify_e7(golden_dir=None) -> VerifyReport:
    """Check the 56-class decorations; trusts the 27-class report it verifies."""
    report = VerifyReport("e7")
    if not verify_e6(golden_dir).ok:
        report.problems.append(
            "the 27-class decorations failed verification and cannot gate "
            "the cone and interval certificates here"
        )
    _apply_rules(report, certificates("e7", golden_dir))
    return report


def _table_token(poset: QuotientPoset, token: str) -> SchubertNode:
    """The class of a transform-table token; a bad token is a data error, not a usage error."""
    try:
        return resolve_token(poset, token)
    except TokenError as exc:
        raise GoldenDataError(f"table1.tsv: token {token!r}: {exc}") from None


def verify_table1(golden_dir=None) -> VerifyReport:
    """Replay the frozen transform table through the live sweep."""
    report = VerifyReport("table1")
    e6p6, e7p7 = quotient("e6"), quotient("e7")
    golden6 = load_golden_poset("e6", golden_dir)
    golden7 = load_golden_poset("e7", golden_dir)

    ctx71, psi, gap = _e7_interval(e6p6)
    report.problems += gap
    if psi is None:
        return report

    rows = load_transform_table(golden_dir)
    targets = set()
    for r in rows:
        y, t = _table_token(e6p6, r.y_token), _table_token(e7p7, r.t_token)
        src = psi[y.index]
        dst = transform(ctx71, src)
        injective = injectivity_check(ctx71, src)
        y_star_live = golden6.decoration(y.id) == "rigid"
        t_star_live = golden7.decoration(t.id) == "rigid"
        ok = True
        if dst is not t:
            report.problems.append(
                f"row {r.y_token}: live sweep lands on {node_token(e7p7, dst)}, "
                f"table says {r.t_token}"
            )
            ok = False
        if not injective:
            report.problems.append(f"row {r.y_token}: sweep is not dimension-faithful")
            ok = False
        if r.y_star != y_star_live or r.t_star != t_star_live:
            report.problems.append(
                f"row {r.y_token}: star marks {r.y_star}/{r.t_star} disagree with "
                f"decorations {y_star_live}/{t_star_live}"
            )
            ok = False
        targets.add(dst)
        report.rows.append(
            {
                "y": r.y_token,
                "t": r.t_token,
                "y_star": r.y_star,
                "t_star": r.t_star,
                "src": src.id,
                "dst": dst.id,
                "injective": injective,
                "ok": ok,
            }
        )
    if len(targets) != len(rows):
        report.problems.append("the frozen table is not injective on targets")
    report.summary["rows"] = len(rows)
    report.summary["distinct_targets"] = len(targets)
    return report


def verify_all(golden_dir=None) -> list[VerifyReport]:
    return [verify_e6(golden_dir), verify_e7(golden_dir), verify_table1(golden_dir)]
