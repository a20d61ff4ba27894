"""Ground-up verification of the frozen decorations against the live engines.

Every class of the two exceptional posets carries a frozen decoration:
"rigid", "plus" (Bertini-movable), "star" (cone-movable) or "T"
(transform-movable).  :func:`certificates` is the one pipeline that runs
every witness engine from scratch on the shared posets, once per process for
each poset and golden directory; verification holds the decorations it
collects to the following rules, and ``classify`` prints the same row for a
single class:

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

from functools import lru_cache

from .frozen import Frozen
from .golden import (
    GoldenDataError,
    TokenError,
    golden_dir as resolve_golden_dir,
    load_golden_poset,
    load_transform_table,
    node_token,
    resolve_token,
)
from .poset import QuotientPoset, SchubertNode, quotient
from .tits import (
    TitsContext,
    injectivity_check,
    make_context,
    tits_flexibility_witness,
    transform,
)
from .witnesses import (
    Witness,
    basic_witness_homes,
    bertini_witness,
    cone_embedding,
    divisor_witness,
    interval_isomorphism,
    linear_space_witness,
    moduli_witness_isotropic,
)


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


def _basic_certificates(poset: QuotientPoset) -> list[list[Witness]]:
    certs: list[list[Witness]] = [[] for _ in poset.nodes]
    for node, found in zip(poset.nodes, certs):
        for engine in (linear_space_witness, bertini_witness, divisor_witness):
            w = engine(poset, node)
            if w is not None:
                found.append(w)
    return certs


def _cone_certificates(
    certs: list[list[Witness]],
    problems: list[str],
    ambient: QuotientPoset,
    sub: QuotientPoset,
    apex: SchubertNode,
    base_is_flexible,
    base_name: str,
) -> None:
    phi = cone_embedding(sub, ambient, apex)
    if phi is None:
        problems.append(f"no cone embedding of {base_name} under the apex {apex.id}")
        return
    for s, image in zip(sub.nodes, phi):
        if not base_is_flexible(s):
            continue
        certs[image.index].append(
            Witness(
                "Cone",
                {
                    "node": image.id,
                    "apex": apex.id,
                    "base": s.id,
                    "base_poset": base_name,
                    "representative": (
                        "cone, with the apex vertex, over an irreducible "
                        "representative of the base class"
                    ),
                },
            )
        )


def _tits_certificates(certs: list[list[Witness]], ctx: TitsContext, oracle) -> None:
    for node, found in zip(ctx.p_poset.nodes, certs):
        w = tits_flexibility_witness(ctx, node, oracle)
        if w is not None:
            found.append(w)


def depth2_oracle(rev: TitsContext):
    """Vouch covers transported from a cominuscule quotient one step away.

    For a source class S of the middle quotient, find the cominuscule classes
    x sweeping onto S; each hypersurface-style home x' of x whose own sweep
    is dimension-faithful transports the moved representative into the sweep
    of x', which the top-level engine then requires to be a cover of S with a
    dimension-faithful transform of its own.
    """
    base = rev.q_poset

    def oracle(src):
        homes = []
        for x in rev.sources[src.index]:
            for xp in basic_witness_homes(base, x):
                if injectivity_check(rev, xp):
                    homes.append(transform(rev, xp))
        return homes

    return oracle


def interval_oracle(ctx: TitsContext, psi: tuple, flexible_sub):
    """Vouch interval covers for sources whose counterpart class is movable.

    ``psi[k]`` is the class of the interval inside ctx.q_poset that the
    sub-poset class of index k maps onto; a source in the image is vouched
    when its counterpart is in ``flexible_sub``, and its homes are its covers
    inside the interval (the moved representative lives in the interval
    subvariety, so only those covers contain it).
    """
    interval = set(psi)
    vouched = {psi[s.index] for s in flexible_sub}

    def oracle(src):
        if src not in vouched:
            return []
        return [c for c in ctx.q_poset.upper_covers(src) if c in interval]

    return oracle


class Certificates(Frozen):
    """Every engine's witnesses on one decorated poset; built by certificates().

    ``golden`` is the poset's :class:`GoldenPoset`, ``witnesses[k]`` is the
    tuple of the witnesses of the class of index k, and ``problems`` is a
    tuple of what went wrong: every caller in the process shares the record.
    """

    __slots__ = ("poset", "golden", "witnesses", "problems")

    def row(self, node: SchubertNode) -> dict:
        """The verify row of one class: its decoration and what certifies it."""
        witnesses = self.witnesses[node.index]
        return {
            "node": node.id,
            "token": node_token(self.poset, node),
            "dim": node.dim,
            "degree": node.degree,
            "decoration": self.golden.decoration(node.id),
            "certificates": sorted({w.kind for w in witnesses}),
            "details": [dict(kind=w.kind, **w.payload) for w in witnesses],
        }


@lru_cache(maxsize=None)
def _e7_interval(e6p6: QuotientPoset):
    """The sweep E7/P1 -> E7/P7, the 27-class copy psi inside E7/P1, and its problems.

    psi maps the 27-class poset, by index, onto the interval below the sweep
    of the E7/P7 bottom class into E7/P1; it is None, with one problem,
    when the interval carries no graded copy.  Both the e7 certificates and
    the transform table read it, so the search runs once per 27-class poset.
    """
    datum = quotient("e7").datum
    ctx71 = make_context(datum, {7}, {1})
    ctx17 = make_context(datum, {1}, {7})
    apex = transform(ctx17, ctx17.q_poset.bottom())
    psi = interval_isomorphism(e6p6, ctx71.q_poset, apex)
    gap = f"no graded copy of the 27-class poset under the interval apex {apex.id}"
    return ctx71, psi, (gap,) if psi is None else ()


def certificates(target: str, golden_dir=None) -> Certificates:
    """Every witness engine's certificates on the e6 or e7 poset, run once per process.

    The golden directory is resolved as :func:`schubflex.golden.golden_dir`
    does, and the record is kept per shared poset and resolved directory, so
    a rebuilt poset or another directory gets a run of its own.
    """
    return _certificates(target, quotient(target), resolve_golden_dir(golden_dir))


@lru_cache(maxsize=None)
def _certificates(target: str, poset: QuotientPoset, directory) -> Certificates:
    # Both targets load the 27-class table: e7's cone and interval gates read it.
    problems: list[str] = []
    e6p6 = quotient("e6")
    golden6 = load_golden_poset("e6", directory)
    golden = golden6 if target == "e6" else load_golden_poset("e7", directory)
    certs = _basic_certificates(poset)
    if target == "e6":
        from .classical import fingerprint_to_og  # e7 and table1 run no classical code

        og5 = quotient("og", 5)
        _cone_certificates(
            certs,
            problems,
            poset,
            og5,
            resolve_token(poset, "11:12"),
            lambda s: moduli_witness_isotropic(fingerprint_to_og(5, og5.fingerprint(s))) is not None,
            "the 10-dimensional spinor quotient",
        )
        ctx61 = make_context(poset.datum, {6}, {1})
        _tits_certificates(certs, ctx61, lambda src: basic_witness_homes(ctx61.q_poset, src))
        ctx65 = make_context(poset.datum, {6}, {5})
        _tits_certificates(certs, ctx65, depth2_oracle(make_context(poset.datum, {5}, {6})))
    else:
        flexible6 = {n for n in e6p6.nodes if golden6.decoration(n.id) != "rigid"}
        _cone_certificates(
            certs,
            problems,
            poset,
            e6p6,
            resolve_token(poset, "17:78"),
            lambda s: s in flexible6,
            "the 16-dimensional 27-class quotient",
        )
        ctx71, psi, gap = _e7_interval(e6p6)
        problems += gap
        if psi is not None:
            _tits_certificates(certs, ctx71, interval_oracle(ctx71, psi, flexible6))
        ctx76 = make_context(poset.datum, {7}, {6})
        _tits_certificates(certs, ctx76, depth2_oracle(make_context(poset.datum, {6}, {7})))
    return Certificates(poset, golden, tuple(map(tuple, certs)), tuple(problems))


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
