"""Independent reference implementations that only the tests use.

Each helper recomputes something the package computes another way (or checks
an invariant the package relies on without recomputing it), so the tests can
compare the two.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import fsum, lgamma, log

from schubflex.classical import GrIndex, dual_index, gr_dimension, shifted
from schubflex.isotropic import IsotropicIndex
from schubflex.poset import quotient
from schubflex.tits import make_context
from schubflex.weyl import CartanDatum, act, build_cartan, reflect
from schubflex.witness import Witness
from schubflex.witnesses import basic_witness_homes

# Number of positive roots per family and rank (Humphreys, Reflection Groups
# and Coxeter Groups, 3.18): the check that an enumeration of the roots read
# the whole Cartan matrix right.
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63}[n],
}


def rho(datum: CartanDatum) -> tuple[int, ...]:
    """Sum of the fundamental weights: the all-ones vector."""
    return (1,) * datum.rank


def dense_reflect(datum: CartanDatum, i: int, v) -> tuple[int, ...]:
    """s_i(v) = v - v[i] * (row i of the dense Cartan matrix), every coordinate rebuilt."""
    row = datum.cartan[i - 1]
    c = v[i - 1]
    return tuple(v[j] - c * row[j] for j in range(datum.rank))


def length(datum: CartanDatum, word) -> int:
    """Coxeter length of the element spelled by ``word`` (which may be unreduced).

    Works by peeling descents off d = w^{-1}(rho) until it returns to rho;
    each peel shortens the element by exactly one.
    """
    r = rho(datum)
    d = act(datum, tuple(reversed(tuple(word))), r)
    steps = 0
    while d != r:
        i = next(k for k in range(datum.rank) if d[k] < 0)
        d = reflect(datum, i + 1, d)
        steps += 1
    return steps


def is_reduced(datum: CartanDatum, word) -> bool:
    word = tuple(word)
    return length(datum, word) == len(word)


def longest_element(datum: CartanDatum, generators) -> tuple[int, ...]:
    """Reduced word for the longest element of the parabolic subgroup <s_i : i in generators>.

    Greedy ascent: starting from the identity, repeatedly multiply on the right
    by the smallest available generator that increases length.  Any maximal
    chain in weak order ends at the longest element, so the greedy choice is
    only a determinism device.
    """
    gens = sorted(set(generators))
    for i in gens:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"generator {i} out of range for rank {datum.rank}")
    d = rho(datum)
    word = []
    while True:
        i = next((g for g in gens if d[g - 1] > 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        d = reflect(datum, i, d)


@lru_cache(maxsize=None)
def _w0_word(datum: CartanDatum) -> tuple[int, ...]:
    return longest_element(datum, range(1, datum.rank + 1))


def min_word(poset, node) -> tuple[int, ...]:
    """The minimal word of ``node``, read off by walking its BFS parents to the bottom."""
    letters = []
    while node.parent is not None:
        letters.append(node.letter)
        node = poset.nodes[node.parent]
    return tuple(reversed(letters))


@lru_cache(maxsize=None)
def _rho_image(poset, node) -> tuple[int, ...]:
    """w^{-1}(rho) for the class's minimal representative w, applied from its minimal word."""
    return act(poset.datum, tuple(reversed(min_word(poset, node))), rho(poset.datum))


def bruhat_leq(poset, a, b) -> bool:
    """Bruhat comparison of two classes by the lifting property, without the covers.

    Quotient Bruhat order is the restriction of Bruhat order to minimal
    representatives.  While b is not the identity it has a left descent s
    (a negative coordinate of b^{-1}(rho)); then a <= b exactly when a' <= sb,
    where a' is sa if s is a descent of a too and a otherwise (Bjorner-Brenti,
    Prop. 2.2.7).  a <= b when a reaches the identity as b does.
    """
    datum, r = poset.datum, rho(poset.datum)
    va, vb = _rho_image(poset, a), _rho_image(poset, b)
    while vb != r:
        i = next(k for k in range(datum.rank) if vb[k] < 0) + 1
        if va[i - 1] < 0:
            va = reflect(datum, i, va)
        vb = reflect(datum, i, vb)
    return va == r


@lru_cache(maxsize=None)
def _by_id(poset) -> dict:
    return {n.id: n for n in poset.nodes}


def node_by_id(poset, node_id: str):
    """The class of ``poset`` whose id is ``node_id``; KeyError if there is none."""
    return _by_id(poset)[node_id]


def node_by_fingerprint(poset, fp):
    """The class of ``poset`` whose fingerprint is ``fp``; KeyError(tuple(fp)) if there is none.

    It reads the lookup that the poset builds on first use for its duals.
    """
    return poset._by_fp[tuple(fp)]


def scan_tokens(poset) -> dict:
    """The class token of every class of ``poset`` (None where none), by a scan of all the nodes.

    The rule of :func:`schubflex.golden.layer_tokens`, worked out for each
    class from every class and every cover of the poset: ``dim:degree`` when
    no other class has its dimension and degree; of exactly two degree-1
    classes of one dimension with exactly one maximal linear space (a
    degree-1 class that no degree-1 class covers), ``dim:1a`` for that one
    and ``dim:1b`` for the other; None for any other class.
    """
    covered = {lo for lo, hi in poset.covers if lo.degree == 1 and hi.degree == 1}
    tokens = {}
    for n in poset.nodes:
        peers = [m for m in poset.nodes if m.dim == n.dim and m.degree == n.degree]
        maximal = [m for m in peers if m.degree == 1 and m not in covered]
        if len(peers) == 1:
            tokens[n] = f"{n.dim}:{n.degree}"
        elif len(peers) == 2 and len(maximal) == 1:
            tokens[n] = f"{n.dim}:{n.degree}{'a' if n in maximal else 'b'}"
        else:
            tokens[n] = None
    return tokens


def fingerprint(poset, node) -> tuple[int, ...]:
    """u^{-1}(lambda_P) of ``node``'s minimal representative u, applied from its minimal word."""
    lam = tuple(1 if i + 1 in poset.marked else 0 for i in range(poset.datum.rank))
    return act(poset.datum, tuple(reversed(min_word(poset, node))), lam)


def word_bfs(datum: CartanDatum, marked) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Fingerprint -> minimal word of every coset of W_P \\ W, by a BFS that carries each word.

    Classes are expanded in the order they are found, each by the letters
    1..rank that go up, and a class keeps the word it was first found with, as
    the package's BFS does; only here each class holds its whole word.
    """
    lam = tuple(1 if (i + 1) in marked else 0 for i in range(datum.rank))
    words = {lam: ()}
    queue = [lam]
    for fp in queue:
        for i in range(1, datum.rank + 1):
            if fp[i - 1] > 0:
                child = dense_reflect(datum, i, fp)
                if child not in words:
                    words[child] = words[fp] + (i,)
                    queue.append(child)
    return words


def word_dual(poset, node):
    """Poincare dual of ``node``: its fingerprint moved by w_0, spelled as a word and applied."""
    fp = act(poset.datum, _w0_word(poset.datum), fingerprint(poset, node))
    return node_by_fingerprint(poset, fp)


def heap_quotient(datum: CartanDatum, marked):
    """W_P \\ W of a cominuscule head, rebuilt as the order ideals of a heap.

    The top class is u = w0_P w0.  Its reduced word comes from the greedy words
    of w0 and of the Levi's w0_P: u^{-1}(rho) = w0 w0_P (rho), and peeling right
    descents off that vector spells u.  u is fully commutative, and for a
    cominuscule head the classes are the prefixes of its reduced words (Proctor,
    1984; Stembridge, 1996), i.e. the order ideals of its heap: the letters of
    the word, where a letter lies below a later one equal or joined to it in
    the Dynkin diagram, closed transitively.  A class's dimension is the size
    of its ideal, a cover adds one element, and the number of linear
    extensions of the ideal is the number of saturated chains below the class.
    Fingerprints apply the ideal's letters to lambda by :func:`dense_reflect`.

    Returns ``classes``, fingerprint -> (dimension, linear extensions), and
    ``covers``, the set of (lower fingerprint, upper fingerprint) pairs.
    """
    n, cartan, r = datum.rank, datum.cartan, rho(datum)
    levi = [i for i in range(1, n + 1) if i not in marked]
    d = act(datum, longest_element(datum, range(1, n + 1)) + longest_element(datum, levi), r)
    peeled = []
    while d != r:
        peeled.append(next(k for k in range(n) if d[k] < 0) + 1)
        d = dense_reflect(datum, peeled[-1], d)
    word = peeled[::-1]
    below = [
        sum(1 << p for p in range(q) if cartan[word[p] - 1][word[q] - 1])
        for q in range(len(word))
    ]  # cartan[i][i] == 2, so equal letters count as joined
    lam = tuple(1 if i + 1 in marked else 0 for i in range(n))
    fps, extensions, covers = {0: lam}, {0: 1}, set()
    frontier = [0]
    while frontier:
        nxt = []
        for ideal in frontier:
            for q, letter in enumerate(word):
                if ideal >> q & 1 or below[q] & ~ideal:
                    continue
                up = ideal | 1 << q
                if up not in fps:
                    fps[up] = dense_reflect(datum, letter, fps[ideal])
                    extensions[up] = 0
                    nxt.append(up)
                extensions[up] += extensions[ideal]
                covers.add((fps[ideal], fps[up]))
        frontier = nxt
    classes = {fp: (bin(ideal).count("1"), extensions[ideal]) for ideal, fp in fps.items()}
    if len(classes) != len(fps):
        raise ValueError("two ideals share a fingerprint")
    return classes, covers


def levi_orbit_order(datum: CartanDatum, generators) -> int:
    """Order of a parabolic subgroup, counted as a weight orbit.

    Independent of :func:`schubflex.closed_forms.levi_order`: the orbit of the
    strictly dominant weight sum(omega_i for i in generators) under the
    subgroup is free, so its size equals the group order.  Exponential in the
    component sizes; meant as a cross-check on small generator sets.
    """
    gens = sorted(set(generators))
    start = tuple(1 if (i + 1) in gens else 0 for i in range(datum.rank))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                w = reflect(datum, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def w0q_word(ctx) -> tuple[int, ...]:
    """Reduced word for w0_Q, the longest element of the subgroup on the nodes outside Q."""
    marked = ctx.q_poset.marked
    return longest_element(ctx.datum, [i for i in range(1, ctx.datum.rank + 1) if i not in marked])


def max_rep_word(ctx, node) -> tuple[int, ...]:
    """Reduced word for the maximal representative w0_Q * u of a G/Q coset."""
    word = w0q_word(ctx) + min_word(ctx.q_poset, node)
    assert is_reduced(ctx.datum, word), f"lengths must add for w0_Q * u at {node.id}"
    return word


def sweep_targets(ctx) -> dict[str, str]:
    """G/Q id -> G/P id of its sweep, each class swept on its own.

    The coset W_Q u goes to the W_P-coset of w0_Q * u, whose fingerprint is
    (w0_Q u)^{-1}(lambda_P); it is computed here from each class's own
    maximal-representative word, without the context's map.
    """
    lam_p = tuple(1 if (i + 1) in ctx.p_poset.marked else 0 for i in range(ctx.datum.rank))
    w0q = w0q_word(ctx)
    return {
        node.id: node_by_fingerprint(
            ctx.p_poset, act(ctx.datum, tuple(reversed(w0q + min_word(ctx.q_poset, node))), lam_p)
        ).id
        for node in ctx.q_poset.nodes
    }


def _faithful(ctx, targets, node) -> bool:
    return node_by_id(ctx.p_poset, targets[node.id]).dim == node.dim + ctx.d_tau


def scan_witness(ctx, targets, p_node, q_oracle):
    """tits_flexibility_witness as a scan of every G/Q class against ``targets``."""
    for src in ctx.q_poset.nodes:
        if targets[src.id] != p_node.id:
            continue
        covers = ctx.q_poset.upper_covers(src)
        for home in q_oracle(src):
            if home not in covers or not _faithful(ctx, targets, home):
                continue
            return Witness(
                "Tits",
                {
                    "node": p_node.id,
                    "context": ctx.label(),
                    "source": src.id,
                    "home": home.id,
                    "d_tau": ctx.d_tau,
                    "representative": (
                        "sweep of an irreducible representative of the source "
                        "class by the incidence fibers"
                    ),
                },
            )
    return None


def scan_depth2_oracle(rev, targets):
    """certify.depth2_oracle as a scan of the whole base poset against ``targets``."""
    base = rev.q_poset

    def oracle(src):
        homes = []
        for x in base.nodes:
            if targets[x.id] != src.id:
                continue
            for xp in basic_witness_homes(base, x):
                if _faithful(rev, targets, xp):
                    homes.append(node_by_id(rev.p_poset, targets[xp.id]))
        return homes

    return oracle


def ungroup(groups) -> tuple[int, ...]:
    """Inverse of :func:`schubflex.classical.grouped`: lambda from (value, multiplicity) runs."""
    out = []
    pos = 0
    for v, m in groups:
        for _ in range(m):
            pos += 1
            out.append(v + pos)
    return tuple(out)


def gr_to_fingerprint(idx: GrIndex) -> tuple[int, ...]:
    """Fingerprint of the corresponding coset in the A_{n-1} quotient marked {k}."""
    inside = set(idx.lam)
    return tuple(
        (1 if i in inside else 0) - (1 if i + 1 in inside else 0)
        for i in range(1, idx.n)
    )


def fingerprint_to_gr(k: int, n: int, fingerprint) -> GrIndex:
    """Inverse of :func:`gr_to_fingerprint`."""
    fp = tuple(fingerprint)
    if len(fp) != n - 1:
        raise ValueError(f"fingerprint must have length {n - 1}")
    for chi_n in (0, 1):
        chi = [0] * (n + 1)
        chi[n] = chi_n
        for i in range(n - 1, 0, -1):
            chi[i] = chi[i + 1] + fp[i - 1]
        if all(c in (0, 1) for c in chi[1:]) and sum(chi[1:]) == k:
            return GrIndex(k, n, tuple(i for i in range(1, n + 1) if chi[i]))
    raise ValueError(f"fingerprint {fp} does not encode a {k}-subset of 1..{n}")


def _og_sign_vector(idx: IsotropicIndex) -> tuple[int, ...]:
    """The half-spin weight of the class as a +-1 vector with even minus count.

    Minus signs sit at the complement of lambda in 1..n-1, padded with
    position n when the count would be odd (the same parity completion that
    picks the spinor component).
    """
    if idx.family != "og":
        raise ValueError("sign vectors only make sense for the og family")
    minus = set(range(1, idx.n)) - set(idx.lam)
    if len(minus) % 2:
        minus.add(idx.n)
    return tuple(-1 if i in minus else 1 for i in range(1, idx.n + 1))


def og_to_fingerprint(idx: IsotropicIndex) -> tuple[int, ...]:
    """Fingerprint of the corresponding coset in the D_n quotient marked {n}.

    Coordinate j < n pairs the weight against epsilon_j - epsilon_{j+1};
    coordinate n pairs it against epsilon_{n-1} + epsilon_n.  Inverse of
    :func:`schubflex.isotropic.fingerprint_to_og`.
    """
    e = _og_sign_vector(idx)
    n = idx.n
    fp = [(e[j] - e[j + 1]) // 2 for j in range(n - 1)]
    fp.append((e[n - 2] + e[n - 1]) // 2)
    return tuple(fp)


def og_degree_by_chains(idx: IsotropicIndex) -> int:
    """The degree of an og class read off the D_n quotient marked {n}: its saturated-chain count.

    What :func:`schubflex.isotropic.og_degree` works out by Schur's formula,
    here found by building the whole 2^(n-1)-class poset.
    """
    return node_by_fingerprint(quotient("og", idx.n), og_to_fingerprint(idx)).degree


def gr_pairing(a: GrIndex, b: GrIndex) -> int:
    """Intersection number sigma_a . sigma_b in complementary dimensions (0 or 1)."""
    if (a.k, a.n) != (b.k, b.n):
        raise ValueError("indices live on different Grassmannians")
    if gr_dimension(a) + gr_dimension(b) != a.k * (a.n - a.k):
        raise ValueError("pairing needs complementary dimensions")
    return 1 if b.lam == dual_index(a).lam else 0


@lru_cache(maxsize=None)
def corner_peeling_count(shape: tuple[int, ...]) -> int:
    """Standard tableaux of a partition shape: sum over the shapes with one corner removed.

    The cell holding the largest entry of a standard filling is a corner, so
    the count is the sum of the counts of the shapes left after removing one.
    """
    shape = tuple(x for x in shape if x > 0)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            smaller = list(shape)
            smaller[i] -= 1
            total += corner_peeling_count(tuple(smaller))
    return total



def pairwise_gr_degree_log10(idx: GrIndex) -> float:
    """log10 of gr_degree(idx) in floats, one log per pair of rows: O(k^2).

    log10(cells!) less the log10 of the hook product, a row at a time: with k
    rows and l_i = shape[i] + k - 1 - i, the hook lengths of row i are 1..l_i
    without the l_i - l_j of the rows j below it (Frobenius).
    """
    shape = sorted(shifted(idx.lam), reverse=True)
    firsts = [part + len(shape) - 1 - i for i, part in enumerate(shape)]
    logs = lgamma(sum(shape) + 1)
    for i, first in enumerate(firsts):
        logs += fsum(map(log, [first - below for below in firsts[i + 1 :]])) - lgamma(first + 1)
    return logs / log(10)


def poset_json_dict(poset) -> dict:
    """The document that :meth:`~schubflex.poset.QuotientPoset.to_json` spells out by hand.

    ``json.dumps(poset_json_dict(p), sort_keys=True, indent=2) + "\\n"`` is the
    stdlib encoding of the same schema.
    """
    return {
        "type": poset.type_label(),
        "parabolic": sorted(poset.marked),
        "nodes": [
            {"id": n.id, "dim": n.dim, "degree": n.degree, "min_word": list(min_word(poset, n))}
            for n in poset.nodes
        ],
        "covers": [[lo.id, hi.id] for lo, hi in poset.covers],
    }


# The base posets that Cone payloads name, and the sweep contexts that Tits payloads name.
_CONE_BASES = {
    "the 10-dimensional spinor quotient": ("og", 5),
    "the 16-dimensional 27-class quotient": ("e6",),
}
_CONTEXT_LABEL = re.compile(r"([A-G])(\d+)\(P=\{([\d,]+)\},Q=\{([\d,]+)\}\)")


def _down_closure(poset, apex) -> set:
    """The classes <= ``apex``, found through lower covers."""
    below, stack = {apex}, [apex]
    while stack:
        for lo in poset.lower_covers(stack.pop()):
            if lo not in below:
                below.add(lo)
                stack.append(lo)
    return below


# Each context's sweep, worked out once: the context is keyed by its two shared posets.
_sweep_of = lru_cache(maxsize=None)(sweep_targets)


def _named_sweep(label: str):
    """The context a Tits payload names, and its sweep, each G/Q class swept on its own."""
    family, rank, p, q = _CONTEXT_LABEL.fullmatch(label).groups()
    p_marked, q_marked = ({int(x) for x in marked.split(",")} for marked in (p, q))
    ctx = make_context(build_cartan(family, int(rank)), p_marked, q_marked)
    return ctx, _sweep_of(ctx)


def _moduli_isotropic_problems(poset, base, p) -> list[str]:
    """A ModuliIsotropic payload: its index names ``base``, its branch's Grassmannian index is right."""
    family, n, lam = p["index"].split(":")  # og:n:a,b,...
    idx = IsotropicIndex(family, int(n), tuple(int(x) for x in lam.split(",") if x))
    named = node_by_fingerprint(poset, og_to_fingerprint(idx))
    found = [] if named is base else [f"index {p['index']} names {named.id}, not {base.id}"]
    s = len(idx.lam)
    if p["branch"] == "a" and p["embedded"] != str(GrIndex(s, idx.n, idx.lam)):
        found.append(f"embedded {p['embedded']} is not the index in a maximal isotropic space")
    if p["branch"] == "b" and p["extended"] != str(GrIndex(s + 1, idx.n, idx.lam + (idx.n,))):
        found.append(f"extended {p['extended']} is not the index extended by n")
    return found


def _base_problems(base_poset, base, witness) -> list[str]:
    """What is false in ``witness`` as a certificate of the Cone base class ``base``."""
    if witness.kind == "ModuliIsotropic":
        return _moduli_isotropic_problems(base_poset, base, witness.payload)
    if witness.payload["node"] != base.id:
        return [f"it certifies {witness.payload['node']}, not {base.id}"]
    return check_certificate(base_poset, witness)


def check_certificate(poset, witness, base_witnesses=None) -> list[str]:
    """What the payload of a certificate of a class of ``poset`` states falsely; [] if nothing.

    Reads the payload, the poset's lower covers, dimensions and degrees, and
    for a Tits payload the sweep of the context it names, each class swept on
    its own (:func:`sweep_targets`).  It calls no witness engine.  Checked:

    * Linear: ``ambient`` is an upper cover of ``node``, both of degree 1;
    * Bertini: ``node`` has dimension >= 1 and a degree, and ``sweep`` is an
      upper cover of the same degree whose only lower cover is ``node``;
    * Divisor: ``node`` has codimension 1 in a poset of dimension >= 2;
    * Cone: dim(node) = dim(base) + 1, equal degrees, node <= apex, and
      dim(apex) = dim(base poset) + 1.  With ``base_witnesses(base_poset,
      base)``, the certificates of the base class, one of them must pass in
      the base poset: a poset certificate of the base class by these checks,
      or a ModuliIsotropic one whose index names the base class, with its
      ``embedded`` or ``extended`` index recomputed;
    * Tits: the context's sweep takes ``source`` to ``node``, ``home`` is an
      upper cover of ``source``, ``d_tau`` is the context's, and dim(node) =
      dim(source) + d_tau.

    Any other kind is a violation.
    """
    kind, p = witness.kind, witness.payload
    node = node_by_id(poset, p["node"])
    found = []

    def check(holds: bool, what: str) -> None:
        if not holds:
            found.append(f"{kind} certificate of {node.id}: {what}")

    if kind == "Linear":
        ambient = node_by_id(poset, p["ambient"])
        check(node in poset.lower_covers(ambient), "ambient is no upper cover of the class")
        check(node.degree == ambient.degree == 1, "the class and ambient are not both of degree 1")
    elif kind == "Bertini":
        sweep = node_by_id(poset, p["sweep"])
        check(node.dim >= 1 and node.degree is not None, "the class is a point or has no degree")
        check(poset.lower_covers(sweep) == (node,), "the class is not the sweep's only lower cover")
        check(sweep.degree == node.degree, "the sweep's degree differs")
    elif kind == "Divisor":
        check(poset.dimension >= 2, "the poset has dimension below 2")
        check(node.dim == poset.dimension - 1, "the class is not of codimension 1")
    elif kind == "Cone":
        base_poset = quotient(*_CONE_BASES[p["base_poset"]])
        base, apex = node_by_id(base_poset, p["base"]), node_by_id(poset, p["apex"])
        check(node.dim == base.dim + 1, "the class is not one dimension above its base")
        check(node.degree == base.degree, "the class and its base differ in degree")
        check(node in _down_closure(poset, apex), "the class is not below the apex")
        check(apex.dim == base_poset.dimension + 1, "the apex is not one above the base poset")
        if base_witnesses is not None:
            passes = [not _base_problems(base_poset, base, w) for w in base_witnesses(base_poset, base)]
            check(any(passes), f"the base class {base.id} carries no certificate that passes")
    elif kind == "Tits":
        ctx, targets = _named_sweep(p["context"])
        source, home = node_by_id(ctx.q_poset, p["source"]), node_by_id(ctx.q_poset, p["home"])
        check(ctx.p_poset is poset, "the context sweeps onto another poset")
        check(targets[source.id] == node.id, "the source does not sweep onto the class")
        check(source in ctx.q_poset.lower_covers(home), "home is no upper cover of the source")
        check(p["d_tau"] == ctx.d_tau, f"d_tau {p['d_tau']} is not the context's {ctx.d_tau}")
        check(node.dim == source.dim + ctx.d_tau, "the class is not d_tau above its source")
    else:
        check(False, "no check for this kind")
    return found
