"""Per-statement evaluation with equality detection.

Each checked statement (bound, spectrum or edge-deletion lemma) is an array
formula over an order group (spectra.OrderGroup) that returns its Verdicts:
every graph's bound, observed value and flags as arrays, and a row's
witness dict on request. @check registers each once, in FORMULAS, and its
per-graph checker (CHECKS), the formula on a one-graph stack. A verdict
whose hypotheses fail has applicable = False and vacuously true flags;
exhaustive scans must filter on applicable. The applicability cutoffs that
differ from the loose prose statements are documented in the README, each
fixed by exhibiting the violating small case.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InconsistentClassification, UnknownTheorem, UnsupportedOrder
from .families import FamilySpec, build, turan_parts
from .graphs import Graph, connected, distances, is_connected
from .linalg import eigenvalues_stacked
from .spectra import OrderGroup, StackedProfiles, radii, transmission_stack
from .verdict import EQUALITY_TOL, SLACK, BoundVerdict, flags, verdicts

THEOREM_IDS = ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1", "T5.2",
               "T6.1", "T6.2", "T6.3", "C6.1", "T6.4", "T7.1")

# theorem id -> array formula (OrderGroup, tol) -> Verdicts, and -> the
# per-graph checker (Graph, tol) -> BoundVerdict, in registration order
FORMULAS: dict = {}
CHECKS: dict = {}


def check(theorem_id: str):
    """Register the decorated array formula as theorem_id and return its
    per-graph checker: the formula on a one-graph stack, row 0."""
    def register(formula):
        def on_graph(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
            return formula(StackedProfiles([g]).groups[0], tol).verdict(0)
        on_graph.__name__, on_graph.__doc__ = formula.__name__, formula.__doc__
        FORMULAS[theorem_id], CHECKS[theorem_id] = formula, on_graph
        return on_graph
    return register


def require_known(ids) -> None:
    """Raise UnknownTheorem for the first of ids that no check registered."""
    for tid in ids:
        if tid not in FORMULAS:
            raise UnknownTheorem(f"unknown theorem id {tid!r}; "
                                 f"known: {', '.join(FORMULAS)}")


def clique_number(g: Graph) -> int:
    """Exact clique number via branch and bound on bitset candidate sets with
    a greedy coloring upper bound."""
    n, adj = g.n, g.adj
    best = 1

    def color_order(cand: int) -> list[tuple[int, int]]:
        # greedy coloring of the candidate set, one color class at a time:
        # each class takes, in ascending order, every remaining vertex with
        # no neighbour in it (the classes first-fit coloring gives); returns
        # (vertex, color) with colors ascending, a valid upper bound for the
        # clique inside cand
        out = []
        color = 0
        while cand:
            color += 1
            free = cand
            while free:
                low = free & -free
                v = low.bit_length() - 1
                cand ^= low
                free &= ~adj[v] ^ low
                out.append((v, color))
        return out

    def expand(size: int, cand: int):
        nonlocal best
        seq = color_order(cand)
        for v, color in reversed(seq):
            if size + color <= best:
                return
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def _omega(s: OrderGroup) -> np.ndarray:
    """Clique numbers of the group's graphs; the first call searches every
    graph of the corpus once, in corpus order."""
    return s.corpus.fact("omega", lambda c: np.array(
        [clique_number(g) for g in c.graphs]))[s.ks]


def _complete(s: OrderGroup) -> np.ndarray:
    return s.m == s.n * (s.n - 1) // 2


# ---------------------------------------------------------------------------
# structural recognizers (no isomorphism search needed)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_star(g: Graph) -> bool:
    if g.n < 2:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])


def is_path_graph(g: Graph) -> bool:
    # a tree (connected, n - 1 edges) with no vertex of degree above 2
    return (g.m == g.n - 1 and all(g.degree(v) <= 2 for v in range(g.n))
            and is_connected(g))


def is_turan(g: Graph, omega: int) -> bool:
    """True iff g is the balanced complete omega-partite graph on its order."""
    n = g.n
    if not 2 <= omega <= n:
        return omega == 1 and n == 1
    # the complement must be a disjoint union of omega balanced cliques: each
    # vertex's block is its non-neighbourhood, itself included
    full = (1 << n) - 1
    seen = 0
    sizes = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        block = ~g.adj[v] & full
        for u in range(n):
            if (block >> u) & 1 and (~g.adj[u] & full) != block:
                return False
        seen |= block
        sizes.append(block.bit_count())
    return sorted(sizes) == sorted(turan_parts(n, omega))


def is_clique_path(g: Graph, omega: int) -> bool:
    """True iff g is the clique K_omega with a pendant path (K_omega^{n-omega})."""
    n = g.n
    if omega == n:
        return is_complete(g)
    if omega < 2 or omega > n:
        return False
    if omega == 2:
        return is_path_graph(g)
    if g.m != omega * (omega - 1) // 2 + (n - omega):
        return False
    leaves = [v for v in range(n) if g.degree(v) == 1]
    if len(leaves) != 1:
        return False
    # walk the pendant path from its free end to the junction
    prev, cur = -1, leaves[0]
    chain = set()
    while g.degree(cur) <= 2:
        chain.add(cur)
        row = g.adj[cur] & ~(1 << prev if prev >= 0 else 0)
        if row == 0:
            return False
        prev, cur = cur, (row & -row).bit_length() - 1
        if cur in chain:
            return False
    junction = cur
    clique = [v for v in range(n) if v not in chain]
    if len(clique) != omega or junction not in clique:
        return False
    for i in clique:
        for j in clique:
            if i < j and not g.has_edge(i, j):
                return False
    return len(chain) == n - omega


def is_kite(g: Graph) -> bool:
    """Triangle with a pendant path (n >= 3)."""
    return g.m == g.n and is_clique_path(g, 3)


# ---------------------------------------------------------------------------
# cached spectral quantities


@lru_cache(maxsize=8192)
def _radius(kind: str, params: tuple, sign: int) -> float:
    """Largest eigenvalue of Tr - D (sign -1) or Tr + D (sign +1) of the
    family member kind(*params)."""
    return radii([build(FamilySpec(kind, params))], sign)[0]


# ---------------------------------------------------------------------------
# distance Laplacian lower bounds


@check("L3.1")
def bound_L1_lemma31(s: OrderGroup, tol: float):
    """dl radius >= D1 + D1/(n-1)."""
    n = s.n
    if n < 2:
        return verdicts("L3.1", np.zeros(len(s.ks)), (True, True, True), 0.0,
                        lambda r: {"n": n}, False)
    obs, d1 = s.dl[:, 0], s.trans.max(axis=1)
    bound = d1 + d1 / (n - 1)
    return verdicts("L3.1", obs, flags(obs, ">=", bound, tol), bound,
                    lambda r: {"D1": int(d1[r]), "n": n})


@check("T3.1")
def bound_L1_theorem31(s: OrderGroup, tol: float):
    """dl radius >= D1 + 2 for non-complete graphs, strict when diam >= 3."""
    obs, d1 = s.dl[:, 0], s.trans.max(axis=1)
    bound = d1 + 2.0
    holds, strict, equality = flags(obs, ">=", bound, tol)
    return verdicts("T3.1", obs, (holds & ((s.diam < 3) | strict), strict, equality),
                    bound, lambda r: {"D1": int(d1[r]), "diam": int(s.diam[r])},
                    ~_complete(s), lambda r: {"complete": True}, hide=True)


@check("T3.2")
def bound_L1_theorem32(s: OrderGroup, tol: float):
    """Trichotomy of the dl radius: n for K_n, n+2 for K_n minus a nonempty
    matching (matching_k edges), above n+2 otherwise. A radius that
    disagrees with the structure is a failing verdict, classification
    "inconsistent"."""
    n, obs = s.n, s.dl[:, 0]
    # K_n - kK_2 exactly when every degree is at least n - 2; -1 otherwise
    min_degree = s.adj.sum(axis=2).min(axis=1)
    k = np.where(min_degree >= n - 2, n * (n - 1) // 2 - s.m, -1)
    bound = np.where(k == 0, float(n), float(n + 2))
    fits = np.where(k < 0, ~(obs <= n + 2 + tol), abs(obs - bound) <= tol)

    def witness(r):
        kr = int(k[r])
        kind = min(kr, 1) + 1  # above n+2, K_n, K_n minus a matching
        if fits[r]:
            return {"classification": ("AboveNPlus2", "EqualsN_Kn",
                                       "EqualsNPlus2_Matching")[kind],
                    "matching_k": kr}
        o = float(obs[r])
        return {"classification": "inconsistent", "detail": (
            f"dl radius {o} at or below {n + 2} without matching structure",
            f"complete graph with dl radius {o} != {n}",
            f"matching-complement graph with dl radius {o} != {n + 2}")[kind]}
    return verdicts("T3.2", obs, (fits, fits & (k < 0), fits & (k >= 0)), bound,
                    witness, n >= 2, lambda r: {"n": n})


def classify_L1_theorem32(g: Graph, tol: float = EQUALITY_TOL) -> str:
    """Trichotomy of the dl radius at n and n+2.

    Returns "EqualsN_Kn", "EqualsNPlus2_Matching", or "AboveNPlus2"; raises
    InconsistentClassification when spectral value and structure disagree."""
    if g.n < 2:
        raise UnsupportedOrder("classification needs n >= 2")
    w = bound_L1_theorem32(g, tol).witness
    if w["classification"] == "inconsistent":
        raise InconsistentClassification(w["detail"])
    return w["classification"]


# ---------------------------------------------------------------------------
# distance Laplacian upper bounds


@check("T4.1")
def bound_L1_theorem41(s: OrderGroup, tol: float):
    """dl radius <= 2W - n(n-2) for n >= 4; spectral equality also occurs for
    K_n - e, which is reported in the witness rather than suppressed."""
    n, obs = s.n, s.dl[:, 0]
    bound = 2 * s.wiener - n * (n - 2)
    triple = flags(obs, "<=", bound, tol)
    comp = _complete(s)
    return verdicts("T4.1", obs, triple, bound, lambda r: {
        "W": int(s.wiener[r]), "is_complete": bool(comp[r]),
        "structural_mismatch": bool(triple[2][r] and not comp[r])},
        n >= 4, lambda r: {"n": n})


@check("T4.2")
def bound_L1_theorem42(s: OrderGroup, tol: float):
    """Strict upper bound D1 + sqrt(2*sum d_ij^2 - (1/n)*sum D_i^2).

    Applicable from n = 3: K_2 meets the right side with equality (bound 2,
    radius 2), so the strict claim fails below that."""
    n, obs = s.n, s.dl[:, 0]
    d1 = s.trans.max(axis=1)
    sum_trans_sq = (s.trans * s.trans).sum(axis=1)
    bound = d1 + np.sqrt(2.0 * s.sum_sq - sum_trans_sq / n)
    return verdicts("T4.2", obs, flags(obs, "<", bound, tol), bound, lambda r: {
        "D1": int(d1[r]), "sum_dij_sq": int(s.sum_sq[r]),
        "sum_Di_sq": int(sum_trans_sq[r])}, n >= 3, lambda r: {"n": n})


# ---------------------------------------------------------------------------
# clique-number bounds


@check("T5.1")
def bound_L1_clique_lower(s: OrderGroup, tol: float):
    """dl radius >= n + ceil(n/omega), the Turan-graph radius.

    Not applicable when omega = n: the formula gives n+1 but the complete
    graph's radius is n."""
    n, obs, omega = s.n, s.dl[:, 0], _omega(s)
    bound = n + np.ceil(n / omega)
    return verdicts("T5.1", obs, flags(obs, ">=", bound, tol), bound,
                    lambda r: {"omega": int(omega[r]),
                               "is_turan": is_turan(s.graphs[r], int(omega[r]))},
                    omega < n, lambda r: {"omega": int(omega[r]), "n": n})


@check("T5.2")
def bound_L1_clique_upper(s: OrderGroup, tol: float):
    """dl radius <= that of the clique-with-path K_omega^{n-omega} of the same
    order and clique number; equality iff isomorphic to it."""
    obs, omega = s.dl[:, 0], _omega(s)
    bound = np.array([0.0 if s.n == 1 else _radius("KiteClique", (s.n, w), -1)
                      for w in omega.tolist()])
    return verdicts("T5.2", obs, flags(obs, "<=", bound, tol), bound, lambda r: {
        "omega": int(omega[r]),
        "is_clique_path": is_clique_path(s.graphs[r], int(omega[r]))})


# ---------------------------------------------------------------------------
# distance signless Laplacian bounds


@check("T6.1")
def bound_Q1_diameter(s: OrderGroup, tol: float):
    """dq radius > 2n-4+2d when diam d >= 3; additionally > d(n+2)/2 when
    d >= 4."""
    n, d, obs = s.n, s.diam, s.dq[:, 0]
    bound = 2 * n - 4 + 2 * d
    second = d * (n + 2) / 2.0
    holds = (obs - bound > SLACK) & ((d < 4) | (obs - second > SLACK))

    def witness(r):
        return {"diam": int(d[r]), "bound_2n_4_2d": float(bound[r]),
                "bound_d_n2_half": float(second[r]) if d[r] >= 4 else None}
    return verdicts("T6.1", obs, (holds, holds, abs(obs - bound) <= tol), bound,
                    witness, d >= 3, lambda r: {"diam": int(d[r])})


@check("T6.2")
def bound_gap_theorem62(s: OrderGroup, tol: float):
    """dq radius - dl radius <= (n-6+sqrt(9n^2-32n+32))/2 when diam <= 2,
    equality iff the star.

    Applicable from n = 4: K_3 exceeds the right side (gap 1 vs about 0.56),
    so the claim fails below that."""
    n, obs = s.n, s.dq[:, 0] - s.dl[:, 0]
    bound = (n - 6.0 + math.sqrt(9.0 * n * n - 32.0 * n + 32.0)) / 2.0
    return verdicts("T6.2", obs, flags(obs, "<=", bound, tol), bound,
                    lambda r: {"diam": int(s.diam[r]), "is_star": is_star(s.graphs[r])},
                    (s.diam <= 2) & (n >= 4),
                    lambda r: {"diam": int(s.diam[r]), "n": n})


@check("T6.3")
def bound_Qn_theorem63(s: OrderGroup, tol: float):
    """Smallest dq eigenvalue <= 2W/n - 1 (n >= 2)."""
    n, obs = s.n, s.dq[:, -1]
    bound = 2.0 * s.wiener / n - 1.0
    comp = _complete(s)
    return verdicts("T6.3", obs, flags(obs, "<=", bound, tol), bound,
                    lambda r: {"W": int(s.wiener[r]), "is_complete": bool(comp[r])},
                    n >= 2, lambda r: {"n": n})


@check("C6.1")
def bound_Qn_corollary61(s: OrderGroup, tol: float):
    """Smallest dq eigenvalue <= Dn - 1 when the minimum transmission is
    attained by at least two vertices."""
    obs, dn = s.dq[:, -1], s.trans.min(axis=1)
    mult = (s.trans == dn[:, None]).sum(axis=1)
    bound = dn - 1
    return verdicts("C6.1", obs, flags(obs, "<=", bound, tol), bound,
                    lambda r: {"Dn": int(dn[r]),
                               "min_trans_multiplicity": int(mult[r])}, mult >= 2)


@check("T6.4")
def bound_Qn_theorem64(s: OrderGroup, tol: float):
    """Smallest dq eigenvalue < Dn strictly (n >= 2)."""
    n, obs, dn = s.n, s.dq[:, -1], s.trans.min(axis=1)
    return verdicts("T6.4", obs, flags(obs, "<", dn, tol), dn,
                    lambda r: {"Dn": int(dn[r])}, n >= 2, lambda r: {"n": n})


@check("T7.1")
def bound_Q1_unicyclic(s: OrderGroup, tol: float):
    """Among unicyclic graphs of order n >= 6 the kite maximizes the dq
    radius; equality iff the kite itself."""
    n, obs = s.n, s.dq[:, 0]
    unicyclic = s.m == n
    bound = _radius("Kite3", (n,), 1) if n >= 6 else 0.0  # no kite below order 6
    return verdicts("T7.1", obs, flags(obs, "<=", bound, tol), bound,
                    lambda r: {"is_kite": is_kite(s.graphs[r])}, unicyclic & (n >= 6),
                    lambda r: {"unicyclic": bool(unicyclic[r]), "n": n})


# ---------------------------------------------------------------------------
# spectrum lemmas


@check("L4.1")
def check_lemma41(s: OrderGroup, tol: float):
    """All dl eigenvalues except the last are >= n (n >= 3), the last is 0."""
    n, vals = s.n, s.dl
    obs = vals[:, n - 2]
    holds = (obs >= n - SLACK) & (abs(vals[:, -1]) <= tol)
    return verdicts("L4.1", obs, (holds, obs - n > SLACK, abs(obs - n) <= tol),
                    float(n), lambda r: {"smallest": float(vals[r, -1])},
                    n >= 3, lambda r: {"n": n}, hide=True)


@check("L4.2")
def check_lemma42(s: OrderGroup, tol: float):
    """Second dl eigenvalue >= n (n >= 4), equality iff K_n or K_n - e."""
    n = s.n
    if n < 4:
        return verdicts("L4.2", np.zeros(len(s.ks)), (True, True, True), 0.0,
                        lambda r: {"n": n}, False)
    obs = s.dl[:, 1]
    eq = abs(obs - n) <= tol
    structural = n * (n - 1) // 2 - s.m <= 1
    return verdicts("L4.2", obs, ((obs >= n - SLACK) & (eq == structural),
                                  obs - n > SLACK, eq), float(n),
                    lambda r: {"is_Kn_or_Kn_minus_e": bool(structural[r])})


# ---------------------------------------------------------------------------
# edge-deletion lemmas


# matrix entries per stacked deletion solve: the 2,016 deletions of K_64
DELETION_CHUNK = 2016 * 64 * 64


def _deletion_gaps(profiles: StackedProfiles, signs) -> dict:
    """{("gaps", sign): (kept, gap)} for each sign, corpus-order arrays: kept[k]
    counts graph k's single-edge deletions that stay connected, and gap[k]
    is the least eigenvalue rise of Tr - D (sign -1) or Tr + D (sign +1)
    over them (inf when kept[k] is 0). The deletions of all graphs of one
    order are solved as one stack, in chunks of at most DELETION_CHUNK
    matrix entries, against the base spectra in profiles."""
    count = len(profiles.graphs)
    kept = np.zeros(count, dtype=np.intp)
    gaps = np.full((count, len(signs)), np.inf)
    for group in profiles.groups:
        ks, adj, n = group.ks, group.adj, group.n
        # one row per edge: its graph's row in the group, then its two ends
        edges = np.argwhere(np.triu(adj, 1))
        size = max(1, DELETION_CHUNK // (n * n))
        for lo in range(0, len(edges), size):
            row, i, j = edges[lo:lo + size].T
            sub = adj[row]
            e = np.arange(len(row))
            sub[e, i, j] = sub[e, j, i] = False
            keep = connected(sub)
            if not keep.any():
                continue
            row = row[keep]
            dist = distances(sub[keep])
            owner = ks[row]
            kept += np.bincount(owner, minlength=count)
            for col, sign in enumerate(signs):
                vals = eigenvalues_stacked(transmission_stack(dist, sign))
                rise = vals - (group.dl if sign < 0 else group.dq)[row]
                np.minimum.at(gaps[:, col], owner, rise.min(axis=1))
    return {("gaps", sign): (kept, gaps[:, col]) for col, sign in enumerate(signs)}


def _stack(graphs, ids) -> StackedProfiles:
    """graphs stacked per order, with the deletion gaps of the edge-deletion
    lemmas among ids solved up front in one _deletion_gaps call."""
    profiles = StackedProfiles(graphs)
    signs = [sign for tid, sign in (("L2.3", -1), ("L2.4", 1)) if tid in ids]
    if signs:
        profiles.facts.update(_deletion_gaps(profiles, signs))
    return profiles


def _edge_deletion(s: OrderGroup, sign: int, theorem_id: str, tol: float):
    """Deleting any edge that keeps the graph connected never lowers any
    eigenvalue of Tr - D (sign -1) or Tr + D (sign +1). A stack from _stack
    holds the gaps of the signs asked for; otherwise this sign's are solved
    here."""
    name = ("gaps", sign)
    kept, gap = s.corpus.fact(name, lambda c: _deletion_gaps(c, [sign])[name])
    kept, gap = kept[s.ks], gap[s.ks]
    return verdicts(theorem_id, gap, (gap >= -1e-9, gap > SLACK, abs(gap) <= tol),
                    0.0, lambda r: {"deletions_checked": int(kept[r])}, kept > 0,
                    hide=True)


@check("L2.3")
def check_lemma23(s: OrderGroup, tol: float):
    return _edge_deletion(s, -1, "L2.3", tol)


@check("L2.4")
def check_lemma24(s: OrderGroup, tol: float):
    return _edge_deletion(s, 1, "L2.4", tol)
