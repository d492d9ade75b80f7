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

import numpy as np

from .errors import UnknownTheorem
from .families import FamilySpec, build, turan_parts
from .graphs import Graph, connected, is_connected
from .spectra import OrderGroup, distance_spectra, radii, slices
from .verdict import EQUALITY_TOL, BoundVerdict, flags, verdicts

THEOREM_IDS = ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1", "T5.2",
               "T6.1", "T6.2", "T6.3", "C6.1", "T6.4", "T7.1")

# theorem id -> array formula (OrderGroup, tol) -> Verdicts, and -> the
# per-graph checker Graph -> BoundVerdict at EQUALITY_TOL, in registration order
FORMULAS: dict = {}
CHECKS: dict = {}


def check(theorem_id: str):
    """Register the decorated array formula as theorem_id and return its
    per-graph checker: the formula at EQUALITY_TOL on a one-graph stack."""
    def register(formula):
        def on_graph(g: Graph) -> BoundVerdict:
            return formula(OrderGroup([g], [0]), EQUALITY_TOL).verdict(0)
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
    """Clique numbers of the group's graphs; the first call searches each
    graph once, in row order."""
    return s.fact("omega", lambda s: np.array([clique_number(g) for g in s.graphs]))


def _complete(s: OrderGroup) -> np.ndarray:
    return s.m == s.n * (s.n - 1) // 2


# ---------------------------------------------------------------------------
# structural recognizers (no isomorphism search needed)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_star(g: Graph) -> bool:
    # n - 1 edges, all at one vertex
    return g.n >= 2 and g.m == g.n - 1 and any(g.degree(v) == g.n - 1 for v in range(g.n))


def _turan_edges(n: int, omega: int) -> int:
    # t(n, omega): the n^2 ordered pairs less those inside the balanced parts, halved
    return (n * n - sum(p * p for p in turan_parts(n, omega))) // 2


def is_turan(g: Graph, omega: int) -> bool:
    """True iff g is the balanced complete omega-partite graph on its order
    (omega = 1 only at n = 1): by Turan's theorem, the one graph with no
    K_{omega+1} and t(n, omega) edges."""
    if not 2 <= omega <= g.n:
        return omega == 1 and g.n == 1
    return g.m == _turan_edges(g.n, omega) and clique_number(g) <= omega


def _clique_path_shape(g: Graph, omega: int) -> bool:
    """is_clique_path for a graph that holds a K_omega. Connected with
    C(omega, 2) + n - omega edges, it contracts (clique to one vertex) to a
    tree whose leaves besides the clique are the graph's: one leaf makes the
    tree a path from the clique. At omega = 2 the clique's end is a leaf
    too; at omega = n the graph is K_n."""
    n, leaves = g.n, [g.degree(v) for v in range(g.n)].count(1)
    return (omega >= 1 and g.m == omega * (omega - 1) // 2 + n - omega
            and (omega == n or leaves == 1 + (omega == 2)) and is_connected(g))


def is_clique_path(g: Graph, omega: int) -> bool:
    """True iff g is the clique K_omega with a pendant path (K_omega^{n-omega})."""
    return _clique_path_shape(g, omega) and clique_number(g) >= omega


def is_kite(g: Graph) -> bool:
    """Triangle with a pendant path (n >= 3)."""
    return g.m == g.n and is_clique_path(g, 3)


# ---------------------------------------------------------------------------
# distance Laplacian lower bounds


@check("L3.1")
def bound_L1_lemma31(s: OrderGroup, tol: float):
    """dl radius >= D1 + D1/(n-1)."""
    n = s.n
    if n < 2:
        return verdicts("L3.1", np.zeros(len(s.graphs)), (True, True, True), 0.0,
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
    """dl radius >= n + ceil(n/omega), met by every complete omega-partite
    graph with largest part ceil(n/omega), Turan or not; not applicable when
    omega = n, where the formula gives n+1 but K_n's radius is n."""
    n, obs, omega = s.n, s.dl[:, 0], _omega(s)
    bound = n + np.ceil(n / omega)
    return verdicts("T5.1", obs, flags(obs, ">=", bound, tol), bound,
                    lambda r: {"omega": int(omega[r]),
                               "is_turan": bool(s.m[r] == _turan_edges(n, omega[r]))},
                    omega < n, lambda r: {"omega": int(omega[r]), "n": n})


@check("T5.2")
def bound_L1_clique_upper(s: OrderGroup, tol: float):
    """dl radius <= that of the clique-with-path K_omega^{n-omega} of the same
    order and clique number; equality iff isomorphic to it."""
    obs, omega = s.dl[:, 0], _omega(s)
    # one stack of K_omega^{n-omega}, one per distinct clique number
    ws, at = np.unique(omega, return_inverse=True)
    bound = np.zeros(len(obs)) if s.n == 1 else np.array(radii(
        [build(FamilySpec("KiteClique", (s.n, w))) for w in ws.tolist()], -1))[at]
    return verdicts("T5.2", obs, flags(obs, "<=", bound, tol), bound, lambda r: {
        "omega": int(omega[r]),
        "is_clique_path": _clique_path_shape(s.graphs[r], int(omega[r]))})


# ---------------------------------------------------------------------------
# distance signless Laplacian bounds


@check("T6.1")
def bound_Q1_diameter(s: OrderGroup, tol: float):
    """dq radius > 2n-4+2d when diam d >= 3; additionally > d(n+2)/2 when
    d >= 4."""
    n, d, obs = s.n, s.diam, s.dq[:, 0]
    bound = 2 * n - 4 + 2 * d
    second = d * (n + 2) / 2.0
    holds, _, equality = flags(obs, ">", bound, tol)
    holds = holds & ((d < 4) | flags(obs, ">", second, tol)[0])

    def witness(r):
        return {"diam": int(d[r]), "bound_2n_4_2d": float(bound[r]),
                "bound_d_n2_half": float(second[r]) if d[r] >= 4 else None}
    return verdicts("T6.1", obs, (holds, holds, equality), bound,
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
    # no kite below order 6
    bound = radii([build(FamilySpec("Kite3", (n,)))], 1)[0] if n >= 6 else 0.0
    return verdicts("T7.1", obs, flags(obs, "<=", bound, tol), bound,
                    lambda r: {"is_kite": _clique_path_shape(s.graphs[r], 3)
                               and bool(_omega(s)[r] == 3)}, unicyclic & (n >= 6),
                    lambda r: {"unicyclic": bool(unicyclic[r]), "n": n})


# ---------------------------------------------------------------------------
# spectrum lemmas


@check("L4.1")
def check_lemma41(s: OrderGroup, tol: float):
    """All dl eigenvalues except the last are >= n (n >= 3), the last is 0."""
    n, vals = s.n, s.dl
    obs = vals[:, n - 2]
    holds, strict, equality = flags(obs, ">=", n, tol)
    holds = holds & (abs(vals[:, -1]) <= tol)
    return verdicts("L4.1", obs, (holds, strict, equality), float(n),
                    lambda r: {"smallest": float(vals[r, -1])},
                    n >= 3, lambda r: {"n": n}, hide=True)


@check("L4.2")
def check_lemma42(s: OrderGroup, tol: float):
    """Second dl eigenvalue >= n (n >= 4), equality iff K_n or K_n - e."""
    n = s.n
    if n < 4:
        return verdicts("L4.2", np.zeros(len(s.graphs)), (True, True, True), 0.0,
                        lambda r: {"n": n}, False)
    obs = s.dl[:, 1]
    holds, strict, eq = flags(obs, ">=", n, tol)
    structural = n * (n - 1) // 2 - s.m <= 1
    return verdicts("L4.2", obs, (holds & (eq == structural), strict, eq), float(n),
                    lambda r: {"is_Kn_or_Kn_minus_e": bool(structural[r])})


# ---------------------------------------------------------------------------
# edge-deletion lemmas


def _without(adj: np.ndarray, row, i, j) -> np.ndarray:
    """Adjacency stack of graph row[e] of adj less the edge (i[e], j[e])."""
    sub, e = adj[row], np.arange(len(row))
    sub[e, i, j] = sub[e, j, i] = False
    return sub


def _deletion_gaps(s: OrderGroup) -> tuple[np.ndarray, np.ndarray]:
    """(kept, gaps), row-order arrays: kept[r] counts row r's single-edge
    deletions that stay connected; over them, gaps[r, 0] is the least entry
    of W = D(G - e) - D(G), and gaps[r, 1] the least eigenvalue rise of
    Tr + D (both inf when kept[r] is 0). W >= 0 is L2.3's proof: then
    L(G - e) - L(G) = Diag(W 1) - W is positive semidefinite, and both
    have least eigenvalue 0, so the least rise of Tr - D is exactly 0, the
    value gaps[r, 0] takes unless a distance shortened. The edges are
    walked in slices, and each slice's connected deletions are solved
    together. LAPACK solves each matrix on its own, so a deletion equal to
    a group graph gets that graph's rows bit for bit."""
    kept = np.zeros(len(s.graphs), dtype=np.intp)
    gaps = np.full((len(s.graphs), 2), np.inf)
    # one entry per edge: its graph's row, then its two ends
    row, i, j = np.nonzero(np.triu(s.adj, 1))
    for part in slices(len(row), s.n):
        sub = _without(s.adj, row[part], i[part], j[part])
        ok = connected(sub)
        rows = row[part][ok]
        kept += np.bincount(rows, minlength=len(kept))
        dist, (vals,) = distance_spectra(sub[ok], (1,))
        np.minimum.at(gaps[:, 0], rows, (dist - s.dist[rows]).min(axis=(1, 2)))
        np.minimum.at(gaps[:, 1], rows, (vals - s.dq[rows]).min(axis=1))
    return kept, gaps


def _edge_deletion(s: OrderGroup, sign: int, theorem_id: str, tol: float):
    """Deleting any edge that keeps the graph connected never lowers any
    eigenvalue of Tr - D (sign -1) or Tr + D (sign +1): holds when the gap
    is at least -1e-9, which on L2.3's gap, W's least integer entry, is the
    exact test W >= 0, a shortened distance being a violation observed as
    W's negative entry. The group's first read of either sign runs the one
    _deletion_gaps call."""
    kept, gaps = s.fact("deletions", _deletion_gaps)
    gap = gaps[:, (sign + 1) // 2]
    _, strict, equality = flags(gap, ">=", 0.0, tol)
    return verdicts(theorem_id, gap, (gap >= -1e-9, strict, equality), 0.0,
                    lambda r: {"deletions_checked": int(kept[r])}, kept > 0,
                    hide=True)


@check("L2.3")
def check_lemma23(s: OrderGroup, tol: float):
    return _edge_deletion(s, -1, "L2.3", tol)


@check("L2.4")
def check_lemma24(s: OrderGroup, tol: float):
    return _edge_deletion(s, 1, "L2.4", tol)
