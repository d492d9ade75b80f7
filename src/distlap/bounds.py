"""Per-theorem bound evaluation with equality detection.

Every public checker returns a BoundVerdict. A verdict whose hypotheses fail
comes back with applicable = False and vacuously true flags; exhaustive scans
must filter on applicable. Applicability cutoffs that differ from the loose
prose statements (small orders, the complete graph for the clique lower
bound) are documented in the README; each was fixed by exhibiting the
violating small case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import InconsistentClassification, UnsupportedOrder
from .families import FamilySpec, build, turan_parts
from .graphs import Graph
from .spectra import SpectralProfile, held, radii, spectral_profile
from .verdict import EQUALITY_TOL, SLACK, BoundVerdict, not_applicable, verdict

THEOREM_IDS = ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1", "T5.2",
               "T6.1", "T6.2", "T6.3", "C6.1", "T6.4", "T7.1")


@dataclass(frozen=True)
class CliqueNumber:
    omega: int


def clique_number(g: Graph) -> CliqueNumber:
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
    return CliqueNumber(best)


def _profile(g: Graph) -> SpectralProfile:
    """spectral_profile(g), held with the graph being checked."""
    return held(g, "profile", spectral_profile)


def _omega(g: Graph) -> int:
    """clique_number(g).omega, held with the graph being checked, so T5.1
    and T5.2 on the same graph share one search."""
    return held(g, "omega", lambda h: clique_number(h).omega)


# ---------------------------------------------------------------------------
# structural recognizers (no isomorphism search needed)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def matching_complement_k(g: Graph):
    """Number of removed matching edges when g = K_n - kK_2 (0 for K_n),
    else None."""
    if any(g.degree(v) < g.n - 2 for v in range(g.n)):
        return None
    return g.n * (g.n - 1) // 2 - g.m


def is_star(g: Graph) -> bool:
    if g.n < 2:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])


def is_path_graph(g: Graph) -> bool:
    if g.n == 1:
        return g.m == 0
    degs = sorted(g.degree(v) for v in range(g.n))
    return g.m == g.n - 1 and degs[0] == degs[1] == 1 and all(d == 2 for d in degs[2:])


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
def _kite_q_radius(n: int) -> float:
    return radii([build(FamilySpec("Kite3", (n,)))], 1)[0]


@lru_cache(maxsize=8192)
def _clique_path_dl_radius(n: int, omega: int) -> float:
    if n == 1:
        return 0.0
    return radii([build(FamilySpec("KiteClique", (n, omega)))], -1)[0]


# ---------------------------------------------------------------------------
# distance Laplacian lower bounds


def bound_L1_lemma31(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dl radius >= D1 + D1/(n-1)."""
    p = _profile(g)
    if g.n < 2:
        return not_applicable("L3.1", witness={"n": g.n})
    d1 = max(p.dd.trans)
    bound = d1 + d1 / (g.n - 1)
    return verdict("L3.1", p.dl_spectrum.radius, ">=", bound, tol,
                   {"D1": d1, "n": g.n})


def bound_L1_theorem31(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dl radius >= D1 + 2 for non-complete graphs, strict when diam >= 3."""
    p = _profile(g)
    if is_complete(g):
        return not_applicable("T3.1", witness={"complete": True})
    d1 = max(p.dd.trans)
    rel = ">" if p.dd.diam >= 3 else ">="
    return verdict("T3.1", p.dl_spectrum.radius, rel, float(d1 + 2), tol,
                   {"D1": d1, "diam": p.dd.diam})


def classify_L1_theorem32(g: Graph, tol: float = EQUALITY_TOL) -> str:
    """Trichotomy of the dl radius at n and n+2.

    Returns "EqualsN_Kn", "EqualsNPlus2_Matching", or "AboveNPlus2"; raises
    InconsistentClassification when spectral value and structure disagree."""
    n = g.n
    if n < 2:
        raise UnsupportedOrder("classification needs n >= 2")
    obs = _profile(g).dl_spectrum.radius
    k = matching_complement_k(g)
    if k == 0:
        if abs(obs - n) > tol:
            raise InconsistentClassification(
                f"complete graph with dl radius {obs} != {n}")
        return "EqualsN_Kn"
    if k is not None:
        if abs(obs - (n + 2)) > tol:
            raise InconsistentClassification(
                f"matching-complement graph with dl radius {obs} != {n + 2}")
        return "EqualsNPlus2_Matching"
    if obs <= n + 2 + tol:
        raise InconsistentClassification(
            f"dl radius {obs} at or below {n + 2} without matching structure")
    return "AboveNPlus2"


def bound_L1_theorem32(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Scan wrapper around classify_L1_theorem32; a classification mismatch
    becomes a failing verdict instead of an exception."""
    n = g.n
    obs = _profile(g).dl_spectrum.radius
    if n < 2:
        return not_applicable("T3.2", observed=obs, witness={"n": n})
    k = matching_complement_k(g)
    bound = float(n if k == 0 else n + 2)
    try:
        cls = classify_L1_theorem32(g, tol)
    except InconsistentClassification as exc:
        return BoundVerdict("T3.2", bound, obs, holds=False, strict=False,
                            equality=False,
                            witness={"classification": "inconsistent",
                                     "detail": str(exc)})
    return BoundVerdict(
        "T3.2", bound, obs,
        holds=True,
        strict=cls == "AboveNPlus2",
        equality=cls in ("EqualsN_Kn", "EqualsNPlus2_Matching"),
        witness={"classification": cls,
                 "matching_k": -1 if k is None else k})


# ---------------------------------------------------------------------------
# distance Laplacian upper bounds


def bound_L1_theorem41(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dl radius <= 2W - n(n-2) for n >= 4; spectral equality also occurs for
    K_n - e, which is reported in the witness rather than suppressed."""
    p = _profile(g)
    n = g.n
    obs = p.dl_spectrum.radius
    if n < 4:
        return not_applicable("T4.1", observed=obs, witness={"n": n})
    bound = float(2 * p.dd.wiener - n * (n - 2))
    comp = is_complete(g)
    v = verdict("T4.1", obs, "<=", bound, tol)
    return replace(v, witness={"W": p.dd.wiener, "is_complete": comp,
                               "structural_mismatch": v.equality and not comp})


def bound_L1_theorem42(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Strict upper bound D1 + sqrt(2*sum d_ij^2 - (1/n)*sum D_i^2).

    Applicable from n = 3: K_2 meets the right side with equality (bound 2,
    radius 2), so the strict claim fails below that."""
    p = _profile(g)
    n = g.n
    obs = p.dl_spectrum.radius
    if n < 3:
        return not_applicable("T4.2", observed=obs, witness={"n": n})
    d1 = max(p.dd.trans)
    sum_sq = p.dd.sum_sq
    sum_trans_sq = sum(t * t for t in p.dd.trans)
    bound = d1 + math.sqrt(2.0 * sum_sq - sum_trans_sq / n)
    return verdict("T4.2", obs, "<", bound, tol,
                   {"D1": d1, "sum_dij_sq": sum_sq, "sum_Di_sq": sum_trans_sq})


# ---------------------------------------------------------------------------
# clique-number bounds


def bound_L1_clique_lower(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dl radius >= n + ceil(n/omega), the Turan-graph radius.

    Not applicable when omega = n: the formula gives n+1 but the complete
    graph's radius is n."""
    p = _profile(g)
    n = g.n
    omega = _omega(g)
    obs = p.dl_spectrum.radius
    if omega >= n:
        return not_applicable("T5.1", observed=obs,
                              witness={"omega": omega, "n": n})
    bound = float(n + math.ceil(n / omega))
    return verdict("T5.1", obs, ">=", bound, tol,
                   {"omega": omega, "is_turan": is_turan(g, omega)})


def bound_L1_clique_upper(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dl radius <= that of the clique-with-path K_omega^{n-omega} of the same
    order and clique number; equality iff isomorphic to it."""
    p = _profile(g)
    n = g.n
    omega = _omega(g)
    obs = p.dl_spectrum.radius
    if n == 1:
        return BoundVerdict("T5.2", 0.0, obs, holds=True, strict=False,
                            equality=True, witness={"omega": 1, "is_clique_path": True})
    return verdict("T5.2", obs, "<=", _clique_path_dl_radius(n, omega), tol,
                   {"omega": omega, "is_clique_path": is_clique_path(g, omega)})


# ---------------------------------------------------------------------------
# distance signless Laplacian bounds


def bound_Q1_diameter(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dq radius > 2n-4+2d when diam d >= 3; additionally > d(n+2)/2 when
    d >= 4."""
    p = _profile(g)
    n, d = g.n, p.dd.diam
    obs = p.dq_spectrum.radius
    if d < 3:
        return not_applicable("T6.1", observed=obs, witness={"diam": d})
    bound = float(2 * n - 4 + 2 * d)
    holds = obs - bound > SLACK
    second = None
    if d >= 4:
        second = d * (n + 2) / 2.0
        holds = holds and obs - second > SLACK
    return BoundVerdict("T6.1", bound, obs, holds=holds, strict=holds,
                        equality=abs(obs - bound) <= tol,
                        witness={"diam": d, "bound_2n_4_2d": bound,
                                 "bound_d_n2_half": second})


def bound_gap_theorem62(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """dq radius - dl radius <= (n-6+sqrt(9n^2-32n+32))/2 when diam <= 2,
    equality iff the star.

    Applicable from n = 4: K_3 exceeds the right side (gap 1 vs about 0.56),
    so the claim fails below that."""
    p = _profile(g)
    n = g.n
    obs = p.dq_spectrum.radius - p.dl_spectrum.radius
    if p.dd.diam > 2 or n < 4:
        return not_applicable("T6.2", observed=obs,
                              witness={"diam": p.dd.diam, "n": n})
    bound = (n - 6.0 + math.sqrt(9.0 * n * n - 32.0 * n + 32.0)) / 2.0
    return verdict("T6.2", obs, "<=", bound, tol,
                   {"diam": p.dd.diam, "is_star": is_star(g)})


def bound_Qn_theorem63(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Smallest dq eigenvalue <= 2W/n - 1 (n >= 2)."""
    p = _profile(g)
    n = g.n
    obs = p.dq_spectrum.smallest
    if n < 2:
        return not_applicable("T6.3", observed=obs, witness={"n": n})
    return verdict("T6.3", obs, "<=", 2.0 * p.dd.wiener / n - 1.0, tol,
                   {"W": p.dd.wiener, "is_complete": is_complete(g)})


def bound_Qn_corollary61(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Smallest dq eigenvalue <= Dn - 1 when the minimum transmission is
    attained by at least two vertices."""
    p = _profile(g)
    dn = min(p.dd.trans)
    mult = sum(1 for t in p.dd.trans if t == dn)
    obs = p.dq_spectrum.smallest
    if mult < 2:
        return not_applicable("C6.1", observed=obs,
                              witness={"Dn": dn, "min_trans_multiplicity": mult})
    return verdict("C6.1", obs, "<=", float(dn - 1), tol,
                   {"Dn": dn, "min_trans_multiplicity": mult})


def bound_Qn_theorem64(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Smallest dq eigenvalue < Dn strictly (n >= 2)."""
    p = _profile(g)
    obs = p.dq_spectrum.smallest
    if g.n < 2:
        return not_applicable("T6.4", observed=obs, witness={"n": g.n})
    dn = min(p.dd.trans)
    return verdict("T6.4", obs, "<", float(dn), tol, {"Dn": dn})


def bound_Q1_unicyclic(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Among unicyclic graphs of order n >= 6 the kite maximizes the dq
    radius; equality iff the kite itself."""
    p = _profile(g)
    n = g.n
    obs = p.dq_spectrum.radius
    unicyclic = g.m == n
    if not unicyclic or n < 6:
        return not_applicable("T7.1", observed=obs,
                              witness={"unicyclic": unicyclic, "n": n})
    return verdict("T7.1", obs, "<=", _kite_q_radius(n), tol,
                   {"is_kite": is_kite(g)})


# ---------------------------------------------------------------------------
# scan-only spectrum lemmas


def check_lemma41(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """All dl eigenvalues except the last are >= n (n >= 3), the last is 0."""
    p = _profile(g)
    n = g.n
    vals = p.dl_spectrum.values
    if n < 3:
        return not_applicable("L4.1", witness={"n": n})
    obs = vals[n - 2]
    holds = obs >= n - SLACK and abs(vals[-1]) <= tol
    return BoundVerdict("L4.1", float(n), obs,
                        holds=holds,
                        strict=obs - n > SLACK,
                        equality=abs(obs - n) <= tol,
                        witness={"smallest": vals[-1]})


def check_lemma42(g: Graph, tol: float = EQUALITY_TOL) -> BoundVerdict:
    """Second dl eigenvalue >= n (n >= 4), equality iff K_n or K_n - e."""
    p = _profile(g)
    n = g.n
    if n < 4:
        return not_applicable("L4.2", witness={"n": n})
    obs = p.dl_spectrum.values[1]
    eq = abs(obs - n) <= tol
    structural = n * (n - 1) // 2 - g.m <= 1
    return BoundVerdict("L4.2", float(n), obs,
                        holds=obs >= n - SLACK and eq == structural,
                        strict=obs - n > SLACK,
                        equality=eq,
                        witness={"is_Kn_or_Kn_minus_e": structural})


CHECKS = {
    "L3.1": bound_L1_lemma31,
    "T3.1": bound_L1_theorem31,
    "T3.2": bound_L1_theorem32,
    "T4.1": bound_L1_theorem41,
    "T4.2": bound_L1_theorem42,
    "T5.1": bound_L1_clique_lower,
    "T5.2": bound_L1_clique_upper,
    "T6.1": bound_Q1_diameter,
    "T6.2": bound_gap_theorem62,
    "T6.3": bound_Qn_theorem63,
    "C6.1": bound_Qn_corollary61,
    "T6.4": bound_Qn_theorem64,
    "T7.1": bound_Q1_unicyclic,
    "L4.1": check_lemma41,
    "L4.2": check_lemma42,
}
