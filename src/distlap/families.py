"""Named graph families and the closed-form spectral values known for them.

Vertex 0 is always placed on the distinguished vertex of the family (clique
to path junction, branch vertex, cycle vertex carrying the longer path) so
snapshots and cross-module comparisons are reproducible.

FAMILIES declares each kind once, with its CLI name and its builder; a
builder runs the family's only parameter checks and returns (n, edges), every
edge set lazy, so checking costs no edge list and an over-order member is
refused before any edge is read.
CLOSED_FORMS holds the known formulas by (kind, quantity); closed_form runs
the builder's checks first, so it rejects exactly what build rejects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

from .errors import InvalidParams, UnsupportedQuantity
from .graphs import Graph, from_edges, pendant_path


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...]


def family_spec(kind: str, *params: int) -> FamilySpec:
    if kind not in KINDS:
        raise InvalidParams(f"unknown family kind {kind!r}")
    return FamilySpec(kind, tuple(int(p) for p in params))


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family strings like "kite:10", "turan:10,3", "t:2,2,5"."""
    name, _, rest = text.partition(":")
    kind = _CLI_KINDS.get(name.strip().lower())
    if kind is None:
        raise InvalidParams(f"unknown family {name!r}")
    try:
        params = tuple(int(p) for p in rest.split(",")) if rest.strip() else ()
    except ValueError as exc:
        raise InvalidParams(f"bad family parameters in {text!r}") from exc
    return FamilySpec(kind, params)


def _need(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


def _path(n: int):
    _need(n >= 1, "path needs n >= 1")
    return n, pendant_path(0, 1, n - 1)


def _cycle(n: int):
    _need(n >= 3, "cycle needs n >= 3")
    return n, ((i, (i + 1) % n) for i in range(n))


def _complete(n: int):
    _need(n >= 1, "complete graph needs n >= 1")
    return n, ((i, j) for i in range(n) for j in range(i + 1, n))


def _star(n: int):
    _need(n >= 2, "star needs n >= 2")
    return n, ((0, i) for i in range(1, n))


def _star_plus(n: int):
    # star with one extra edge between two leaves; triangle is {0,1,2}
    _need(n >= 3, "star plus edge needs n >= 3")
    return n, chain(_star(n)[1], [(1, 2)])


def _complete_minus_matching(n: int, k: int):
    # K_2 minus its edge would be two isolated vertices
    _need(n >= 3, "complete minus matching needs n >= 3")
    _need(1 <= k <= n // 2, "need 1 <= k <= n/2")
    # drop the matching (0, 1), (2, 3), ..., (2k - 2, 2k - 1)
    return n, ((i, j) for i in range(n) for j in range(i + 1, n)
               if j > i + 1 or i % 2 or i >= 2 * k)


def _join_blocks(n: int, starts):
    # each part is the block of consecutive vertices between successive
    # starts (0 first, n last), joined to every later vertex
    return ((i, j) for a, b in pairwise(starts) for i in range(a, b) for j in range(b, n))


def _complete_multipartite(*parts: int):
    _need(len(parts) >= 2 and all(p >= 1 for p in parts),
          "need at least two parts, all nonempty")
    starts = list(accumulate(parts, initial=0))
    return starts[-1], _join_blocks(starts[-1], starts)


def turan_parts(n: int, omega: int) -> tuple[int, ...]:
    """Balanced part sizes, larger parts first."""
    _need(2 <= omega <= n, "need 2 <= omega <= n")
    q, r = divmod(n, omega)
    return tuple([q + 1] * r + [q] * (omega - r))


def _turan(n: int, omega: int):
    # the blocks of turan_parts(n, omega), whose omega sizes the lazy map
    # lists only once an edge is read, after from_edges has checked the order
    _need(2 <= omega <= n, "need 2 <= omega <= n")
    parts = chain.from_iterable(map(turan_parts, [n], [omega]))
    return n, _join_blocks(n, accumulate(parts, initial=0))


def _kite_clique(n: int, omega: int):
    # clique on {0..omega-1} with the path hung off vertex 0
    _need(2 <= omega <= n, "need 2 <= omega <= n")
    return n, chain(_complete(omega)[1], pendant_path(0, omega, n - omega))


def _kite3(n: int):
    _need(n >= 3, "kite needs n >= 3")
    return _kite_clique(n, 3)


def _t_shape(n1: int, n2: int, n3: int):
    # branch vertex 0 with three pendant paths of n1, n2, n3 vertices
    _need(n1 >= 0 and n2 >= 0 and n3 >= 0, "leg lengths must be nonnegative")
    return 1 + n1 + n2 + n3, chain(pendant_path(0, 1, n1), pendant_path(0, 1 + n1, n2),
                                   pendant_path(0, 1 + n1 + n2, n3))


def _t_star(n: int):
    _need(n >= 6, "T* needs n >= 6")
    return _t_shape(2, 2, n - 5)


def _u_graph(n1: int, n2: int, chord: tuple[int, int]):
    """Vertices v1=0, w1=1, u1=2, w2=3 on the path v1 w1 u1 w2 closed by
    chord, with a path of n1-1 extra vertices at v1 and a path of n2-1
    extra vertices at u1; order n1+n2+2. The chord v1w2 (0, 3) gives U4, a
    C4; the chord w1w2 (1, 3) gives U3, the triangle {w1, u1, w2}
    carrying the v-path at w1 and the u-path at u1."""
    _need(n1 >= n2 >= 2, "need n1 >= n2 >= 2")
    return n1 + n2 + 2, chain([(0, 1), (1, 2), (2, 3), chord], pendant_path(0, 4, n1 - 1),
                              pendant_path(2, 3 + n1, n2 - 1))


# kind -> (CLI name, builder); the one list of family kinds
FAMILIES = {
    "Path": ("path", _path),
    "Cycle": ("cycle", _cycle),
    "Complete": ("complete", _complete),
    "Star": ("star", _star),
    "StarPlus": ("starplus", _star_plus),
    "CompleteMinusMatching": ("kminus", _complete_minus_matching),
    "CompleteMultipartite": ("multipartite", _complete_multipartite),
    "Turan": ("turan", _turan),
    "KiteClique": ("kiteclique", _kite_clique),
    "Kite3": ("kite", _kite3),
    "TShape": ("t", _t_shape),
    "TStar": ("tstar", _t_star),
    "U4": ("u4", lambda n1, n2: _u_graph(n1, n2, (0, 3))),
    "U3": ("u3", lambda n1, n2: _u_graph(n1, n2, (1, 3))),
}

KINDS = tuple(FAMILIES)

_CLI_KINDS = {cli: kind for kind, (cli, _) in FAMILIES.items()}


def _order_edges(spec: FamilySpec):
    """Run the family's builder: its parameter checks, then (n, edges)."""
    kind, p = spec.kind, spec.params
    if kind not in FAMILIES:
        raise InvalidParams(f"unknown family kind {kind!r}")
    try:
        return FAMILIES[kind][1](*p)
    except TypeError as exc:
        raise InvalidParams(f"wrong parameter count for {kind}: {p}") from exc


def build(spec: FamilySpec) -> Graph:
    return from_edges(*_order_edges(spec))


def dl_charpoly_multipartite(parts) -> list[tuple[int, int]]:
    """Distance Laplacian characteristic polynomial of a complete multipartite
    graph, in factored form: (root, multiplicity) pairs sorted by descending
    root, zero multiplicities dropped. Roots are 0 once, n with multiplicity
    k-1, and n+n_i with multiplicity n_i-1 for each part."""
    parts = tuple(int(p) for p in parts)
    _need(len(parts) >= 2 and all(p >= 1 for p in parts),
          "need at least two parts, all nonempty")
    n = sum(parts)
    mult: dict[int, int] = {0: 1}
    mult[n] = mult.get(n, 0) + len(parts) - 1
    for p in parts:
        if p > 1:
            mult[n + p] = mult.get(n + p, 0) + p - 1
    out = [(root, m) for root, m in mult.items() if m > 0]
    out.sort(key=lambda rm: -rm[0])
    return out


def _star_plus_q_radius(n: int) -> float:
    """Largest root of the star-plus-edge dq cubic x^3 + b x^2 + c x + d,
    whose three roots are real: with x = t - b/3 the depressed cubic
    t^3 + p t + q (p < 0) has them at m cos((arccos(3q / (p m)) - 2 pi k) / 3),
    m = 2 sqrt(-p/3), the largest at k = 0. The arccos argument is clamped
    to [-1, 1] against rounding near a double root, where it is +-1 (at
    n = 3 the cubic is (x - 1)^2 (x - 4))."""
    b, c = -(7.0 * n - 15.0), 14.0 * n * n - 63.0 * n + 72.0
    d = -(8.0 * n ** 3 - 52.0 * n * n + 108.0 * n - 68.0)
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    m = 2.0 * math.sqrt(-p / 3.0)
    return m * math.cos(math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0) - b / 3.0


def star_q_extremes(n: int) -> tuple[float, float]:
    """The two star eigenvalues (5n-8 +- sqrt(9n^2-32n+32))/2 of the distance
    signless Laplacian. The plus root is always the radius; the minus root is
    the smallest eigenvalue for n >= 4, but at n = 3 it sits above the middle
    value 2n-5 = 1 (full spectrum {plus, (2n-5)^(n-2), minus})."""
    disc = math.sqrt(9.0 * n * n - 32.0 * n + 32.0)
    return (5.0 * n - 8.0 + disc) / 2.0, (5.0 * n - 8.0 - disc) / 2.0


def _star_q_min(n: int) -> float:
    minus = star_q_extremes(n)[1]
    # the middle eigenvalue 2n-5 dips below the minus root at n = 3
    return min(minus, 2.0 * n - 5.0) if n >= 3 else minus


# (kind, quantity) -> formula over the spec's parameters, which the kind's
# builder has already checked
CLOSED_FORMS = {
    # spectrum {n^(n-1), 0}; at n = 1 only the 0 remains
    ("Complete", "DLRadius"): lambda n: float(n) if n >= 2 else 0.0,
    ("CompleteMinusMatching", "DLRadius"): lambda n, k: float(n + 2),
    # T_{n,n} = K_n where the ceiling formula overshoots; the true radius is n
    ("Turan", "DLRadius"):
        lambda n, omega: float(n) if omega == n else float(n + math.ceil(n / omega)),
    ("CompleteMultipartite", "DLRadius"):
        lambda *parts: float(dl_charpoly_multipartite(parts)[0][0]),
    # spectrum {(2n-1)^(n-2), n, 0}; at n = 2 (K_2) only n and 0 remain
    ("Star", "DLRadius"): lambda n: float(2 * n - 1) if n >= 3 else float(n),
    ("Complete", "QRadius"): lambda n: float(2 * n - 2) if n >= 2 else 0.0,
    ("Cycle", "QRadius"): lambda n: n * n / 2.0 if n % 2 == 0 else (n * n - 1) / 2.0,
    ("StarPlus", "QRadius"): _star_plus_q_radius,
    ("Star", "QRadius"): lambda n: star_q_extremes(n)[0],
    ("Star", "QMinEig"): _star_q_min,
    # the stated kite formula; note it sits one above the summed distances
    # of the generated graph for every n (see README)
    ("Kite3", "Wiener"):
        lambda n: n * (n - 1) * (n - 2) / 6.0 + (n - 1) * (n - 2) / 2.0 + 2.0,
}

QUANTITIES = tuple(dict.fromkeys(q for _, q in CLOSED_FORMS))


def closed_form(spec: FamilySpec, quantity: str) -> float:
    """Closed-form spectral value for the family, when one is known.

    Raises UnsupportedQuantity for pairs with no stated formula, and
    InvalidParams for whatever build rejects (the order may exceed 64)."""
    if quantity not in QUANTITIES:
        raise UnsupportedQuantity(f"unknown quantity {quantity!r}")
    formula = CLOSED_FORMS.get((spec.kind, quantity))
    if formula is None:
        raise UnsupportedQuantity(f"no closed form for {spec.kind}/{quantity}")
    _order_edges(spec)
    return formula(*spec.params)
