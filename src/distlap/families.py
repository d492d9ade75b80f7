"""Named graph families and the closed-form spectral values known for them.

Vertex 0 is always placed on the distinguished vertex of the family (clique
to path junction, branch vertex, cycle vertex carrying the longer path) so
snapshots and cross-module comparisons are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, UnsupportedQuantity
from .graphs import Graph, from_edges, pendant_path
from .linalg import largest_root

KINDS = (
    "Path", "Cycle", "Complete", "Star", "StarPlus", "CompleteMinusMatching",
    "CompleteMultipartite", "Turan", "KiteClique", "Kite3", "TShape", "TStar",
    "U4", "U3",
)

QUANTITIES = ("DLRadius", "QRadius", "QMinEig", "Wiener")

# CLI short names
_CLI_KINDS = {
    "path": "Path", "cycle": "Cycle", "complete": "Complete", "star": "Star",
    "starplus": "StarPlus", "kminus": "CompleteMinusMatching",
    "multipartite": "CompleteMultipartite", "turan": "Turan",
    "kiteclique": "KiteClique", "kite": "Kite3", "t": "TShape",
    "tstar": "TStar", "u4": "U4", "u3": "U3",
}


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


def _path(n: int) -> Graph:
    _need(n >= 1, "path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    _need(n >= 3, "cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    _need(n >= 1, "complete graph needs n >= 1")
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _star(n: int) -> Graph:
    _need(n >= 2, "star needs n >= 2")
    return from_edges(n, [(0, i) for i in range(1, n)])


def _star_plus(n: int) -> Graph:
    # star with one extra edge between two leaves; triangle is {0,1,2}
    _need(n >= 3, "star plus edge needs n >= 3")
    return from_edges(n, [(0, i) for i in range(1, n)] + [(1, 2)])


def _complete_minus_matching(n: int, k: int) -> Graph:
    _need(n >= 2 and 1 <= k <= n // 2, "need 1 <= k <= n/2")
    removed = {(2 * i, 2 * i + 1) for i in range(k)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in removed]
    return from_edges(n, edges)


def _complete_multipartite(parts: tuple[int, ...]) -> Graph:
    _need(len(parts) >= 2 and all(p >= 1 for p in parts),
          "need at least two parts, all nonempty")
    n = sum(parts)
    label = []
    for idx, p in enumerate(parts):
        label.extend([idx] * p)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if label[i] != label[j]]
    return from_edges(n, edges)


def turan_parts(n: int, omega: int) -> tuple[int, ...]:
    """Balanced part sizes, larger parts first."""
    _need(2 <= omega <= n, "need 2 <= omega <= n")
    q, r = divmod(n, omega)
    return tuple([q + 1] * r + [q] * (omega - r))


def _kite_clique(n: int, omega: int) -> Graph:
    # clique on {0..omega-1} with the path hung off vertex 0
    _need(2 <= omega <= n, "need 2 <= omega <= n")
    edges = [(i, j) for i in range(omega) for j in range(i + 1, omega)]
    return from_edges(n, edges + pendant_path(0, omega, n - omega))


def _t_shape(n1: int, n2: int, n3: int) -> Graph:
    # branch vertex 0 with three pendant paths of n1, n2, n3 vertices
    _need(n1 >= 0 and n2 >= 0 and n3 >= 0, "leg lengths must be nonnegative")
    edges = []
    nxt = 1
    for leg in (n1, n2, n3):
        edges += pendant_path(0, nxt, leg)
        nxt += leg
    return from_edges(nxt, edges)


def _u_graph(n1: int, n2: int, chord: tuple[int, int]) -> Graph:
    """Vertices v1=0, w1=1, u1=2, w2=3 on the path v1 w1 u1 w2 closed by
    chord, with a path of n1-1 extra vertices at v1 and a path of n2-1
    extra vertices at u1; order n1+n2+2. The chord v1w2 (0, 3) gives U4, a
    C4; the chord w1w2 (1, 3) gives U3, the triangle {w1, u1, w2}
    carrying the v-path at w1 and the u-path at u1."""
    _need(n1 >= n2 >= 2, "need n1 >= n2 >= 2")
    edges = [(0, 1), (1, 2), (2, 3), chord]
    edges += pendant_path(0, 4, n1 - 1) + pendant_path(2, 3 + n1, n2 - 1)
    return from_edges(n1 + n2 + 2, edges)


def build(spec: FamilySpec) -> Graph:
    kind, p = spec.kind, spec.params
    try:
        if kind == "Path":
            return _path(*p)
        if kind == "Cycle":
            return _cycle(*p)
        if kind == "Complete":
            return _complete(*p)
        if kind == "Star":
            return _star(*p)
        if kind == "StarPlus":
            return _star_plus(*p)
        if kind == "CompleteMinusMatching":
            return _complete_minus_matching(*p)
        if kind == "CompleteMultipartite":
            return _complete_multipartite(p)
        if kind == "Turan":
            _need(len(p) == 2, "Turan takes n, omega")
            return _complete_multipartite(turan_parts(*p))
        if kind == "KiteClique":
            return _kite_clique(*p)
        if kind == "Kite3":
            _need(len(p) == 1 and p[0] >= 3, "kite needs n >= 3")
            return _kite_clique(p[0], 3)
        if kind == "TShape":
            return _t_shape(*p)
        if kind == "TStar":
            _need(len(p) == 1 and p[0] >= 6, "T* needs n >= 6")
            return _t_shape(2, 2, p[0] - 5)
        if kind == "U4":
            return _u_graph(*p, chord=(0, 3))
        if kind == "U3":
            return _u_graph(*p, chord=(1, 3))
    except TypeError as exc:
        raise InvalidParams(f"wrong parameter count for {kind}: {p}") from exc
    raise InvalidParams(f"unknown family kind {kind!r}")


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


def _snplus_cubic(n: int) -> list[float]:
    return [1.0, -(7.0 * n - 15.0), 14.0 * n * n - 63.0 * n + 72.0,
            -(8.0 * n ** 3 - 52.0 * n * n + 108.0 * n - 68.0)]


def star_q_extremes(n: int) -> tuple[float, float]:
    """The two star eigenvalues (5n-8 +- sqrt(9n^2-32n+32))/2 of the distance
    signless Laplacian. The plus root is always the radius; the minus root is
    the smallest eigenvalue for n >= 4, but at n = 3 it sits above the middle
    value 2n-5 = 1 (full spectrum {plus, (2n-5)^(n-2), minus})."""
    disc = math.sqrt(9.0 * n * n - 32.0 * n + 32.0)
    return (5.0 * n - 8.0 + disc) / 2.0, (5.0 * n - 8.0 - disc) / 2.0


def closed_form(spec: FamilySpec, quantity: str) -> float:
    """Closed-form spectral value for the family, when one is known.

    Raises UnsupportedQuantity for pairs with no stated formula."""
    kind, p = spec.kind, spec.params
    if quantity not in QUANTITIES:
        raise UnsupportedQuantity(f"unknown quantity {quantity!r}")

    if quantity == "DLRadius":
        if kind == "Complete":
            # spectrum {n^(n-1), 0}; at n = 1 only the 0 remains
            return float(p[0]) if p[0] >= 2 else 0.0
        if kind == "CompleteMinusMatching":
            _need(len(p) == 2 and p[0] >= 2 and 1 <= p[1] <= p[0] // 2, f"bad params {p}")
            return float(p[0] + 2)
        if kind == "Turan":
            n, omega = p
            _need(2 <= omega <= n, f"bad params {p}")
            if omega == n:
                # T_{n,n} = K_n where the ceiling formula overshoots; the
                # true radius is n
                return float(n)
            return float(n + math.ceil(n / omega))
        if kind == "CompleteMultipartite":
            roots = dl_charpoly_multipartite(p)
            return float(roots[0][0])
        if kind == "Star":
            _need(p[0] >= 2, "star needs n >= 2")
            return float(2 * p[0] - 1)
    elif quantity == "QRadius":
        if kind == "Complete":
            _need(p[0] >= 1, "needs n >= 1")
            return float(2 * p[0] - 2) if p[0] >= 2 else 0.0
        if kind == "Cycle":
            n = p[0]
            _need(n >= 3, "cycle needs n >= 3")
            return n * n / 2.0 if n % 2 == 0 else (n * n - 1) / 2.0
        if kind == "StarPlus":
            n = p[0]
            _need(n >= 3, "star plus edge needs n >= 3")
            return largest_root(_snplus_cubic(n), (0.0, 4.0 * n * n))
        if kind == "Star":
            _need(p[0] >= 2, "star needs n >= 2")
            return star_q_extremes(p[0])[0]
    elif quantity == "QMinEig":
        if kind == "Star":
            _need(p[0] >= 2, "star needs n >= 2")
            minus = star_q_extremes(p[0])[1]
            # the middle eigenvalue 2n-5 dips below the minus root at n = 3
            return min(minus, 2.0 * p[0] - 5.0) if p[0] >= 3 else minus
    elif quantity == "Wiener":
        if kind == "Kite3":
            n = p[0]
            _need(n >= 3, "kite needs n >= 3")
            # the stated kite formula; note it sits one above the summed
            # distances of the generated graph for every n (see README)
            return n * (n - 1) * (n - 2) / 6.0 + (n - 1) * (n - 2) / 2.0 + 2.0
    raise UnsupportedQuantity(f"no closed form for {kind}/{quantity}")
