"""Graft transformations (pendant path pairs) and edge deletion.

Arm lengths k and l count the vertices appended per arm; the anchors stay in
the base. Moving one vertex from the short arm to the long arm never lowers
the distance Laplacian radius and strictly raises the distance signless
Laplacian radius; the checkers eigensolve both sides of each comparison.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

from .errors import InvalidGraft, NoSuchEdge
from .graphs import (MAX_ORDER, Graph, adjacency_stack, from_edges, is_connected,
                     pendant_path)
from .spectra import distance_spectra
from .verdict import BoundVerdict, flags, not_applicable, verdict

KIND_VERTEX = "TwoPathsAtVertex"
KIND_TWINS = "TwoPathsAtTwins"


@dataclass(frozen=True)
class GraftSpec:
    base: Graph
    kind: str
    anchors: tuple[int, ...]
    k: int
    l: int

    def __post_init__(self):
        # Python ints, checked for their meaning in apply_graft
        object.__setattr__(self, "anchors", tuple(map(operator.index, self.anchors)))
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "l", operator.index(self.l))

    @cached_property
    def _pair_radii(self) -> tuple[tuple[float, float], ...]:
        """(dl, dq) radii of the (k, l) and the (k+1, l-1) graft, from one
        distance_spectra call that the L and the Q check of this spec share;
        equal bit for bit to radii() on the two grafts."""
        if self.l < 2:
            raise InvalidGraft("monotonicity comparison needs k >= l >= 2")
        pair = [apply_graft(self), apply_graft(replace(self, k=self.k + 1, l=self.l - 1))]
        _, rows = distance_spectra(adjacency_stack(pair), (-1, 1))
        return tuple(tuple(r[:, 0].tolist()) for r in rows)


def _validate(spec: GraftSpec):
    base = spec.base
    if spec.kind not in (KIND_VERTEX, KIND_TWINS):
        raise InvalidGraft(f"unknown graft kind {spec.kind!r}")
    # the graft lemmas (T5.3, T5.4, L7.1, L7.2) all assume a connected base
    if not is_connected(base):
        raise InvalidGraft("graft base must be a connected graph")
    want = 1 if spec.kind == KIND_VERTEX else 2
    if len(spec.anchors) != want:
        raise InvalidGraft(f"{spec.kind} takes {want} anchor(s)")
    for a in spec.anchors:
        if not 0 <= a < base.n:
            raise InvalidGraft(f"anchor {a} outside the base vertex range")
    if spec.k < spec.l or spec.l < 0:
        raise InvalidGraft(f"need k >= l >= 0, got k={spec.k} l={spec.l}")
    if base.n + spec.k + spec.l > MAX_ORDER:
        raise InvalidGraft("grafted order exceeds the 64-vertex cap")
    if spec.kind == KIND_TWINS:
        u, v = spec.anchors
        if u == v or not base.has_edge(u, v):
            raise InvalidGraft("twin anchors must be adjacent and distinct")
        if (base.adj[u] & ~(1 << v)) != (base.adj[v] & ~(1 << u)):
            raise InvalidGraft("anchors are not twins (neighborhoods differ)")


def apply_graft(spec: GraftSpec) -> Graph:
    """Attach a pendant path of k vertices at the first anchor and of l
    vertices at the second (same vertex for the one-anchor kind). New
    vertices are numbered after the base, k-arm first."""
    _validate(spec)
    n = spec.base.n
    return from_edges(n + spec.k + spec.l,
                      chain(spec.base.edges(), pendant_path(spec.anchors[0], n, spec.k),
                            pendant_path(spec.anchors[-1], n + spec.k, spec.l)))


def _is_degenerate(spec: GraftSpec) -> bool:
    # A twins graft needs a base vertex besides the twin pair and a vertex
    # graft needs a base vertex besides the anchor; otherwise both grafts of
    # a comparison are the same bare path and no strict claim can survive.
    floor = 2 if spec.kind == KIND_VERTEX else 3
    return spec.base.n < floor


def _witness(spec: GraftSpec, a: float, b: float) -> dict:
    return {"kind": spec.kind, "k": spec.k, "l": spec.l,
            "base_n": spec.base.n, "radius_k_l": a, "radius_k1_l1": b}


def check_graft_monotone_L(spec: GraftSpec) -> BoundVerdict:
    """dl radius of the (k+1, l-1) graft >= that of the (k, l) graft; strict
    when l = 2 and the base is not a bare path seed."""
    a, b = spec._pair_radii[0]
    theorem_id = "T5.4" if spec.kind == KIND_VERTEX else "T5.3"
    if spec.kind == KIND_TWINS and _is_degenerate(spec):
        return not_applicable(theorem_id, bound_value=a, observed=b,
                              witness=_witness(spec, a, b))
    claim = spec.l == 2 and not _is_degenerate(spec)
    holds, strict, equality = flags(b, ">" if claim else ">=", a)
    return BoundVerdict(theorem_id, a, b, holds=holds, strict=claim and strict,
                        equality=equality, witness=_witness(spec, a, b))


def check_graft_monotone_Q(spec: GraftSpec) -> BoundVerdict:
    """dq radius of the (k+1, l-1) graft strictly exceeds that of the (k, l)
    graft."""
    a, b = spec._pair_radii[1]
    theorem_id = "L7.1" if spec.kind == KIND_VERTEX else "L7.2"
    if _is_degenerate(spec):
        return not_applicable(theorem_id, bound_value=a, observed=b,
                              witness=_witness(spec, a, b))
    return verdict(theorem_id, b, ">", a, _witness(spec, a, b))


def delete_edge(g: Graph, e) -> Graph:
    """Remove one edge; the result may be disconnected, callers must check."""
    i, j = map(operator.index, e)
    if not (0 <= i < g.n and 0 <= j < g.n) or i == j or not g.has_edge(i, j):
        raise NoSuchEdge(f"({i},{j}) is not an edge")
    rows = list(g.adj)
    rows[i] &= ~(1 << j)
    rows[j] &= ~(1 << i)
    return Graph(g.n, rows)
