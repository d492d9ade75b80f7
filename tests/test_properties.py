"""Property tests: the stacked distance kernel against a reference BFS, pair
radii against per-graph solves, the graph6 round trip, scan verdicts
against per-graph checks, and two spectral invariances: relabelling keeps
the L and Q spectra, and a connected edge deletion never lowers a radius."""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distlap import (EQUALITY_TOL, MAX_ORDER, SCAN_IDS, BoundVerdict,
                     DisconnectedGraph, Graph, delete_edge, dist_laplacian,
                     dist_signless_laplacian, eigenvalues, from_edges,
                     from_graph6, is_connected, order_groups, radii,
                     scan_reports, to_graph6)
from distlap.families import FamilySpec, build
from distlap.graphs import adjacency_stack, distances
from distlap.bounds import CHECKS, FORMULAS

from helpers import complete, cycle, path


def union(a: Graph, b: Graph) -> Graph:
    """Disjoint union, b's vertices numbered after a's."""
    return Graph(a.n + b.n, a.adj + tuple(row << a.n for row in b.adj))


def bfs_distances(g: Graph) -> list[list[int]]:
    """Reference all-pairs distances, one plain BFS per source; -1 marks an
    unreachable pair."""
    nbrs = [[v for v in range(g.n) if g.has_edge(u, v)] for u in range(g.n)]
    rows = []
    for src in range(g.n):
        row = [-1] * g.n
        row[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if row[v] < 0:
                        row[v] = row[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(row)
    return rows


@st.composite
def connected_graphs(draw, n):
    """A random spanning tree on n vertices plus up to 2n random edges."""
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    return from_edges(n, [(i, j) for i, j in pairs if i != j])


@st.composite
def same_order_stacks(draw, max_n=MAX_ORDER):
    """One to four connected graphs sharing one order n <= max_n."""
    n = draw(st.integers(1, max_n))
    return draw(st.lists(connected_graphs(n), min_size=1, max_size=4))


@st.composite
def any_graphs(draw):
    """A uniformly random labeled graph of a random order 1..MAX_ORDER."""
    n = draw(st.integers(1, MAX_ORDER))
    mask = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return from_edges(n, [p for k, p in enumerate(pairs) if (mask >> k) & 1])


@given(same_order_stacks())
@example([path(MAX_ORDER), cycle(MAX_ORDER), complete(MAX_ORDER)])
@example([cycle(63), path(63)])
@example([complete(1)])
@example([complete(2)])
def test_distances_match_bfs(graphs):
    dist = distances(adjacency_stack(graphs))
    assert dist.dtype.name == "int16"
    assert [d.tolist() for d in dist] == [bfs_distances(g) for g in graphs]


@pytest.mark.parametrize("kinds,params,diameters", [
    (("Kite3", "TStar"), (64,), [62, 61]), (("U4", "U3"), (60, 2), [62, 62])])
def test_distances_of_sweep_pairs(kinds, params, diameters):
    # the two-graph stacks that the kite vs T* and the Lemma 7.4 checks
    # solve at order 64
    pair = [build(FamilySpec(kind, params)) for kind in kinds]
    dist = distances(adjacency_stack(pair))
    assert [int(d.max()) for d in dist] == diameters
    assert [d.tolist() for d in dist] == [bfs_distances(g) for g in pair]


@given(st.integers(1, MAX_ORDER - 1).flatmap(
    lambda n1: st.tuples(connected_graphs(n1),
                         st.integers(1, MAX_ORDER - n1).flatmap(connected_graphs))))
@example((path(32), path(32)))
@example((complete(1), complete(1)))
def test_disconnected_raises(parts):
    g = union(*parts)
    with pytest.raises(DisconnectedGraph):
        distances(adjacency_stack([g]))
    with pytest.raises(DisconnectedGraph):
        dist_laplacian(g)
    # one disconnected graph fails the whole stack
    with pytest.raises(DisconnectedGraph):
        distances(adjacency_stack([path(g.n), g]))


@given(same_order_stacks(max_n=40))
@example([path(MAX_ORDER), cycle(MAX_ORDER)])
def test_radii_equal_per_graph_solves(graphs):
    for sign, matrix in ((-1, dist_laplacian), (1, dist_signless_laplacian)):
        assert radii(graphs, sign) == [eigenvalues(matrix(g))[0] for g in graphs]


@given(any_graphs())
@example(complete(62))
@example(complete(63))
@example(path(63))
@example(complete(64))
@example(cycle(64))
def test_graph6_round_trip(g):
    text = to_graph6(g)
    assert text.startswith("~") == (g.n >= 63)
    assert from_graph6(text) == g
    assert from_graph6(text.encode("ascii")) == g


@given(st.lists(st.integers(1, 12).flatmap(connected_graphs), min_size=1, max_size=6))
@example([complete(12), path(1), complete(2), cycle(5), complete(5), path(12)])
def test_scan_verdicts_equal_per_graph_checks(graphs):
    """Alone covers the stacked path: every graph's verdict from a check's
    stacked, mixed-order evaluation (orders up to 12), made by the helper
    that builds a scan's reported verdicts, equals the check's own
    per-graph call, and each report names exactly the applicable
    equalities and failures among them, in corpus order.
    test_per_graph_verdicts_pinned pins the per-graph values themselves."""
    lines = [to_graph6(g) for g in graphs]
    reports = list(scan_reports(SCAN_IDS, lines))
    assert [r.graphs_checked for r in reports] == [len(graphs)] * len(SCAN_IDS)
    groups = order_groups(graphs)
    for tid, r in zip(SCAN_IDS, reports):
        seen = stacked_verdicts(groups, tid)
        assert all(isinstance(v, BoundVerdict) for v in seen)
        assert seen == [CHECKS[tid](g) for g in graphs]
        named = [(g6, v) for g6, v in zip(lines, seen)
                 if v.applicable and (v.equality or not v.holds)]
        assert r.violations == [(g6, v) for g6, v in named if not v.holds]
        assert r.witnesses == [(g6, v) for g6, v in named if v.equality]


def stacked_verdicts(groups, tid, tol=EQUALITY_TOL):
    """tid's verdict on every graph of the order groups, in corpus order: its
    formula once per order group, then Verdicts.verdict for each row, the
    helper that builds the verdicts a scan reports."""
    out = [None] * sum(len(group.graphs) for group in groups)
    for group in groups:
        v = FORMULAS[tid](group, tol)
        for row, k in enumerate(group.ks.tolist()):
            out[k] = v.verdict(row)
    return out


@given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(connected_graphs(n), st.permutations(range(n)))))
@example((path(30), list(range(29, -1, -1))))
def test_spectra_invariant_under_relabelling(case):
    g, perm = case
    h = from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])
    for matrix in (dist_laplacian, dist_signless_laplacian):
        a, b = eigenvalues(matrix(g)), eigenvalues(matrix(h))
        tol = 1e-9 * max(1.0, a[0])
        assert max(abs(x - y) for x, y in zip(a, b)) <= tol


@given(st.integers(2, 20).flatmap(connected_graphs))
@example(cycle(20))
@example(complete(20))
def test_radii_monotone_under_connected_edge_deletion(g):
    kept = [h for h in (delete_edge(g, e) for e in g.edges()) if is_connected(h)]
    for sign in (-1, 1):
        base, *after = radii([g, *kept], sign)
        assert all(r >= base - 1e-9 * base for r in after)
