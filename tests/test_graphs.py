import itertools
import random
import tracemalloc

import numpy as np
import pytest

from distlap import (
    CONNECTED_COUNTS,
    DimensionMismatch,
    DisconnectedGraph,
    Graph,
    MalformedGraph6,
    UnsupportedOrder,
    canonical_form,
    complement,
    enumerate_connected,
    from_edges,
    from_graph6,
    is_connected,
    is_isomorphic,
    order_groups,
    radii,
    to_graph6,
)
from distlap.graphs import _orbit_minima, adjacency_stack, distances


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return from_edges(n, [(0, i) for i in range(1, n)])


def test_graph_validation():
    with pytest.raises(UnsupportedOrder):
        Graph(0, ())
    with pytest.raises(UnsupportedOrder):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (0,))
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    # dense rows: either side of the pair may lack the bit
    k4 = (0b1110, 0b1101, 0b1011, 0b0111)
    for row, bit in ((0, 0b0010), (1, 0b0001)):
        rows = list(k4)
        rows[row] &= ~bit
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(0,1\)"):
            Graph(4, tuple(rows))
    with pytest.raises(ValueError):
        Graph(2, (1 | 2, 1))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # bit beyond range


def walk_validation(n, adj) -> int:
    """Reference: the per-bit walk that validated Graph rows before the
    word-level check; raises the same errors, or returns the edge count."""
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {i} has bits beyond vertex range")
        if (row >> i) & 1:
            raise ValueError(f"loop at vertex {i}")
    for i, row in enumerate(adj):
        while row:
            j = (row & -row).bit_length() - 1
            if not (adj[j] >> i) & 1:
                raise ValueError(f"asymmetric adjacency at "
                                 f"({min(i, j)},{max(i, j)})")
            row &= row - 1
    return sum(row.bit_count() for row in adj) // 2


def outcome(fn, *args):
    """("ok", value) of a call, or the type and message of its exception."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_rows(rng, n, p):
    rows = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def validation_cases(n, rng):
    """Adjacency rows of order n: valid ones and every kind of fault."""
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        yield random_rows(rng, n, p)
    base = random_rows(rng, n, 0.5)
    pairs = {(0, n - 1), (max(n - 2, 0), n - 1)}
    pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)} if n > 1 else set()
    for i, j in pairs:
        for row, bit in ((i, j), (j, i)):  # one side of the pair flipped
            rows = list(base)
            rows[row] ^= 1 << bit
            yield rows
    for v in (0, n - 1):
        rows = list(base)
        rows[v] |= 1 << v
        yield rows
    if n < 64:
        for v in (0, n - 1):
            rows = list(base)
            rows[v] |= 1 << n
            yield rows
    for bad in (-1, -(1 << n), -2, 1.0, "1", None, 2 ** 64):
        rows = list(base)
        rows[-1] = bad
        yield rows
    yield [bool(row & 1) for row in base]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 32, 33, 63, 64])
def test_graph_validation_matches_walk(n):
    # the word-level check accepts, rejects and counts exactly as the walk
    # did: same exception type, same message, same m
    rng = random.Random(n)
    seen = set()
    for rows in validation_cases(n, rng):
        want = outcome(walk_validation, n, tuple(rows))
        assert outcome(lambda: Graph(n, tuple(rows)).m) == want
        seen.add(want[0])
    assert {"ok", ValueError, TypeError} <= seen


def test_adjacency_stack_needs_one_order():
    with pytest.raises(DimensionMismatch):
        adjacency_stack([])
    with pytest.raises(DimensionMismatch):
        adjacency_stack([path(3), path(4)])
    for graphs in ([], [path(3), cycle(4)]):
        for sign in (-1, 1):
            with pytest.raises(DimensionMismatch):
                radii(graphs, sign)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.has_edge(1, 0) and g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert [g.degree(i) for i in range(3)] == [1, 2, 1]
    assert g.edges() == [(0, 1), (1, 2)]


def test_graph6_known_strings():
    assert to_graph6(complete(1)) == "@"
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(path(3)) == "Bg"
    assert from_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]
    assert from_graph6("Bg").edges() == [(0, 1), (1, 2)]
    assert from_graph6(">>graph6<<Bw").edges() == complete(3).edges()
    assert from_graph6(b"Bw\n").edges() == complete(3).edges()


def test_graph6_roundtrip_corpus(corpus):
    for n, graphs in corpus.items():
        for g in graphs:
            s = to_graph6(g)
            h = from_graph6(s)
            assert h.n == g.n and h.adj == g.adj
            assert to_graph6(h) == s


def test_graph6_long_form():
    # orders 63 and 64 need the 126-prefixed header
    for n in (63, 64):
        g = path(n)
        s = to_graph6(g)
        assert s[0] == chr(126)
        h = from_graph6(s)
        assert h.adj == g.adj
    g = cycle(64)
    assert from_graph6(to_graph6(g)).adj == g.adj


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6):
        from_graph6("")
    with pytest.raises(MalformedGraph6):
        from_graph6("B")  # truncated body
    with pytest.raises(MalformedGraph6):
        from_graph6("Bww")  # excess body
    with pytest.raises(MalformedGraph6):
        from_graph6("B\x1f")  # byte below printable range
    with pytest.raises(MalformedGraph6):
        from_graph6("~B")  # truncated long-form order
    with pytest.raises(UnsupportedOrder):
        from_graph6("?")  # order zero
    with pytest.raises(UnsupportedOrder):
        from_graph6("~~????")  # 36-bit order form
    # order 65 is syntactically fine but over the cap
    with pytest.raises(UnsupportedOrder):
        from_graph6("~?@@")


def test_distance_data_examples():
    small = order_groups([path(4), cycle(4)])[0]
    assert small.dist[:, 0].tolist() == [[0, 1, 2, 3], [0, 1, 2, 1]]
    assert small.trans[0].tolist() == [6, 4, 4, 6]
    assert small.wiener.tolist() == [10, 8]
    assert small.diam.tolist() == [3, 2]
    single = order_groups([complete(1)])[0]
    assert single.wiener.tolist() == [0] and single.diam.tolist() == [0]
    # order 64: the deepest and the shallowest distance recursion
    big = order_groups([path(64), cycle(64), complete(64)])[0]
    assert big.diam.tolist() == [63, 32, 1]
    assert big.dist[0, 0].tolist() == list(range(64))
    assert big.wiener[[0, 2]].tolist() == [63 * 64 * 65 // 6, 64 * 63 // 2]
    with pytest.raises(DisconnectedGraph):
        distances(adjacency_stack([from_edges(4, [(0, 1), (2, 3)])]))


def test_distances_paths_at_every_order():
    # P_n has the largest diameter of its order: the recursion stops at its
    # depth bound, which it needs in full whenever n - 1 is not a power of
    # two; P_{n-1} plus an isolated vertex never completes and must raise
    for n in range(1, 65):
        dist = distances(adjacency_stack([path(n)]))
        assert dist.dtype == np.int16
        assert dist[0].tolist() == [[abs(i - j) for j in range(n)] for i in range(n)]
        if n >= 2:
            cut = from_edges(n, [(i, i + 1) for i in range(n - 2)])
            with pytest.raises(DisconnectedGraph):
                distances(adjacency_stack([path(n), cut]))


def test_is_connected():
    assert is_connected(complete(1))
    assert is_connected(path(5))
    assert not is_connected(from_edges(3, [(0, 1)]))
    assert not is_connected(from_edges(2, []))


def test_complement():
    g = complement(path(4))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert complement(complete(4)).m == 0
    h = complement(complement(path(5)))
    assert h.adj == path(5).adj


def test_census_counts(corpus):
    for n, graphs in corpus.items():
        assert len(graphs) == CONNECTED_COUNTS[n]
        # representatives are pairwise non-isomorphic
        keys = {canonical_form(g) for g in graphs}
        assert len(keys) == CONNECTED_COUNTS[n]
    assert sum(1 for _ in enumerate_connected(7)) == CONNECTED_COUNTS[7]


def test_enumeration_against_bruteforce():
    # independent check at n = 5: dedup all labeled connected graphs by
    # canonical form and compare the class sets
    n = 5
    pairs = [(i, j) for j in range(n) for i in range(j)]
    seen = set()
    for mask in range(1 << len(pairs)):
        g = from_edges(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
        if is_connected(g):
            seen.add(canonical_form(g))
    reps = {canonical_form(g) for g in enumerate_connected(n)}
    assert seen == reps


def test_orbit_minima_against_relabelling():
    # class counts of all graphs on n vertices (OEIS A000088), and for
    # n <= 5 the class minima against the minimum over all n! relabellings
    # of every mask; n = 4 and 5 have classes with exactly half the edges,
    # which the sweep reaches without the complement step
    assert [len(_orbit_minima(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    for n in range(1, 6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        images = [[1 << pairs.index(tuple(sorted((p[i], p[j])))) for i, j in pairs]
                  for p in itertools.permutations(range(n))]
        want = {min(sum(bit for k, bit in enumerate(image) if (mask >> k) & 1)
                    for image in images)
                for mask in range(1 << len(pairs))}
        assert _orbit_minima(n).tolist() == sorted(want)


def test_orbit_minima_memory_bounded():
    # n = 7: the 2 MB bitmap of the 2^21 masks, which first holds their
    # bit counts, and the 423 KB table of the 21 edges' images under the
    # 5,040 permutations
    tracemalloc.start()
    try:
        _orbit_minima(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_enumerate_limits():
    with pytest.raises(UnsupportedOrder):
        list(enumerate_connected(0))
    with pytest.raises(UnsupportedOrder):
        list(enumerate_connected(8))


def test_canonical_form_relabel_invariance(corpus):
    rng = random.Random(411)
    for g in rng.sample(corpus[6], 25):
        key = canonical_form(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])
        assert canonical_form(h) == key


def test_canonical_form_limit():
    assert isinstance(canonical_form(path(10)), str)
    with pytest.raises(UnsupportedOrder):
        canonical_form(path(11))


def test_is_isomorphic():
    assert is_isomorphic(path(4), from_edges(4, [(2, 0), (0, 3), (3, 1)]))
    assert not is_isomorphic(path(4), star(4))
    assert not is_isomorphic(path(4), path(5))
    assert not is_isomorphic(cycle(5), path(5))
    assert is_isomorphic(cycle(3), complete(3))
