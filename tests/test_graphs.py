import itertools
import random

import pytest

from distlap import (
    CONNECTED_COUNTS,
    DisconnectedGraph,
    Graph,
    MalformedGraph6,
    UnsupportedOrder,
    canonical_form,
    complement,
    distance_data,
    enumerate_connected,
    from_edges,
    from_graph6,
    is_connected,
    is_isomorphic,
    to_graph6,
)


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
    dd = distance_data(path(4))
    assert dd.dist[0] == (0, 1, 2, 3)
    assert dd.trans == (6, 4, 4, 6)
    assert dd.wiener == 10
    assert dd.diam == 3
    dd = distance_data(cycle(4))
    assert dd.dist[0] == (0, 1, 2, 1)
    assert dd.wiener == 8
    assert dd.diam == 2
    dd = distance_data(complete(1))
    assert dd.wiener == 0 and dd.diam == 0
    # order 64: the deepest and the shallowest distance recursion
    dd = distance_data(path(64))
    assert dd.diam == 63 and dd.dist[0] == tuple(range(64))
    assert dd.wiener == 63 * 64 * 65 // 6
    assert distance_data(cycle(64)).diam == 32
    assert distance_data(complete(64)).wiener == 64 * 63 // 2
    with pytest.raises(DisconnectedGraph):
        distance_data(from_edges(4, [(0, 1), (2, 3)]))


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
    # explicit limit override still produces a valid key
    key = canonical_form(path(11), limit=11)
    assert from_graph6(key).n == 11 and from_graph6(key).m == 10


def test_is_isomorphic():
    assert is_isomorphic(path(4), from_edges(4, [(2, 0), (0, 3), (3, 1)]))
    assert not is_isomorphic(path(4), star(4))
    assert not is_isomorphic(path(4), path(5))
    assert not is_isomorphic(cycle(5), path(5))
    assert is_isomorphic(cycle(3), complete(3))
