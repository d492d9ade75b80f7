import math
import tracemalloc

import numpy as np
import pytest

from distlap import (
    FamilySpec,
    InvalidParams,
    UnsupportedOrder,
    UnsupportedQuantity,
    build,
    canonical_form,
    clique_number,
    closed_form,
    dist_laplacian,
    dist_signless_laplacian,
    dl_charpoly_multipartite,
    eigenvalues,
    enumerate_connected,
    is_isomorphic,
    order_groups,
    parse_family,
    star_q_extremes,
    turan_parts,
)
from distlap.families import CLOSED_FORMS, FAMILIES

from helpers import fam


def test_basic_builders():
    assert fam("Path", 4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert fam("Cycle", 5).m == 5
    assert fam("Complete", 5).m == 10
    g = fam("Star", 5)
    assert g.degree(0) == 4 and g.m == 4
    g = fam("StarPlus", 5)
    assert g.m == 5 and g.has_edge(1, 2)
    g = fam("CompleteMinusMatching", 6, 2)
    assert g.m == 15 - 2 and not g.has_edge(0, 1) and not g.has_edge(2, 3)


def test_builder_param_errors():
    for kind, params in [
        ("Cycle", (2,)),
        ("Star", (1,)),
        ("StarPlus", (2,)),
        ("CompleteMinusMatching", (5, 3)),
        ("CompleteMinusMatching", (2, 1)),  # two isolated vertices
        ("CompleteMultipartite", (4,)),
        ("Turan", (5, 1)),
        ("Turan", (5, 6)),
        ("KiteClique", (4, 5)),
        ("TShape", (1, -1, 2)),
        ("U4", (2, 3)),
        ("U3", (1, 1)),
        ("Path", (0,)),
        ("Turan", (5,)),
    ]:
        with pytest.raises(InvalidParams):
            build(FamilySpec(kind, params))
    # FamilySpec is the one way into a member: it checks the kind itself
    for params in ((3,), ()):
        with pytest.raises(InvalidParams, match="unknown family kind 'Nope'"):
            FamilySpec("Nope", params)


def test_families_read_integer_parameters():
    # any integers are read as Python ints, from a tuple, list or array;
    # a float is refused at construction, not truncated or taken for a
    # wrong parameter count
    for params in ((np.int64(4),), [4], np.array([4])):
        spec = FamilySpec("Path", params)
        assert spec == FamilySpec("Path", (4,)) and hash(spec) == hash(FamilySpec("Path", (4,)))
        assert type(spec.params) is tuple and type(spec.params[0]) is int
        assert build(spec) == fam("Path", 4)
    for bad in (4.7, 4.0, "4"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            FamilySpec("Path", (bad,))
    assert dl_charpoly_multipartite(np.array([2, 3])) == dl_charpoly_multipartite([2, 3])
    with pytest.raises(TypeError):
        dl_charpoly_multipartite([2.7, 3])


# a member of each kind of order about 20,000: an edge list that size
# would take a few MB
LARGE_MEMBERS = {
    "Path": (20_000,), "Cycle": (20_000,), "Complete": (20_000,), "Star": (20_000,),
    "StarPlus": (20_000,), "CompleteMinusMatching": (20_000, 10_000),
    "CompleteMultipartite": (19_999, 1), "Turan": (20_000, 3), "KiteClique": (20_000, 4),
    "Kite3": (20_000,), "TShape": (1, 2, 20_000), "TStar": (20_000,), "U4": (20_000, 2),
    "U3": (20_000, 2),
}


def test_over_order_members_cost_no_edge_list():
    # every builder's edge set is lazy and the order is checked before an
    # edge is read, so a large member is refused, and a closed form
    # evaluated, in constant memory
    assert set(LARGE_MEMBERS) == set(FAMILIES)
    tracemalloc.start()
    try:
        for kind, params in LARGE_MEMBERS.items():
            tracemalloc.reset_peak()
            with pytest.raises(UnsupportedOrder):
                build(FamilySpec(kind, params))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20, kind
        tracemalloc.reset_peak()
        assert closed_form(FamilySpec("Cycle", (10**5,)), "QRadius") == 5e9
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_turan_builds_no_part_list():
    # omega = n = 10^6: a tuple of the part sizes alone would take 8 MB
    spec = FamilySpec("Turan", (10**6, 10**6))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedOrder):
            build(spec)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        tracemalloc.reset_peak()
        assert closed_form(spec, "DLRadius") == 1e6
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_multipartite_and_turan():
    g = fam("CompleteMultipartite", 2, 2, 2)
    assert g.n == 6 and g.m == 12
    assert turan_parts(6, 3) == (2, 2, 2)
    assert turan_parts(10, 3) == (4, 3, 3)
    # numpy integers give Python ints; a float is refused
    assert all(type(p) is int for p in turan_parts(np.int64(10), np.uint8(3)))
    with pytest.raises(TypeError):
        turan_parts(10.0, 3)
    assert is_isomorphic(fam("Turan", 6, 3), g)
    assert clique_number(fam("Turan", 7, 3)) == 3
    # omega = n collapses to the complete graph
    assert is_isomorphic(fam("Turan", 5, 5), fam("Complete", 5))
    # the labelled multipartite graph of turan_parts, larger parts first
    for n in range(2, 31):
        for omega in range(2, n + 1):
            assert fam("Turan", n, omega) == fam("CompleteMultipartite", *turan_parts(n, omega))


def test_turan_edge_maximality():
    # no connected 6-vertex graph with clique number <= 3 has more edges
    best = fam("Turan", 6, 3).m
    for g in enumerate_connected(6):
        if clique_number(g) <= 3:
            assert g.m <= best


def test_kite_and_tstar():
    g = fam("KiteClique", 7, 4)
    assert g.n == 7 and clique_number(g) == 4
    # Kite3 with the path absorbed: n = 4 is the star plus one edge
    assert is_isomorphic(fam("Kite3", 4), fam("StarPlus", 4))
    assert is_isomorphic(fam("Kite3", 3), fam("Complete", 3))
    t = fam("TStar", 7)
    assert is_isomorphic(t, fam("TShape", 2, 2, 2))
    assert is_isomorphic(fam("TStar", 9), fam("TShape", 2, 2, 4))
    assert is_isomorphic(fam("TStar", 6), fam("TShape", 2, 2, 1))
    with pytest.raises(InvalidParams):
        fam("TStar", 5)


def test_tshape_structure():
    g = fam("TShape", 2, 2, 5)
    assert g.n == 10 and g.m == 9
    assert g.degree(0) == 3
    assert order_groups([g])[0].diam.tolist() == [7]
    # a zero-length leg degenerates to a path
    assert is_isomorphic(fam("TShape", 0, 1, 2), fam("Path", 4))


def test_u4_u3_structure():
    g = fam("U4", 4, 3)
    assert g.n == 9 and g.m == 9  # unicyclic
    assert canonical_form(g) != canonical_form(fam("U3", 4, 3))
    h = fam("U3", 4, 3)
    assert h.n == 9 and h.m == 9
    assert clique_number(h) == 3 and clique_number(g) == 2
    assert fam("U4", 2, 2).n == 6


def test_parse_family_strings():
    s = parse_family("kite:10")
    assert s.kind == "Kite3" and s.params == (10,)
    assert parse_family("turan:10,3").params == (10, 3)
    assert parse_family("t:2,2,5").kind == "TShape"
    assert parse_family("u4:4,3").kind == "U4"
    assert parse_family("STAR:6").kind == "Star"
    with pytest.raises(InvalidParams):
        parse_family("widget:3")
    with pytest.raises(InvalidParams):
        parse_family("path:x")


def test_multipartite_charpoly():
    assert dl_charpoly_multipartite((3, 2)) == [(8, 2), (7, 1), (5, 1), (0, 1)]
    assert dl_charpoly_multipartite((1, 1)) == [(2, 1), (0, 1)]
    assert dl_charpoly_multipartite((2, 2, 2)) == [(8, 3), (6, 2), (0, 1)]
    with pytest.raises(InvalidParams):
        dl_charpoly_multipartite((3,))
    with pytest.raises(InvalidParams):
        dl_charpoly_multipartite((3, 0))


def test_multipartite_charpoly_matches_spectrum():
    for parts in [(3, 2), (2, 2, 2), (4, 1), (3, 3, 1), (2, 1, 1)]:
        g = fam("CompleteMultipartite", *parts)
        spec = eigenvalues(dist_laplacian(g))
        expect = [float(r) for r, m in dl_charpoly_multipartite(parts) for _ in range(m)]
        assert len(expect) == g.n
        assert max(abs(a - b) for a, b in zip(spec, expect)) < 1e-8


def test_closed_form_examples():
    assert closed_form(FamilySpec("Cycle", (7,)), "QRadius") == 24.0
    # the star plus an edge at n = 3 is K_3, Q radius 2n - 2 = 4; its cubic
    # (x - 1)^2 (x - 4) has a double root, and the arccos argument is 1
    assert closed_form(FamilySpec("StarPlus", (3,)), "QRadius") == 4.0
    assert closed_form(FamilySpec("Complete", (6,)), "DLRadius") == 6.0
    # the star S_2 is K_2: spectrum {2, 0}, no 2n-1 = 3
    assert closed_form(FamilySpec("Star", (2,)), "DLRadius") == 2.0
    assert closed_form(FamilySpec("CompleteMinusMatching", (8, 3)), "DLRadius") == 10.0
    assert closed_form(FamilySpec("Turan", (10, 3)), "DLRadius") == 14.0
    assert closed_form(FamilySpec("Turan", (5, 5)), "DLRadius") == 5.0
    assert closed_form(FamilySpec("Kite3", (7,)), "Wiener") == 52.0
    v = closed_form(FamilySpec("Star", (4,)), "QMinEig")
    assert abs(v - (12.0 - math.sqrt(48.0)) / 2.0) < 1e-12
    # at n = 3 the smallest eigenvalue is the middle value 2n-5, not the
    # minus root of the quadratic factor
    assert closed_form(FamilySpec("Star", (3,)), "QMinEig") == 1.0
    with pytest.raises(UnsupportedQuantity):
        closed_form(FamilySpec("Path", (5,)), "QRadius")
    with pytest.raises(UnsupportedQuantity):
        closed_form(FamilySpec("Cycle", (5,)), "Volume")
    # the builder's checks run first, so what build rejects is rejected here
    for kind, params, quantity in [
        ("Turan", (5,), "DLRadius"),
        ("Complete", (), "DLRadius"),
        ("Complete", (0,), "DLRadius"),
        ("Cycle", (3, 4), "QRadius"),
        ("Star", (2, 5), "DLRadius"),
    ]:
        with pytest.raises(InvalidParams):
            closed_form(FamilySpec(kind, params), quantity)
    # build stops at order 64; the formulas need no graph
    assert closed_form(FamilySpec("Complete", (100,)), "DLRadius") == 100.0
    assert closed_form(FamilySpec("Cycle", (101,)), "QRadius") == 5100.0


# what each quantity is, computed from the built graph
OBSERVED = {
    "DLRadius": lambda g: eigenvalues(dist_laplacian(g))[0],
    "QRadius": lambda g: eigenvalues(dist_signless_laplacian(g))[0],
    "QMinEig": lambda g: eigenvalues(dist_signless_laplacian(g))[-1],
    # the stated kite formula sits one above the summed distances (README)
    "Wiener": lambda g: order_groups([g])[0].wiener[0] + 1,
}

# parameter tuples of every arity the families take, valid or not
PARAM_GRID = ([(), (0,)] + [(n,) for n in range(1, 13)]
              + [(a, b) for a in range(0, 13) for b in range(0, 7)]
              + [(a, b, c) for a in range(1, 4) for b in range(1, 4) for c in range(0, 4)])


def test_closed_forms_match_eigensolver():
    for kind, quantity in CLOSED_FORMS:
        compared = 0
        for params in PARAM_GRID:
            spec = FamilySpec(kind, params)
            try:
                g = build(spec)
            except InvalidParams:
                # closed_form rejects exactly what build rejects
                with pytest.raises(InvalidParams):
                    closed_form(spec, quantity)
                continue
            want = closed_form(spec, quantity)
            got = OBSERVED[quantity](g)
            assert abs(want - got) < 1e-9, (kind, params, quantity)
            compared += 1
        assert compared >= 10, (kind, quantity)


def test_star_q_structure():
    for n in range(3, 15):
        spec = eigenvalues(dist_signless_laplacian(fam("Star", n)))
        plus, minus = star_q_extremes(n)
        assert abs(spec[0] - plus) < 1e-7
        assert any(abs(v - minus) < 1e-7 for v in spec)
        middle = [v for v in spec if abs(v - (2 * n - 5)) < 1e-6]
        assert len(middle) == n - 2
        assert abs(spec[-1] - closed_form(FamilySpec("Star", (n,)), "QMinEig")) < 1e-7
    # trace identity: 2 (n-1)^2
    spec = eigenvalues(dist_signless_laplacian(fam("Star", 9)))
    assert abs(sum(spec) - 2 * 64) < 1e-8


def test_kite_wiener_note():
    # the stated formula sits exactly one above the summed distances for
    # every order; both facts are pinned here
    for n in range(3, 11):
        w = int(order_groups([fam("Kite3", n)])[0].wiener[0])
        assert closed_form(FamilySpec("Kite3", (n,)), "Wiener") == w + 1
