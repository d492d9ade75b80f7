import math

import pytest

from distlap import spectra, transforms
from distlap import (
    GraftSpec,
    InvalidGraft,
    KIND_TWINS,
    KIND_VERTEX,
    NoSuchEdge,
    apply_graft,
    build,
    check_graft_monotone_L,
    check_graft_monotone_Q,
    delete_edge,
    enumerate_connected,
    family_spec,
    from_edges,
    is_connected,
    is_isomorphic,
    radii,
)


def fam(kind, *params):
    return build(family_spec(kind, *params))


def vertex_spec(base, anchor, k, l):
    return GraftSpec(base, KIND_VERTEX, (anchor,), k, l)


def twins_spec(base, u, v, k, l):
    return GraftSpec(base, KIND_TWINS, (u, v), k, l)


def test_apply_graft_examples():
    # pendant vertex on a triangle gives the 4-vertex kite
    g = apply_graft(vertex_spec(fam("Complete", 3), 0, 1, 0))
    assert is_isomorphic(g, fam("Kite3", 4))
    g = apply_graft(vertex_spec(fam("Cycle", 4), 0, 3, 2))
    assert g.n == 9 and g.m == 9  # stays unicyclic
    # base labels are preserved, arms are appended k-arm first
    base = fam("Complete", 3)
    g = apply_graft(twins_spec(base, 0, 1, 2, 1))
    assert g.n == 6
    for i, j in base.edges():
        assert g.has_edge(i, j)
    assert g.has_edge(0, 3) and g.has_edge(3, 4)  # k-arm at anchor 0
    assert g.has_edge(1, 5)  # l-arm at anchor 1
    assert not g.has_edge(4, 5)


def test_graft_validation():
    k3 = fam("Complete", 3)
    with pytest.raises(InvalidGraft):
        apply_graft(GraftSpec(k3, "Elsewhere", (0,), 1, 0))
    with pytest.raises(InvalidGraft):
        apply_graft(GraftSpec(k3, KIND_VERTEX, (0, 1), 1, 0))
    with pytest.raises(InvalidGraft):
        apply_graft(GraftSpec(k3, KIND_TWINS, (0,), 1, 0))
    with pytest.raises(InvalidGraft):
        apply_graft(vertex_spec(k3, 3, 1, 0))
    with pytest.raises(InvalidGraft):
        apply_graft(vertex_spec(k3, 0, 1, 2))  # k < l
    with pytest.raises(InvalidGraft):
        apply_graft(vertex_spec(k3, 0, -1, -1))
    with pytest.raises(InvalidGraft):
        apply_graft(vertex_spec(fam("Path", 60), 0, 3, 2))  # over 64
    p3 = fam("Path", 3)
    with pytest.raises(InvalidGraft):
        apply_graft(twins_spec(p3, 0, 2, 2, 2))  # not adjacent
    with pytest.raises(InvalidGraft):
        apply_graft(twins_spec(p3, 0, 1, 2, 2))  # neighborhoods differ
    with pytest.raises(InvalidGraft):
        check_graft_monotone_L(twins_spec(fam("Complete", 3), 0, 1, 2, 1))


def test_graft_monotone_triangle_twins():
    spec = twins_spec(fam("Complete", 3), 0, 1, 2, 2)
    v = check_graft_monotone_L(spec)
    assert v.theorem_id == "T5.3" and v.applicable
    assert abs(v.bound_value - 24.2349) < 5e-4
    assert abs(v.observed - 24.8035) < 5e-4
    assert v.holds and v.strict
    v = check_graft_monotone_Q(spec)
    assert v.theorem_id == "L7.2" and v.applicable
    assert abs(v.bound_value - 29.2443) < 5e-4
    assert abs(v.observed - 29.6418) < 5e-4
    assert v.holds and v.strict


def test_graft_monotone_vertex():
    v = check_graft_monotone_L(vertex_spec(fam("Cycle", 4), 0, 2, 2))
    assert v.theorem_id == "T5.4" and v.applicable and v.holds and v.strict
    v = check_graft_monotone_Q(vertex_spec(fam("Cycle", 4), 0, 2, 2))
    assert v.theorem_id == "L7.1" and v.holds
    # l >= 3 comparisons only claim the weak inequality
    v = check_graft_monotone_L(vertex_spec(fam("Cycle", 4), 0, 3, 3))
    assert v.holds and not v.strict


def test_graft_degenerate_bases():
    # one-vertex base: both grafts of the comparison are the same path
    spec = vertex_spec(fam("Path", 1), 0, 2, 2)
    v = check_graft_monotone_L(spec)
    assert v.applicable and v.holds and not v.strict
    assert abs(v.observed - v.bound_value) < 1e-9  # exact tie P5 vs P5
    assert check_graft_monotone_Q(spec).applicable is False
    # two-vertex twins base: excluded by the order hypothesis
    spec = twins_spec(fam("Complete", 2), 0, 1, 2, 2)
    assert check_graft_monotone_L(spec).applicable is False
    assert check_graft_monotone_Q(spec).applicable is False
    w = check_graft_monotone_L(spec).witness
    assert w["base_n"] == 2 and w["kind"] == KIND_TWINS
    # two-vertex base is fine for the vertex kind
    spec = vertex_spec(fam("Complete", 2), 0, 2, 2)
    assert check_graft_monotone_L(spec).strict
    assert check_graft_monotone_Q(spec).strict


def test_graft_isomorphic_pair_ties():
    # the degenerate vertex comparison pairs P5 with itself
    a = apply_graft(vertex_spec(fam("Path", 1), 0, 2, 2))
    b = apply_graft(vertex_spec(fam("Path", 1), 0, 3, 1))
    assert is_isomorphic(a, fam("Path", 5)) and is_isomorphic(b, fam("Path", 5))


def test_graft_rejects_disconnected_base():
    base = from_edges(3, [(0, 1)])
    for spec in (vertex_spec(base, 0, 2, 2), twins_spec(base, 0, 1, 2, 2)):
        with pytest.raises(InvalidGraft, match="connected"):
            apply_graft(spec)
        with pytest.raises(InvalidGraft):
            check_graft_monotone_Q(spec)


@pytest.fixture
def solves(monkeypatch):
    """Count the pair solves of the graft checks."""
    calls = []

    def counted(adj, signs):
        calls.append(len(adj))
        return spectra.distance_spectra(adj, signs)

    monkeypatch.setattr(transforms, "distance_spectra", counted)
    return calls


def fresh_radii(spec, sign):
    """Radii of the (k, l) and the (k+1, l-1) graft, built and solved anew."""
    pair = [apply_graft(spec),
            apply_graft(GraftSpec(spec.base, spec.kind, tuple(spec.anchors),
                                  spec.k + 1, spec.l - 1))]
    return radii(pair, sign)


def test_graft_checks_share_one_solve(solves):
    # L then Q on one spec: one solve of the two-graft pair, and
    # both verdicts equal, bit for bit, radii() of freshly built grafts
    specs = [vertex_spec(fam("Cycle", 4), 0, 3, 2),
             twins_spec(fam("Complete", 3), 0, 1, 2, 2),
             vertex_spec(fam("Path", 50), 10, 7, 3)]
    for count, spec in enumerate(specs, 1):
        vl, vq = check_graft_monotone_L(spec), check_graft_monotone_Q(spec)
        assert solves == [2] * count
        assert [vl.bound_value, vl.observed] == fresh_radii(spec, -1)
        assert [vq.bound_value, vq.observed] == fresh_radii(spec, 1)


def test_graft_specs_share_only_when_equal(solves):
    cycle, path = fam("Cycle", 5), fam("Path", 5)
    specs = [vertex_spec(cycle, 0, 2, 2), vertex_spec(path, 0, 2, 2),
             vertex_spec(path, 2, 2, 2)]  # differ in base, then in anchors
    found = [(check_graft_monotone_L(s).observed, check_graft_monotone_Q(s).observed)
             for s in specs]
    assert len(solves) == 3
    assert found == [(fresh_radii(s, -1)[1], fresh_radii(s, 1)[1]) for s in specs]
    assert len(set(found)) == 3


def test_graft_list_anchors(solves):
    # anchors given as a list work and give the verdicts of the tuple spec;
    # each spec object solves its own pair once
    base = fam("Complete", 4)
    for kind, anchors in ((KIND_VERTEX, [1]), (KIND_TWINS, [0, 1])):
        as_list = GraftSpec(base, kind, anchors, 3, 2)
        as_tuple = GraftSpec(base, kind, tuple(anchors), 3, 2)
        assert apply_graft(as_list) == apply_graft(as_tuple)
        for check in (check_graft_monotone_L, check_graft_monotone_Q):
            assert check(as_list) == check(as_tuple)
    assert len(solves) == 4


def census_specs():
    """Every graft spec on a connected base of order <= 5: each vertex
    anchor and each adjacent twin pair, 2 <= l <= k, n + k + l <= 14."""
    for n in range(1, 6):
        for g in enumerate_connected(n):
            twins = [(u, v) for u, v in g.edges()
                     if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)]
            for kind, anchors in ((KIND_VERTEX, [(a,) for a in range(n)]),
                                  (KIND_TWINS, twins)):
                for anchor in anchors:
                    for l in range(2, 7):
                        for k in range(l, 15 - n - l):
                            yield GraftSpec(g, kind, anchor, k, l)


def test_graft_census_order_14():
    # (verdicts, applicable, holds, strict, equality) per id, and the least
    # rise observed - bound on non-degenerate bases at l = 2 and at l >= 3
    counts, rise = {}, {}
    for spec in census_specs():
        degenerate = spec.base.n < (2 if spec.kind == KIND_VERTEX else 3)
        for v in (check_graft_monotone_L(spec), check_graft_monotone_Q(spec)):
            row = counts.setdefault(v.theorem_id, [0] * 5)
            for col, flag in enumerate((True, v.applicable, v.holds, v.strict,
                                        v.equality)):
                row[col] += flag
            if not degenerate:
                key = v.theorem_id, spec.l == 2
                rise[key] = min(rise.get(key, math.inf), v.observed - v.bound_value)
    assert counts == {"L7.1": [1844, 1814, 1844, 1844, 30],
                      "L7.2": [513, 488, 513, 513, 25],
                      "T5.3": [513, 488, 513, 255, 25],
                      "T5.4": [1844, 1844, 1844, 864, 30]}  # no violation
    least = {("T5.3", True): 0.568682, ("T5.3", False): 0.205808,
             ("T5.4", True): 1.107455, ("T5.4", False): 0.208088,
             ("L7.1", True): 0.633809, ("L7.1", False): 0.164076,
             ("L7.2", True): 0.397458, ("L7.2", False): 0.154868}
    assert rise.keys() == least.keys()
    assert all(abs(rise[key] - least[key]) < 1e-6 for key in least)


def test_delete_edge():
    g = delete_edge(fam("Complete", 3), (0, 1))
    assert is_isomorphic(g, fam("Path", 3))
    g = delete_edge(fam("Star", 4), (0, 2))
    assert not is_connected(g)
    with pytest.raises(NoSuchEdge):
        delete_edge(fam("Path", 3), (0, 2))
    with pytest.raises(NoSuchEdge):
        delete_edge(fam("Path", 3), (0, 7))


def test_deletion_radius_monotone(corpus):
    # removing an edge never lowers either spectral radius
    from distlap import dist_laplacian, dist_signless_laplacian, eigenvalues

    for g in corpus[5]:
        base_l = eigenvalues(dist_laplacian(g))[0]
        base_q = eigenvalues(dist_signless_laplacian(g))[0]
        for e in g.edges():
            h = delete_edge(g, e)
            if not is_connected(h):
                continue
            assert eigenvalues(dist_laplacian(h))[0] >= base_l - 1e-9
            assert eigenvalues(dist_signless_laplacian(h))[0] >= base_q - 1e-9
