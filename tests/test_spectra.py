import random

import numpy as np
import pytest

from distlap import (
    DimensionMismatch,
    InvalidPartition,
    adjacency_matrix,
    check_interlacing,
    check_quotient_bound,
    dist_laplacian,
    dist_signless_laplacian,
    distance_matrix,
    eigenvalues,
    laplacian,
    order_groups,
    quotient_matrix,
)
from distlap.families import build, family_spec


def fam(kind, *params):
    return build(family_spec(kind, *params))


def test_matrix_examples():
    k2 = fam("Complete", 2)
    assert np.array_equal(distance_matrix(k2), [[0, 1], [1, 0]])
    p3 = fam("Path", 3)
    assert np.array_equal(distance_matrix(p3), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert np.array_equal(
        dist_laplacian(p3), [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]
    )
    k3 = fam("Complete", 3)
    assert np.array_equal(
        dist_signless_laplacian(k3), [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    )
    k4 = fam("Complete", 4)
    l4 = dist_laplacian(k4)
    assert np.array_equal(np.diag(l4), [3, 3, 3, 3])
    assert np.all(l4 - np.diag(np.diag(l4)) == -1 + np.eye(4))


def test_adjacency_and_laplacian():
    p3 = fam("Path", 3)
    assert np.array_equal(adjacency_matrix(p3), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(laplacian(p3), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_row_sums_and_trace(corpus):
    for n in range(1, 7):
        wiener = order_groups(corpus[n])[0].wiener.tolist()
        for g, w in zip(corpus[n], wiener):
            l = dist_laplacian(g)
            # integer assembly: row sums land on exact zero
            assert np.all(l.sum(axis=1) == 0.0)
            assert np.trace(l) == 2.0 * w
            q = dist_signless_laplacian(g)
            assert np.trace(q) == 2.0 * w


def test_psd_and_kernel(corpus):
    for n in range(1, 7):
        for g in corpus[n]:
            dl = eigenvalues(dist_laplacian(g))
            assert dl[-1] >= -1e-9
            # the all-ones vector gives one exact zero eigenvalue
            assert abs(dl[-1]) <= 1e-9
            if n >= 2:
                assert dl[-2] > 1e-9  # connected: zero is simple
            dq = eigenvalues(dist_signless_laplacian(g))
            assert dq[-1] >= -1e-9


def test_spectral_profile_examples():
    k4 = fam("Complete", 4)
    assert np.allclose(eigenvalues(dist_laplacian(k4)), [4, 4, 4, 0], atol=1e-9)
    assert abs(eigenvalues(dist_signless_laplacian(k4))[0] - 6.0) < 1e-9
    assert abs(eigenvalues(laplacian(k4))[-2] - 4.0) < 1e-9
    assert distance_matrix(k4).max() == 1
    p3 = fam("Path", 3)
    assert np.allclose(eigenvalues(dist_laplacian(p3)), [5, 3, 0], atol=1e-9)


def test_stacked_profiles_match_per_graph(corpus):
    # mixed orders in shuffled order: each order is solved as one stack, and
    # every row equals the graph's own one-graph group and
    # eigensolves bit for bit
    graphs = [g for n in corpus for g in corpus[n]]
    graphs += [fam("Path", 30), fam("Cycle", 17), fam("Kite3", 20), fam("Star", 64)]
    random.Random(5).shuffle(graphs)
    stacked = order_groups(graphs)
    ks = [k for group in stacked for k in group.ks.tolist()]
    assert sorted(ks) == list(range(len(graphs)))
    assert len({group.n for group in stacked}) == len(stacked)
    for group in stacked:
        for row, k in enumerate(group.ks.tolist()):
            g = graphs[k]
            own = order_groups([g])[0]
            assert (group.n, int(group.m[row])) == (g.n, g.m)
            for name in ("dist", "trans", "wiener", "diam", "sum_sq"):
                assert getattr(group, name)[row].tolist() == getattr(own, name)[0].tolist()
            assert tuple(group.dl[row].tolist()) == eigenvalues(dist_laplacian(g))
            assert tuple(group.dq[row].tolist()) == eigenvalues(dist_signless_laplacian(g))


def test_quotient_matrix_examples():
    k4 = fam("Complete", 4)
    r = quotient_matrix(dist_laplacian(k4), [[0], [1, 2, 3]])
    assert np.allclose(r, [[3, -3], [-1, 1]], atol=1e-12)
    c4 = fam("Cycle", 4)
    r = quotient_matrix(dist_signless_laplacian(c4), [[0, 2], [1, 3]])
    assert np.allclose(r, [[6, 2], [2, 6]], atol=1e-12)


def test_partition_validation():
    m = np.zeros((3, 3))
    with pytest.raises(InvalidPartition):
        quotient_matrix(m, [[0, 1]])  # vertex 2 uncovered
    with pytest.raises(InvalidPartition):
        quotient_matrix(m, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(InvalidPartition):
        quotient_matrix(m, [[0], [], [1, 2]])  # empty block
    with pytest.raises(InvalidPartition):
        quotient_matrix(m, [[0, 1], [2, 3]])  # out of range
    with pytest.raises(DimensionMismatch):
        quotient_matrix(np.zeros((2, 3)), [[0], [1]])


def test_quotient_bound_equality_case():
    # equitable partition of C4: quotient radius equals the full radius
    c4 = fam("Cycle", 4)
    v = check_quotient_bound(dist_signless_laplacian(c4), [[0, 2], [1, 3]])
    assert v.theorem_id == "L2.2"
    assert abs(v.bound_value - 8.0) < 1e-9
    assert v.holds and v.equality and not v.strict


def test_quotient_bound_random_partitions(corpus):
    rng = random.Random(77)
    for g in rng.sample(corpus[6], 12):
        q = dist_signless_laplacian(g)
        verts = list(range(6))
        rng.shuffle(verts)
        cut = rng.randint(1, 5)
        blocks = [verts[:cut], verts[cut:]]
        v = check_quotient_bound(q, blocks)
        assert v.holds
        # singleton refinement reproduces the matrix itself
        v = check_quotient_bound(q, [[i] for i in range(6)])
        assert v.equality


def test_interlacing_examples():
    assert check_interlacing([3.0, 2.0, 1.0], [2.0])
    assert not check_interlacing([3.0, 2.0, 1.0], [5.0])
    assert check_interlacing([3.0, 2.0, 1.0], [3.0, 1.0])
    with pytest.raises(DimensionMismatch):
        check_interlacing([3.0], [2.0, 1.0])


def test_interlacing_principal_submatrix():
    g = fam("KiteClique", 7, 4)
    m = dist_laplacian(g)
    full = eigenvalues(m)
    sub = eigenvalues(m[np.ix_(range(5), range(5))])
    assert check_interlacing(full, sub)


def test_diam2_radius_formula(corpus):
    # diameter <= 2 forces the distance Laplacian radius to 2n - alpha
    for n in range(2, 7):
        diam = order_groups(corpus[n])[0].diam.tolist()
        for g, d in zip(corpus[n], diam):
            if d <= 2:
                radius = eigenvalues(dist_laplacian(g))[0]
                assert abs(radius - (2 * n - eigenvalues(laplacian(g))[-2])) < 1e-7
