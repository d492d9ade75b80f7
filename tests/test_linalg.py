import random

import numpy as np
import pytest

from distlap import (
    DimensionMismatch,
    NoRootInBracket,
    as_sym_matrix,
    dist_laplacian,
    dist_signless_laplacian,
    eigenvalues,
    eigenvalues_jacobi,
    largest_root,
)
from distlap.families import build, family_spec


def fam(kind, *params):
    return build(family_spec(kind, *params))


def test_as_sym_matrix_validation():
    with pytest.raises(DimensionMismatch):
        as_sym_matrix([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_sym_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_sym_matrix([[1.0, 2.0], [2.1, 1.0]])
    m = as_sym_matrix([[1, 2], [2, 1]])
    assert m.dtype == np.float64


def test_eigenvalues_examples():
    k3 = fam("Complete", 3)
    s = eigenvalues(dist_laplacian(k3))
    assert np.allclose(s, [3.0, 3.0, 0.0], atol=1e-9)
    s = eigenvalues(dist_signless_laplacian(k3))
    assert np.allclose(s, [4.0, 1.0, 1.0], atol=1e-9)
    s = eigenvalues([[5.0]])
    assert s == (5.0,)


def test_jacobi_examples():
    s = eigenvalues_jacobi(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-10)
    p3 = fam("Path", 3)
    s = eigenvalues_jacobi(dist_laplacian(p3))
    assert np.allclose(s, [5.0, 3.0, 0.0], atol=1e-9)
    s = eigenvalues_jacobi([[7.0]])
    assert s == (7.0,)


def test_eigen_routines_return_descending_float_tuples():
    m = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]  # 3 + sqrt(3), 3, 3 - sqrt(3)
    for solve in (eigenvalues, eigenvalues_jacobi):
        s = solve(m)
        assert (type(s), [type(v) for v in s], s[0] > s[1] > s[2]) == (tuple, [float] * 3, True)


def test_jacobi_agrees_with_ql():
    rng = random.Random(909)
    worst = 0.0
    for _ in range(60):
        n = rng.randint(2, 12)
        a = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.uniform(-5.0, 5.0)
        v1 = eigenvalues(a)
        v2 = eigenvalues_jacobi(a)
        worst = max(worst, max(abs(x - y) for x, y in zip(v1, v2)))
    assert worst < 1e-8


def test_eigenvalue_identities():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 9)
        a = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.uniform(-3.0, 3.0)
        vals = eigenvalues(a)
        assert abs(sum(vals) - np.trace(a)) < 1e-9 * max(1.0, abs(np.trace(a)))
        fro2 = float(np.sum(a * a))
        assert abs(sum(v * v for v in vals) - fro2) < 1e-8 * max(1.0, fro2)
        # shift invariance
        shifted = eigenvalues(a + 2.5 * np.eye(n))
        assert max(abs(s - v - 2.5) for s, v in zip(shifted, vals)) < 1e-9


def test_largest_root_examples():
    assert abs(largest_root([1.0, 0.0, -4.0], (0.0, 10.0)) - 2.0) < 1e-10
    assert largest_root([1.0, 0.0, 0.0, 0.0], (-1.0, 1.0)) == 0.0
    with pytest.raises(NoRootInBracket):
        largest_root([1.0, 0.0, 1.0], (0.0, 10.0))
    with pytest.raises(NoRootInBracket):
        largest_root([1.0, -1.0], (5.0, 2.0))


def test_largest_root_picks_rightmost():
    # (x-1)(x-2)(x-3): three roots in the bracket, must return 3
    assert abs(largest_root([1.0, -6.0, 11.0, -6.0], (0.0, 10.0)) - 3.0) < 1e-9


def test_largest_root_matches_eigensolver():
    # signless distance radius of the 4-vertex star with one extra edge
    g = fam("StarPlus", 4)
    radius = eigenvalues(dist_signless_laplacian(g))[0]
    root = largest_root([1.0, -13.0, 44.0, -44.0], (0.0, 2.0 * 16.0))
    assert abs(root - radius) < 1e-8
