"""Dense symmetric eigensolvers.

Two independent eigenvalue routes are kept deliberately: ``eigenvalues`` is
the production path (LAPACK via numpy, i.e. Householder reduction plus
implicit-shift iteration), ``eigenvalues_jacobi`` is a self-contained cyclic
Jacobi solver used to cross-validate the production path. Do not collapse one
into the other.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence


def as_sym_matrix(a) -> np.ndarray:
    """Validate and return a square, exactly symmetric float64 matrix."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise DimensionMismatch("matrix is not exactly symmetric")
    return m


def eigenvalues(m) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix as a descending tuple (the
    radius is [0], the smallest value [-1]): the one-matrix call of
    eigenvalues_stacked."""
    return tuple(eigenvalues_stacked(as_sym_matrix(m)[None])[0].tolist())


def eigenvalues_stacked(stack) -> np.ndarray:
    """Eigenvalues of every matrix of a (N, n, n) stack of symmetric matrices,
    one descending row per matrix. LAPACK solves each matrix on its own, so
    row k does not depend on the other matrices of the stack."""
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise DimensionMismatch("stack holds a matrix that is not exactly symmetric")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return vals[:, ::-1]


def eigenvalues_jacobi(m) -> tuple[float, ...]:
    """Cyclic-by-row Jacobi eigensolver; independent oracle for eigenvalues,
    with the same descending tuple."""
    a = as_sym_matrix(m).copy()
    n = a.shape[0]
    if n == 1:
        return (float(a[0, 0]),)
    fro = float(np.linalg.norm(a))
    stop = 1e-12 * fro
    for _ in range(100):
        # summed directly over the off-diagonal entries: the textbook
        # ||A||_F^2 - sum(diag^2) form cancels catastrophically and can
        # never reach a 1e-12-relative threshold
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(diff) > 1e10 * abs(apq):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app, aqq = a[p, p], a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                idx = [r for r in range(n) if r != p and r != q]
                arp = a[idx, p].copy()
                arq = a[idx, q].copy()
                newp = arp - s * (arq + tau * arp)
                newq = arq + s * (arp - tau * arq)
                a[idx, p] = newp
                a[p, idx] = newp
                a[idx, q] = newq
                a[q, idx] = newq
    else:
        raise NoConvergence("Jacobi did not converge in 100 sweeps")
    return tuple(sorted((float(v) for v in np.diag(a)), reverse=True))

