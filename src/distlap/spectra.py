"""Matrix assembly from graphs, stacked distance spectra, quotient matrices,
interlacing.

Distance matrices are assembled from exact integer distances, so structural
identities (zero row sums of the distance Laplacian, trace = 2W) hold exactly
before any float arithmetic happens.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, InvalidPartition
from .graphs import Graph, adjacency_stack, diagonals, distances
from .linalg import as_sym_matrix, eigenvalues, eigenvalues_stacked
from .verdict import BoundVerdict, verdict

# matrix entries per stacked solve: every stack of graphs is solved in
# slices of at most this many, whatever the corpus size. A slice's float32
# Seidel levels, float64 Tr +- D copy and eigenvalue rows take about 35
# bytes per entry at n = 7, so 2^16 held 2.3 MB and set the n = 7 scan's
# peak; at 2^14 other arrays set it, smaller slices save little memory, and
# the per-slice calls make the n = 7 scan 15-20% slower at 2^12
SOLVE_SLICE = 1 << 14


def distance_matrix(g: Graph) -> np.ndarray:
    """D(G): hop distances as a dense symmetric float matrix."""
    return distances(adjacency_stack([g]))[0].astype(np.float64)


def dist_laplacian(g: Graph) -> np.ndarray:
    """Tr(G) - D(G); integer assembly keeps every row sum exactly zero."""
    return transmission_stack(distances(adjacency_stack([g])), -1)[0]


def dist_signless_laplacian(g: Graph) -> np.ndarray:
    """Tr(G) + D(G)."""
    return transmission_stack(distances(adjacency_stack([g])), 1)[0]


def radii(graphs, sign: int) -> list[float]:
    """Spectral radius of Tr - D (sign -1) or Tr + D (sign +1) of connected
    graphs that share one order, from one distance_spectra call; entry k
    equals eigenvalues(dist_*(graphs[k]))[0] bit for bit."""
    _, (rows,) = distance_spectra(adjacency_stack(graphs), (sign,))
    return rows[:, 0].tolist()


def adjacency_matrix(g: Graph) -> np.ndarray:
    return adjacency_stack([g])[0].astype(np.float64)


def laplacian(g: Graph) -> np.ndarray:
    """Ordinary Laplacian Diag(degrees) - A, the matrix of spectrum --matrix lap."""
    a = adjacency_stack([g])[0].astype(np.int64)
    return (np.diag(a.sum(axis=1)) - a).astype(np.float64)


def transmission_stack(dist: np.ndarray, sign: int) -> np.ndarray:
    """Tr - D (sign -1) or Tr + D (sign +1) as float64 for every matrix of a
    stacked integer distance array; integer assembly keeps every row sum of
    Tr - D exactly zero. A connected graph's off-diagonal distances are
    positive, so negating in float gives no -0.0 that the transmissions on
    the diagonal do not overwrite."""
    m = dist.astype(np.float64, order="C")
    if sign < 0:
        np.negative(m, out=m)
    diagonals(m)[:] = dist.sum(axis=-1)
    return m


def slices(count: int, n: int) -> list[slice]:
    """Consecutive slices of a stack of count n x n matrices, each of at
    most SOLVE_SLICE matrix entries (or of one matrix, when n * n exceeds
    it)."""
    step = max(1, SOLVE_SLICE // (n * n))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def distance_spectra(adj: np.ndarray, signs) -> tuple[np.ndarray, list]:
    """(dist, rows) of a (N, n, n) boolean adjacency stack of connected
    graphs: their int16 distances and, for each of signs, the descending
    eigenvalue rows (N, n) of Tr - D (sign -1) or Tr + D (sign +1). The
    stack is solved one slice at a time, so the float work arrays stay
    within SOLVE_SLICE entries; LAPACK solves each matrix on its own, so
    the rows equal a whole-stack solve bit for bit."""
    dist = np.empty(adj.shape, dtype=np.int16)
    rows = [np.empty(adj.shape[:2]) for _ in signs]
    for part in slices(len(adj), adj.shape[-1]):
        dist[part] = distances(adj[part])
        for out, sign in zip(rows, signs):
            out[part] = eigenvalues_stacked(transmission_stack(dist[part], sign))
    return dist, rows


class OrderGroup:
    """Graphs of one order as arrays: their corpus indices ks, order n, edge
    counts m, adjacency (N, n, n), int16 distances dist, each graph's
    transmissions, Wiener index, diameter and sum_sq (the sum of d(i, j)^2
    over unordered pairs) in exact int64, and the dl (Tr - D) and dq
    (Tr + D) eigenvalue rows (N, n), descending. facts holds row-order
    arrays that checks compute on first use, such as the clique numbers."""

    def __init__(self, graphs, ks):
        self.graphs, self.ks, self.n = graphs, np.array(ks), graphs[0].n
        self.adj = adjacency_stack(graphs)
        self.dist, (self.dl, self.dq) = distance_spectra(self.adj, (-1, 1))
        d = self.dist.astype(np.int64)
        self.trans = d.sum(axis=-1)
        self.wiener = self.trans.sum(axis=-1) // 2
        self.diam = d.max(axis=(-2, -1))
        self.sum_sq = (d * d).sum(axis=(-2, -1)) // 2
        self.m = self.adj.sum(axis=(1, 2)) // 2
        self.facts: dict = {}

    def fact(self, name, compute):
        """facts[name], set to compute(self) on first use."""
        if name not in self.facts:
            self.facts[name] = compute(self)
        return self.facts[name]


def order_groups(graphs) -> list[OrderGroup]:
    """Distances, distance invariants and both distance spectra of many
    connected graphs as one OrderGroup per order, in the order each order is
    first seen (one distance_spectra call each), so only arrays are kept for
    the whole corpus."""
    by_order: dict[int, list[int]] = {}
    for k, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(k)
    return [OrderGroup([graphs[k] for k in ks], ks) for ks in by_order.values()]


def validate_partition(n: int, blocks) -> list[list[int]]:
    """Check that blocks are disjoint, nonempty, and cover 0..n-1."""
    norm = [list(map(operator.index, b)) for b in blocks]
    seen: set[int] = set()
    for b in norm:
        if not b:
            raise InvalidPartition("empty block")
        for v in b:
            if not 0 <= v < n:
                raise InvalidPartition(f"index {v} outside 0..{n - 1}")
            if v in seen:
                raise InvalidPartition(f"index {v} appears twice")
            seen.add(v)
    if len(seen) != n:
        raise InvalidPartition("blocks do not cover the index set")
    return norm


def _block_sums(m, blocks) -> tuple[np.ndarray, list[int]]:
    """(sums, sizes): entry (i, j) of sums adds up the entries of m in the
    rows of block i and the columns of block j, after checking that the
    blocks partition m's indices."""
    a = np.asarray(m, dtype=np.float64)
    norm = validate_partition(a.shape[0], blocks)
    sums = np.array([[a[np.ix_(bi, bj)].sum() for bj in norm] for bi in norm])
    return sums, [len(b) for b in norm]


def quotient_matrix(m, blocks) -> np.ndarray:
    """Block-average row sums: entry (i,j) averages the rows of block i over
    the columns of block j."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
    sums, sizes = _block_sums(a, blocks)
    return sums / np.array(sizes)[:, None]


def check_quotient_bound(m, blocks) -> BoundVerdict:
    """lambda1 of the full matrix dominates lambda1 of any quotient matrix."""
    a = as_sym_matrix(m)
    sums, sizes = _block_sums(a, blocks)
    lam_m = eigenvalues(a)[0]
    # the quotient's largest eigenvalue, via the symmetric similarity
    # S^(1/2) R S^(-1/2) with S = diag(block sizes)
    sym = sums / np.sqrt(np.outer(sizes, sizes))
    sym = (sym + sym.T) / 2.0  # kill roundoff asymmetry
    lam_r = eigenvalues(sym)[0]
    return verdict("L2.2", lam_m, ">=", lam_r, witness={
        "lambda1_matrix": lam_m, "lambda1_quotient": lam_r, "blocks": sizes})


def check_interlacing(a, b) -> bool:
    """Cauchy interlacing: with descending spectra of sizes n >= m,
    a[n-m+i] <= b[i] <= a[i] for i = 1..m (1-based), up to 1e-9."""
    n, m = len(a), len(b)
    if m > n:
        raise DimensionMismatch(f"submatrix spectrum longer ({m}) than full ({n})")
    return all(a[n - m + i] - 1e-9 <= b[i] <= a[i] + 1e-9 for i in range(m))
