"""Graph representation, graph6 codec, all-pairs distances, and exhaustive enumeration.

A graph is stored as a tuple of adjacency bitrows: bit ``j`` of ``adj[i]`` is
set iff ``{i, j}`` is an edge. Rows fit in a Python int for the supported
orders (n <= 64). Edge bit positions throughout the module follow the colex
order (0,1), (0,2), (1,2), (0,3), ... which is also the graph6 bit order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (CorpusError, DisconnectedGraph, MalformedGraph6,
                     UnsupportedOrder)

MAX_ORDER = 64
CANONICAL_LIMIT = 10
ENUM_LIMIT = 7

# census of connected graphs up to isomorphism, orders 1..7
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on labeled vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]
    # number of edges, counted once by the validation below
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ORDER:
            raise UnsupportedOrder(f"order {self.n} outside 1..{MAX_ORDER}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex range")
            if (row >> i) & 1:
                raise ValueError(f"loop at vertex {i}")
        # symmetry in O(m), not over all pairs: every set bit has its mirror
        for i, row in enumerate(self.adj):
            while row:
                j = (row & -row).bit_length() - 1
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency at "
                                     f"({min(i, j)},{max(i, j)})")
                row &= row - 1
        object.__setattr__(self, "m",
                           sum(row.bit_count() for row in self.adj) // 2)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in colex order."""
        return [(i, j) for j in range(self.n) for i in range(j)
                if (self.adj[i] >> j) & 1]


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from an iterable of vertex pairs."""
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside vertex range")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def pendant_path(anchor: int, first: int, count: int) -> list[tuple[int, int]]:
    """Edges of a path of count new vertices first, first + 1, ... hung off
    anchor (no edges when count is 0)."""
    ends = [anchor, *range(first, first + count)]
    return list(zip(ends, ends[1:]))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((~row & full & ~(1 << i)) for i, row in enumerate(g.adj)))


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances with derived transmissions, Wiener index,
    diameter and sum_sq, the sum of d(i, j)^2 over unordered pairs."""

    dist: tuple[tuple[int, ...], ...]
    trans: tuple[int, ...]
    wiener: int
    diam: int
    sum_sq: int


class DistanceStack:
    """An int16 distance stack (N, n, n) with every graph's transmissions,
    Wiener index, diameter and sum of squared distances, each reduced once
    for the whole stack in exact int64; data(k) builds graph k's
    DistanceData from the arrays."""

    def __init__(self, dist: np.ndarray):
        self.dist = dist
        d = dist.astype(np.int64)
        self.trans = d.sum(axis=-1)
        self.wiener = self.trans.sum(axis=-1) // 2
        self.diam = d.max(axis=(-2, -1))
        self.sum_sq = (d * d).sum(axis=(-2, -1)) // 2

    def data(self, k: int) -> DistanceData:
        return DistanceData(tuple(map(tuple, self.dist[k].tolist())),
                            tuple(self.trans[k].tolist()), int(self.wiener[k]),
                            int(self.diam[k]), int(self.sum_sq[k]))


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n = 1)."""
    reach = 1
    while True:
        nxt = reach
        r = reach
        while r:
            v = (r & -r).bit_length() - 1
            nxt |= g.adj[v]
            r &= r - 1
        if nxt == reach:
            break
        reach = nxt
    return reach == (1 << g.n) - 1


def distance_data(g: Graph) -> DistanceData:
    """All-pairs distances of one graph; raises DisconnectedGraph when some
    pair is unreachable."""
    return DistanceStack(distances(adjacency_stack([g]))).data(0)


def adjacency_stack(graphs) -> np.ndarray:
    """(N, n, n) boolean adjacency matrices of graphs that share one order n."""
    n = graphs[0].n
    rows = np.array([g.adj for g in graphs], dtype="<u8")  # n <= 64 bits
    bits = np.unpackbits(rows.view(np.uint8).reshape(len(graphs), n, 8),
                         axis=-1, count=n, bitorder="little")
    return bits.view(bool)


def connected(adj: np.ndarray) -> np.ndarray:
    """(N,) booleans: which graphs of a (N, n, n) boolean adjacency stack
    are connected. Boolean closure: squaring (A + I) ceil(log2 n) times
    reaches every vertex within n - 1 steps; the float32 products count at
    most n walks per entry, so they are exact."""
    n = adj.shape[-1]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        step = reach.astype(np.float32)
        reach = step @ step > 0
    return reach[:, 0].all(axis=1)


def distances(adj: np.ndarray) -> np.ndarray:
    """Hop distances of every graph in a (N, n, n) boolean adjacency stack,
    as int16, by Seidel's recursion (R. Seidel, JCSS 51 (1995)): the
    distances D' of the graph G' joining every pair at distance <= 2 in G
    give D = 2D' or 2D' - 1, odd exactly where (D' A)[i, j] < D'[i, j]
    deg(j). The depth is O(log diam). Raises DisconnectedGraph when the
    recursion stalls short of a complete graph.

    The products run in float32, where BLAS makes them fast; every entry
    stays at or below n (n - 1) < 2^24, so they are exact."""
    n = adj.shape[-1]
    a = adj.astype(np.float32)
    sq = a @ a
    diag = np.arange(n)
    deg = sq[:, diag, diag]
    reach = adj | (sq > 0)
    reach[:, diag, diag] = False
    # reach contains adj, so equal edge counts mean the closure stalled
    count = reach.sum(axis=(1, 2))
    complete = count == n * (n - 1)
    if complete.all():
        return 2 * reach.astype(np.int16) - adj
    if ((count == deg.sum(axis=1)) & ~complete).any():
        raise DisconnectedGraph("distances require a connected graph")
    half = distances(reach)
    dh = half.astype(np.float32)
    return 2 * half - (dh @ a < dh * deg[:, None, :])


# ---------------------------------------------------------------------------
# graph6 codec


def _edge_bits(g: Graph):
    for j in range(g.n):
        for i in range(j):
            yield (g.adj[i] >> j) & 1


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        # long form: 126 then 18-bit big-endian order
        head = chr(126) + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    bits = list(_edge_bits(g))
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


_GRAPH6_BYTES = bytes(range(63, 127))


def _graph6_body(text: str) -> tuple[int, bytes]:
    """Order and body bytes of one stripped graph6 record, after checking
    its bytes, its order and its length."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise MalformedGraph6("empty graph6 record")
    # every non-ASCII character encodes to bytes >= 128, out of range
    raw = text.encode("utf-8", "surrogatepass")
    if raw.translate(None, _GRAPH6_BYTES):
        raise MalformedGraph6(f"byte out of range in {text!r}")
    if raw[0] == 126:
        if len(raw) < 4:
            raise MalformedGraph6("truncated long-form order")
        if raw[1] == 126:
            raise UnsupportedOrder("36-bit graph6 order exceeds the 64-vertex cap")
        n = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | (raw[3] - 63)
        off = 4
    else:
        n = raw[0] - 63
        off = 1
    if n == 0 or n > MAX_ORDER:
        raise UnsupportedOrder(f"order {n} outside 1..{MAX_ORDER}")
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(raw) - off != nbytes:
        raise MalformedGraph6(f"expected {nbytes} body bytes, got {len(raw) - off}")
    return n, raw[off:]


@lru_cache(maxsize=None)
def _colex_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, i) index arrays of the edges (i, j), i < j, in colex order: the
    row-major order below the diagonal."""
    return np.tril_indices(n, -1)


def graph6_stack(n: int, bodies) -> np.ndarray:
    """(N, n, n) boolean adjacency of N graph6 record bodies of order n (the
    bytes after the order header), decoded in one numpy step: six bits per
    byte, most significant first, over the edges in colex order."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    data = np.frombuffer(b"".join(bodies), dtype=np.uint8) - 63
    bits = np.unpackbits(data.reshape(len(bodies), nbytes, 1), axis=-1)[..., 2:]
    return _colex_adjacency(n, bits.reshape(len(bodies), 6 * nbytes))


def _colex_adjacency(n: int, bits: np.ndarray) -> np.ndarray:
    """(N, n, n) boolean adjacency from N rows of edge bits in colex order
    (bits past the n(n-1)/2 edges are ignored)."""
    j, i = _colex_ends(n)
    adj = np.zeros((len(bits), n, n), dtype=bool)
    adj[:, i, j] = adj[:, j, i] = bits[:, :len(i)]
    return adj


def stack_graphs(adj: np.ndarray) -> list[Graph]:
    """Graph objects of a (N, n, n) boolean adjacency stack, built from its
    rows packed into ints; the inverse of adjacency_stack."""
    count, n = adj.shape[:2]
    packed = np.zeros((count, n, 8), dtype=np.uint8)
    packed[..., :(n + 7) // 8] = np.packbits(adj, axis=-1, bitorder="little")
    return [Graph(n, tuple(rows)) for rows in packed.view("<u8")[..., 0].tolist()]


def from_graph6(text) -> Graph:
    """The graph of one graph6 record: the one-record call of graph6_stack."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n, body = _graph6_body(text.strip())
    return stack_graphs(graph6_stack(n, [body]))[0]


def graph6_corpus(lines) -> list[tuple]:
    """Read a corpus of graph6 lines (bytes or str, such as a file opened
    in binary mode), decoding the records of each order as one stack and
    testing their connectivity as one closure. Returns (line number,
    record, graph, connected) for every nonblank line, in file order; graph
    is None, and connected False, when the order lies outside 1..MAX_ORDER.
    Every line is checked before any record is decoded: a non-ASCII byte or
    a malformed record raises CorpusError naming the first bad line's
    1-based number."""
    records = []
    orders: dict[int, tuple[list, list]] = {}
    for lineno, line in enumerate(lines, 1):
        if isinstance(line, bytes):
            try:
                line = line.decode("ascii")
            except UnicodeDecodeError:
                raise CorpusError(f"line {lineno}: non-ASCII byte") from None
        text = line.strip()
        if not text:
            continue
        try:
            n, body = _graph6_body(text)
        except UnsupportedOrder:
            records.append((lineno, text, None, False))
            continue
        except MalformedGraph6 as exc:
            raise CorpusError(f"line {lineno}: malformed graph6 record "
                              f"{text!r}: {exc}") from exc
        at, bodies = orders.setdefault(n, ([], []))
        at.append(len(records))
        bodies.append(body)
        records.append((lineno, text))
    for n, (at, bodies) in orders.items():
        adj = graph6_stack(n, bodies)
        for k, g, ok in zip(at, stack_graphs(adj), connected(adj).tolist()):
            records[k] += (g, ok)
    return records


# ---------------------------------------------------------------------------
# canonical labeling


def canonical_form(g: Graph, limit: int = CANONICAL_LIMIT) -> str:
    """graph6 string of the lexicographically minimal relabeling of g.

    Branch and bound over vertex positions: the colex bitstring is a
    concatenation of columns, column p depending only on positions <= p, so at
    each position only candidates realizing the minimal next column can start
    a minimal completion. Twins (vertices whose swap is an automorphism) are
    collapsed to one candidate. Two graphs get equal keys iff isomorphic.
    """
    n = g.n
    if n > limit:
        raise UnsupportedOrder(f"canonical_form limited to n <= {limit}")
    if n == 1:
        return to_graph6(g)
    adj = g.adj
    best: list[int] | None = None

    def search(perm: list[int], used: int, flat: list[int]):
        nonlocal best
        p = len(perm)
        if best is not None and flat > best[:len(flat)]:
            return
        if p == n:
            if best is None or flat < best:
                best = list(flat)
            return
        cands = []
        skip = 0
        for v in range(n):
            if (used >> v) & 1 or (skip >> v) & 1:
                continue
            for w in range(v + 1, n):
                if (used >> w) & 1:
                    continue
                # swapping a twin pair is an automorphism
                if (adj[v] & ~(1 << w)) == (adj[w] & ~(1 << v)):
                    skip |= 1 << w
            col = tuple((adj[v] >> perm[i]) & 1 for i in range(p))
            cands.append((col, v))
        mincol = min(col for col, _ in cands)
        for col, v in cands:
            if col == mincol:
                search(perm + [v], used | (1 << v), flat + list(col))

    search([], 0, [])
    assert best is not None
    rows = [0] * n
    k = 0
    for j in range(n):
        for i in range(j):
            if best[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return to_graph6(Graph(n, tuple(rows)))


def is_isomorphic(a: Graph, b: Graph, limit: int = CANONICAL_LIMIT) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a, limit) == canonical_form(b, limit)


# ---------------------------------------------------------------------------
# exhaustive enumeration of connected graphs up to isomorphism


def _edge_index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


def _orbit_tables(n: int) -> list[np.ndarray]:
    """Orbit lookup tables: row v of table c holds, for every permutation of
    the vertices, the image of the edge mask whose 7-bit chunk c is v and
    whose other bits are 0; OR-ing one row per chunk gives a mask's orbit."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # (n!, edges, 2): the ends of each edge's image, in ascending order
    ends = np.sort(perms[:, _edge_index_pairs(n)], axis=-1).astype(np.uint32)
    lo, hi = ends[..., 0], ends[..., 1]
    image = np.uint32(1) << hi * (hi - 1) // 2 + lo
    tables = []
    for c in range(0, image.shape[1], 7):
        width = min(7, image.shape[1] - c)
        bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        # the images of distinct edges are distinct bits, so the sum is an OR
        tables.append(bits.astype(np.uint32) @ image[:, c:c + width].T)
    return tables


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    tables = _orbit_tables(n)
    edges = n * (n - 1) // 2
    seen = np.zeros(1 << edges, dtype=bool)
    minima = []
    # ascending mask order: the first unseen mask is its orbit's minimum, so
    # marking whole orbits seen yields exactly one representative per class
    m = 0
    while m < seen.size:
        # the next unseen mask, searched one bounded block at a time
        k = int(seen[m:m + 4096].argmin())
        if seen[m + k]:
            m += 4096
            continue
        m += k
        seen[np.bitwise_or.reduce([tab[(m >> (7 * c)) & 127]
                                   for c, tab in enumerate(tables)])] = True
        minima.append(m)
        m += 1
    adj = _colex_adjacency(n, (np.array(minima)[:, None] >> np.arange(edges)) & 1)
    return tuple(stack_graphs(adj[connected(adj)]))


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs on n
    vertices, in ascending order of the colex edge bitmask. Supported natively
    for 1 <= n <= 7; larger corpora must come from a graph6 stream."""
    if not 1 <= n <= ENUM_LIMIT:
        raise UnsupportedOrder(f"native enumeration limited to 1..{ENUM_LIMIT}")
    yield from _connected_reps(n)
