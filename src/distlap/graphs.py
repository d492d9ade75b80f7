"""Graph representation, graph6 codec, all-pairs distances, and exhaustive enumeration.

A graph is stored as a tuple of adjacency bitrows: bit ``j`` of ``adj[i]`` is
set iff ``{i, j}`` is an edge; rows of any integers are kept as Python ints
of n <= 64 bits. Edge bit positions throughout the module follow the colex
order (0,1), (0,2), (1,2), (0,3), ... which is also the graph6 bit order.
"""
from __future__ import annotations

import itertools
import operator
import os
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NoReturn

import numpy as np

from .errors import (CorpusError, DimensionMismatch, DisconnectedGraph,
                     MalformedGraph6, UnsupportedOrder)

MAX_ORDER = 64
CANONICAL_LIMIT = 10
ENUM_LIMIT = 7

# census of connected graphs up to isomorphism, orders 1..7
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# one graph6 line per connected graph of order 1..7, by order and then in
# ascending colex edge mask (tests/test_graphs.py rebuilds it by an orbit
# sweep), and its CRC-32: zlib is loaded anyway, where hashlib would load
# OpenSSL
CONNECTED_G6 = os.path.join(os.path.dirname(__file__), "connected.g6")
CONNECTED_CRC32 = 0x3C15AC45

# rounds that transpose a 64 x 64 bit matrix, bit (i, j) at 64 i + j: round
# s swaps bit s of the row and the column index, moving the bits (i, j) with
# bit s clear in i and set in j, its mask, to (i + s, j - s)
_TRANSPOSE = [(63 * s, sum(1 << j for j in range(64) if j & s)
               * sum(1 << 64 * i for i in range(64) if not i & s))
              for s in (32, 16, 8, 4, 2, 1)]
_DIAGONAL = sum(1 << 65 * i for i in range(64))


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on labeled vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]
    # number of edges, counted once by the validation below
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one place n and a row are decided: operator.index refuses a non-integer
        object.__setattr__(self, "n", operator.index(self.n))
        if not 1 <= self.n <= MAX_ORDER:
            raise UnsupportedOrder(f"order {self.n} outside 1..{MAX_ORDER}")
        object.__setattr__(self, "adj", tuple(map(operator.index, self.adj)))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from n")
        object.__setattr__(self, "m", _edge_count(self.n, self.adj))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in colex order."""
        return [(i, j) for j in range(self.n) for i in range(j)
                if (self.adj[i] >> j) & 1]


def _edge_count(n: int, adj: tuple[int, ...]) -> int:
    """Edge count of Python int rows checked as one 64 x 64 bit matrix, a
    64-bit word per row: packing fails on a row outside 0..2^64 - 1, and as
    the rows from n on are zero, a matrix equal to its transpose has no bit
    beyond the vertex range. A rejected one is walked row by row."""
    try:
        x = int.from_bytes(b"".join(map(int.to_bytes, adj, itertools.repeat(8),
                                        itertools.repeat("little"))), "little")
    except OverflowError:
        _first_fault(n, adj)
    t = x
    for shift, mask in _TRANSPOSE:
        swap = (t ^ t >> shift) & mask
        t ^= swap ^ swap << shift
    if x != t or x & _DIAGONAL:
        _first_fault(n, adj)
    return x.bit_count() // 2


def _first_fault(n: int, adj: tuple[int, ...]) -> NoReturn:
    """Raise the first fault of rows the word-level check rejected."""
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {i} has bits beyond vertex range")
        if (row >> i) & 1:
            raise ValueError(f"loop at vertex {i}")
    # symmetry in O(m), not over all pairs: every set bit has its mirror
    for i, row in enumerate(adj):
        while row:
            j = (row & -row).bit_length() - 1
            if not (adj[j] >> i) & 1:
                raise ValueError(f"asymmetric adjacency at ({min(i, j)},{max(i, j)})")
            row &= row - 1


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from integer vertex pairs (numpy ints too), checking the
    order first and each endpoint's range before indexing; Graph rejects loops."""
    n = operator.index(n)
    if not 1 <= n <= MAX_ORDER:
        raise UnsupportedOrder(f"order {n} outside 1..{MAX_ORDER}")
    rows = [0] * n
    for i, j in edges:
        i, j = operator.index(i), operator.index(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside vertex range")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, rows)


def pendant_path(anchor: int, first: int, count: int) -> Iterator[tuple[int, int]]:
    """Edges of a path of count new vertices first, first + 1, ... hung off
    anchor (no edges when count is 0), as an iterator."""
    new = range(first, first + count)
    return zip(itertools.chain((anchor,), new), new)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [~row & full & ~(1 << i) for i, row in enumerate(g.adj)])


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n = 1)."""
    reach, grown = 0, 1
    while grown != reach:
        reach = r = grown
        while r:
            v = (r & -r).bit_length() - 1
            grown |= g.adj[v]
            r &= r - 1
    return reach == (1 << g.n) - 1


def adjacency_stack(graphs) -> np.ndarray:
    """(N, n, n) boolean adjacency matrices of graphs that share one order n;
    DimensionMismatch for no graphs or graphs of mixed orders."""
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise DimensionMismatch(f"need graphs of one order, got orders {sorted(orders)}")
    n, = orders
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


def diagonals(stack: np.ndarray) -> np.ndarray:
    """Writable (N, n) view of the diagonals of a C-contiguous (N, n, n) stack."""
    return stack.reshape(len(stack), -1)[:, ::stack.shape[-1] + 1]


def distances(adj: np.ndarray) -> np.ndarray:
    """Hop distances of every graph in a (N, n, n) boolean adjacency stack,
    as int16, by Seidel's recursion (R. Seidel, JCSS 51 (1995)) in two
    loops. Down: level k holds A + I, A joining the pairs at distance
    <= 2^k (level 0: adj); (A + I)^2 is positive exactly at the pairs at
    distance <= 2, so the level above is min((A + I)^2, 1), until one has
    no zero left. A stack still incomplete at level (n - 1).bit_length()
    holds a disconnected graph: DisconnectedGraph. Up: the distances D' of
    a level give those D of the level below, D = 2D' or 2D' - 1, odd
    exactly where (D' A)[i, j] < D'[i, j] deg(j), that is where
    (D' M)[i, j] < 0 for M = A - Diag(deg): each level's buffer takes its
    M once squared, deg + 1 being the diagonal of (A + I)^2.

    Both loops run in float32 buffers allocated once for BLAS, exact as no
    entry exceeds n (n - 1) < 2^24; the result is cast to int16 at the end.
    Diagonals are written by assignment, as numpy 2.4.6 miscomputes some
    ufuncs into a strided out=."""
    count, n = adj.shape[:2]
    top = max(1, (n - 1).bit_length())
    level = np.empty((top + 1, count, n, n), dtype=np.float32)
    dist, work = np.empty((2, count, n, n), dtype=np.float32)
    step = np.empty(adj.shape, dtype=bool)
    level[0] = adj
    diagonals(level[0])[:] = 1
    for k in range(top):
        np.matmul(level[k], level[k], out=work)
        diagonals(level[k])[:] = 1 - diagonals(work)
        np.minimum(work, 1, out=level[k + 1])
        if work.min() > 0:
            break
    else:
        raise DisconnectedGraph("distances require a connected graph")
    # distance 1 on the complete level k + 1 gives 2 - A on level k
    np.subtract(2, level[k], out=dist)
    diagonals(dist)[:] = 0
    for j in range(k - 1, -1, -1):
        np.matmul(dist, level[j], out=work)
        dist += dist
        dist -= np.less(work, 0, out=step)
    return dist.astype(np.int16)


# ---------------------------------------------------------------------------
# graph6 codec


def _graph6(n: int, bits) -> str:
    """graph6 record of order n (above 62: 126, then 18 bits) and its colex
    edge bits, six a byte, most significant first, zero-padded."""
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    text = "".join(map(str, bits))
    text += "0" * (-len(text) % 6)
    body = [int(text[k:k + 6], 2) for k in range(0, len(text), 6)]
    return "".join(chr(v + 63) for v in head + body)


def to_graph6(g: Graph) -> str:
    return _graph6(g.n, ((g.adj[i] >> j) & 1 for j in range(g.n) for i in range(j)))


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


def graph6_stack(n: int, bodies) -> np.ndarray:
    """(N, n, n) boolean adjacency of N graph6 record bodies of order n (the
    bytes after the order header), decoded in one numpy step: six bits per
    byte, most significant first, over the edges (i, j), i < j, in colex
    order, which is the row-major order below the diagonal."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    data = np.frombuffer(b"".join(bodies), dtype=np.uint8) - 63
    bits = np.unpackbits(data.reshape(len(bodies), nbytes, 1), axis=-1)[..., 2:]
    j, i = np.tril_indices(n, -1)
    adj = np.zeros((len(bodies), n, n), dtype=bool)
    adj[:, i, j] = adj[:, j, i] = bits.reshape(len(bodies), 6 * nbytes)[:, :len(i)]
    return adj


def stack_graphs(adj: np.ndarray) -> list[Graph]:
    """Graph objects of a (N, n, n) boolean adjacency stack, built from its
    rows packed into ints; the inverse of adjacency_stack."""
    count, n = adj.shape[:2]
    packed = np.zeros((count, n, 8), dtype=np.uint8)
    packed[..., :(n + 7) // 8] = np.packbits(adj, axis=-1, bitorder="little")
    return [Graph(n, rows) for rows in packed.view("<u8")[..., 0].tolist()]


def from_graph6(text) -> Graph:
    """The graph of one graph6 record: the one-record call of graph6_stack."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n, body = _graph6_body(text.strip())
    return stack_graphs(graph6_stack(n, [body]))[0]


def graph6_corpus(lines) -> list[tuple]:
    """Read a corpus of graph6 lines (bytes or str, such as a file opened
    in binary mode) or the file at a path (str, bytes or os.PathLike), whose
    lines end only at LF, decoding the records of each order as one stack
    and testing their connectivity as one closure. Returns (line number,
    record, graph, connected) for every nonblank line, in file order; graph
    is None, and connected False, when the order lies outside 1..MAX_ORDER.
    Every line is checked before any record is decoded: a non-ASCII byte or
    a malformed record raises CorpusError naming the first bad line's
    1-based number, after the path F of a file, and an unreadable file is
    CorpusError("cannot read corpus F: ...")."""
    if isinstance(lines, (str, bytes, os.PathLike)):
        try:
            with open(lines, "rb") as fh:
                return graph6_corpus(fh)
        except OSError as exc:
            raise CorpusError(f"cannot read corpus {os.fsdecode(lines)}: {exc}") from exc
        except CorpusError as exc:
            raise CorpusError(f"{os.fsdecode(lines)} {exc}") from exc
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


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically minimal relabeling of g.

    Branch and bound over vertex positions: the colex bitstring is a
    concatenation of columns, column p depending only on positions <= p, so at
    each position only candidates realizing the minimal next column can start
    a minimal completion. Twins (vertices whose swap is an automorphism) are
    collapsed to one candidate. Two graphs get equal keys iff isomorphic.
    """
    n = g.n
    if n > CANONICAL_LIMIT:
        raise UnsupportedOrder(f"canonical_form limited to n <= {CANONICAL_LIMIT}")
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
    return _graph6(n, best)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# exhaustive enumeration of connected graphs up to isomorphism


@lru_cache(maxsize=None, typed=True)
def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs of order
    1 <= n <= 7, in ascending colex edge mask order, as a cached tuple: the
    order-n records of CONNECTED_G6, decoded as one stack once the file's
    CRC-32 and order-n count are found right. Larger orders need a stream.
    Any other integer type is read as its int, before the file is opened."""
    if type(n) is not int:
        return enumerate_connected(operator.index(n))
    if not 1 <= n <= ENUM_LIMIT:
        raise UnsupportedOrder(f"native enumeration limited to 1..{ENUM_LIMIT}")
    with open(CONNECTED_G6, "rb") as fh:
        data = fh.read()
    bodies = [line[1:] for line in data.split() if line[0] == n + 63]
    if zlib.crc32(data) != CONNECTED_CRC32 or len(bodies) != CONNECTED_COUNTS[n]:
        raise CorpusError(f"packaged corpus {CONNECTED_G6} is damaged: its "
                          f"CRC-32 or its order-{n} count is wrong")
    return tuple(stack_graphs(graph6_stack(n, bodies)))
