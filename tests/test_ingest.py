"""The stacked streamed scan against the per-record code it replaced: the
graph6 corpus reader and its errors, the array-derived distance invariants,
the complement-free Turan test, one clique search per graph, and a pinned
report over a mixed-order stream."""
import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distlap import (CorpusError, Graph, MalformedGraph6, UnsupportedOrder,
                     complement, emit_report, enumerate_connected, from_edges,
                     from_graph6, graph6_corpus, order_groups,
                     scan_reports, to_graph6, turan_parts)
from distlap import bounds
from distlap.bounds import is_turan
from distlap.verify import SCAN_IDS

from helpers import complete, cycle, path
from test_properties import any_graphs, connected_graphs, same_order_stacks

STREAM_IDS = SCAN_IDS[:15]  # every id that deletes no edge
STREAM_DENSITIES = (0.0, 0.05, 0.15, 0.3, 0.6)
# sha256 of the concatenated JSON reports of scan_reports(STREAM_IDS, stream())
# from the per-record reader and per-graph invariants this scan replaced
STREAM_REPORT_SHA256 = "28fb092a40a7815d8986cc1d85884dc1566d92f3c0bb0e93cdc73b92aea60569"
# the same reports as CSV, which pins each witness's bound and observed value
STREAM_CSV_SHA256 = "e29cd5c9eedac1c398b9275b20f048a8367861e62f3e9ba9efec65ccbe92d0fa"


# ---------------------------------------------------------------------------
# the per-record code the stacked reader replaced, kept as the reference


def ref_from_graph6(text) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise MalformedGraph6("empty graph6 record")
    data = [ord(c) - 63 for c in text]
    if any(v < 0 or v > 63 for v in data):
        raise MalformedGraph6(f"byte out of range in {text!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise MalformedGraph6("truncated long-form order")
        if data[1] == 63:
            raise UnsupportedOrder("36-bit graph6 order exceeds the 64-vertex cap")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        off = 4
    else:
        n = data[0]
        off = 1
    if n == 0 or n > 64:
        raise UnsupportedOrder(f"order {n} outside 1..64")
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(data) - off != nbytes:
        raise MalformedGraph6(f"expected {nbytes} body bytes, got {len(data) - off}")
    rows = [0] * n
    k = 0
    for j in range(n):
        for i in range(j):
            if (data[off + k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


def ref_is_connected(g: Graph) -> bool:
    reach = 1
    while True:
        nxt = reach
        for v in range(g.n):
            if (reach >> v) & 1:
                nxt |= g.adj[v]
        if nxt == reach:
            return reach == (1 << g.n) - 1
        reach = nxt


def ref_read(lines):
    """(connected graphs in file order, skipped count), or CorpusError."""
    graphs, skipped = [], 0
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
            g = ref_from_graph6(text)
        except UnsupportedOrder:
            g = None
        except MalformedGraph6 as exc:
            raise CorpusError(f"line {lineno}: malformed graph6 record "
                              f"{text!r}: {exc}") from exc
        if g is None or not ref_is_connected(g):
            skipped += 1
        else:
            graphs.append(g)
    return graphs, skipped


def ref_is_turan(g: Graph, omega: int) -> bool:
    n = g.n
    if not 2 <= omega <= n:
        return omega == 1 and n == 1
    comp = complement(g)
    seen = 0
    sizes = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        block = comp.adj[v] | (1 << v)
        for u in range(n):
            if (block >> u) & 1 and (comp.adj[u] | (1 << u)) != block:
                return False
        seen |= block
        sizes.append(block.bit_count())
    return sorted(sizes) == sorted(turan_parts(n, omega))


def ref_distance_invariants(rows):
    """Distance rows of one graph with its transmissions, Wiener index,
    diameter and sum of squared distances, in pure Python."""
    dist = tuple(map(tuple, rows))
    trans = tuple(map(sum, dist))
    return (dist, trans, sum(trans) // 2, max(map(max, dist)),
            sum(d * d for row in dist for d in row) // 2)


# ---------------------------------------------------------------------------


def connected_records(records):
    """The connected graphs of graph6_corpus records and the skip count."""
    graphs = [g for *_, g, ok in records if ok]
    return graphs, len(records) - len(graphs)


def check_reader(lines):
    records = graph6_corpus(lines)
    assert connected_records(records) == ref_read(lines)
    nonblank = [(k, x) for k, x in enumerate(lines, 1) if x.strip()]
    assert [lineno for lineno, *_ in records] == [k for k, _ in nonblank]
    for (_, _, g, ok), (_, line) in zip(records, nonblank):
        try:
            want = ref_from_graph6(line)
        except UnsupportedOrder:
            assert g is None and not ok
            with pytest.raises(UnsupportedOrder):
                from_graph6(line)
            continue
        assert g == want == from_graph6(line)
        assert ok == ref_is_connected(want)
        assert g.m == sum(row.bit_count() for row in want.adj) // 2


# over-order records: order 65, order 0, the 36-bit form, and a short-form
# order 65 whose body the reader never reads
OVER_ORDER = ["~?@@", "?", "~~????", "~?@@" + "?" * 5]


@given(st.lists(st.tuples(any_graphs(), st.booleans(), st.integers(0, 6)),
                max_size=8))
@example([(path(63), False, 0), (complete(64), True, 6), (cycle(64), False, 1),
          (path(1), True, 0), (complete(62), False, 2)])
def test_corpus_reader_matches_per_record_decoder(records):
    lines = []
    for g, header, extra in records:
        lines.append((">>graph6<<" if header else "") + to_graph6(g))
        if extra < len(OVER_ORDER):
            lines.append(OVER_ORDER[extra])
        if extra == 5:
            lines.append("   ")
    check_reader(lines)
    check_reader([line.encode("ascii") + b"\n" for line in lines])


def test_corpus_reader_mixed_orders():
    rng = random.Random(7)
    lines = [to_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
    lines += [to_graph6(from_edges(n, [(0, 1)])) for n in range(3, 65)]
    lines += [to_graph6(path(n)) for n in range(1, 65)] + OVER_ORDER
    rng.shuffle(lines)
    check_reader(lines)
    graphs, skipped = connected_records(graph6_corpus(lines))
    assert skipped == 62 + len(OVER_ORDER)
    assert len({g.n for g in graphs}) == 64


@pytest.mark.parametrize("lines, error", [
    # non-ASCII at line 2 beats a malformed record of another order at line 5
    ([b"Bw", b"C\xffw", b"D??", b"", b"B"], "line 2: non-ASCII byte"),
    ([b"Bw", b"C", b"D??", b"", b"B\xff"], "line 2: malformed graph6 record 'C'"),
    (["Bg", "@", "Cx", "Bw", "D\x7f??"], "line 5: malformed graph6 record"),
    (["Bg", "C~", "Bwé", "~B"], "line 3: malformed graph6 record"),
    (["Bg", ">>graph6<<", "Bw"], "line 2: malformed graph6 record '>>graph6<<'"),
    (["~?@@", "Bg", "~B", "B"], "line 3: malformed graph6 record '~B'"),
    (["Bg", "~?@@" + "?" * 5, "Bww"], "line 3: malformed graph6 record 'Bww'"),
])
def test_corpus_first_error_in_file_order(lines, error):
    with pytest.raises(CorpusError) as want:
        ref_read(lines)
    with pytest.raises(CorpusError, match=error) as got:
        graph6_corpus(lines)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["", "B", "Bww", "B\x1f", "~B", "?", "~~????",
                                  "~?@@", "Bé", b"B\xffw", ">>graph6<<"])
def test_from_graph6_errors_match_reference(text):
    with pytest.raises((MalformedGraph6, UnsupportedOrder)) as want:
        ref_from_graph6(text)
    with pytest.raises(want.type) as got:
        from_graph6(text)
    assert str(got.value) == str(want.value)


def test_is_turan_matches_complement_reference():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            for omega in range(0, n + 2):
                assert is_turan(g, omega) == ref_is_turan(g, omega)


@given(same_order_stacks())
@example([path(64), cycle(64), complete(64)])
@example([complete(1)])
def test_distance_invariants_match_from_rows(graphs):
    def invariants(stack, k):
        return (tuple(map(tuple, stack.dist[k].tolist())), tuple(stack.trans[k].tolist()),
                int(stack.wiener[k]), int(stack.diam[k]), int(stack.sum_sq[k]))

    stack = order_groups(graphs)[0]
    for k, g in enumerate(graphs):
        own = order_groups([g])[0]
        assert invariants(stack, k) == ref_distance_invariants(stack.dist[k].tolist()) \
            == invariants(own, 0)


def stream(size=200, seed=11):
    """A seeded mixed-order stream: connected graphs of orders 8..24 over
    every density level, and every 25th record disconnected (its last
    vertex isolated)."""
    rng = random.Random(seed)
    lines = []
    for k in range(size):
        n = rng.randint(8, 24)
        density = STREAM_DENSITIES[k % len(STREAM_DENSITIES)]
        tree = {(rng.randrange(v), v) for v in range(1, n)}
        extra = {(i, j) for j in range(n) for i in range(j) if rng.random() < density}
        g = from_edges(n, tree | extra)
        if k % 25 == 24:
            g = Graph(n, tuple(row & ~(1 << n - 1) for row in g.adj[:-1]) + (0,))
        lines.append(to_graph6(g))
    return lines


def test_stream_report_pinned():
    reports = list(scan_reports(STREAM_IDS, stream()))
    assert [r.skipped for r in reports] == [8] * len(STREAM_IDS)
    digest = hashlib.sha256(b"".join(emit_report(r) for r in reports))
    assert digest.hexdigest() == STREAM_REPORT_SHA256
    csv = hashlib.sha256(b"".join(emit_report(r, "csv") for r in reports))
    assert csv.hexdigest() == STREAM_CSV_SHA256


def ref_clique_number(g: Graph) -> int:
    """Largest vertex set whose members are pairwise adjacent, by brute force."""
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    best = 0
    for mask in range(1, 1 << g.n):
        if mask.bit_count() > best and all(
                closed[v] & mask == mask for v in range(g.n) if (mask >> v) & 1):
            best = mask.bit_count()
    return best


@given(st.integers(1, 12).flatmap(connected_graphs))
def test_clique_number_matches_brute_force(g):
    assert bounds.clique_number(g) == ref_clique_number(g)


def test_clique_number_exhaustive():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert bounds.clique_number(g) == ref_clique_number(g)


def test_scan_runs_one_clique_search_per_graph(monkeypatch):
    searched = []
    real = bounds.clique_number
    monkeypatch.setattr(bounds, "clique_number",
                        lambda g: searched.append(g) or real(g))
    lines = stream(60)
    reports = list(scan_reports(["T5.1", "T5.2"], lines))
    graphs = connected_records(graph6_corpus(lines))[0]
    assert reports[0].graphs_checked == len(graphs) == len(set(graphs))
    # one search per graph, order group by order group
    assert sorted(searched, key=graphs.index) == graphs
    searched.clear()
    list(scan_reports(STREAM_IDS, 6))
    assert searched == list(enumerate_connected(6))
