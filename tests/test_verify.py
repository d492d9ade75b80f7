import hashlib
import importlib.util
import itertools
import json
import os
import random
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from distlap import (
    EQUALITY_TOL,
    SLACK,
    BoundVerdict,
    Verdicts,
    CorpusError,
    InvalidParams,
    SCAN_IDS,
    UnknownTheorem,
    canonical_form,
    check_lemma23,
    check_lemma24,
    check_lemma74,
    compare_kite_tstar,
    build,
    delete_edge,
    dist_laplacian,
    dist_signless_laplacian,
    eigenvalues,
    emit_report,
    enumerate_connected,
    family_spec,
    fixture31_determinant,
    fixture61_determinant,
    from_edges,
    from_graph6,
    graph6_corpus,
    is_connected,
    not_applicable,
    order_groups,
    proof_fixture_theorem31,
    proof_fixture_theorem61,
    scan_reports,
    table1_regression,
    to_graph6,
)
from distlap import bounds, spectra, verify
from distlap.graphs import adjacency_stack, connected
from distlap.spectra import distance_spectra
from distlap.bounds import CHECKS, FORMULAS
from distlap.verify import _json_value

from test_ingest import stream
from test_properties import stacked_verdicts

# sha256 of the reports of the per-id scan that the one-pass scan replaced:
# every id's JSON report for n = 1..7 concatenated, and each id's CSV reports
# for n = 1..7 concatenated, which pin every witness's bound and observed
# value (T4.2, T6.1 and T6.4 name no graph: seven header lines each)
REPORTS_JSON_SHA256 = "152dfd91665a12c049a0373451cec742b4ea8936d92c254b8a1ba0f82ad869ef"
REPORTS_CSV_SHA256 = {
    "L3.1": "898a25db24780cea60c4622736769c060f23ec26e20bcea067ebf08d35f9538c",
    "T3.1": "4980fda85cbdfbc4108b6e037339eb81c026bbfac533f0a29c5e10f5d39079a5",
    "T3.2": "1aca650685127e3bcd858ad896f7c0105658648a576fad71a2531063ab0e5691",
    "T4.1": "37cdafaab8206356bc9b72b101288b751a537f91d7fbf908298829e170652c3e",
    "T4.2": "7e7b47a3fc3fb3ce6fe1b9d557a9f4f86a13ebe13506bdbc45f3757cb8f59d83",
    "T5.1": "e27209600c47b16118b0bc0899d5a70eb8f25f19d5d40bf60e91940b04254843",
    "T5.2": "52b59eac26f81d82951390f11c5f0024b349ca1bb0feebe0ac1ce7a06127c647",
    "T6.1": "7e7b47a3fc3fb3ce6fe1b9d557a9f4f86a13ebe13506bdbc45f3757cb8f59d83",
    "T6.2": "f8e77330d4f3c7f1321925fb6adda505b46c2079d315ef7713c1dee6fefb73f1",
    "T6.3": "f32d81f4680a2642deaedf186faa80800737f82e24de57da0b4e9e56635524f2",
    "C6.1": "db7e2ece634885c5fe677dd8e08ff1f96b08fc1235150bedbdb1101c7442f0ee",
    "T6.4": "7e7b47a3fc3fb3ce6fe1b9d557a9f4f86a13ebe13506bdbc45f3757cb8f59d83",
    "T7.1": "f4c6bb707b0ab270a0cf7e3a92e1fe44617cca1c10a5c4b9d0054a6435c012a8",
    "L4.1": "7c9702be46290ee5c2688b776acf6da5f18494c6755fd36aad48a7dcf12fd3a3",
    "L4.2": "059ab13abec780e420cc4400eb9cc6056c24e0cbf5490670ef0eb00bc97ac1da",
    "L2.3": "b0f203954935918eca88bd8f03fb7dad422d434b7a45160c49268737f8e546c0",
    "L2.4": "397bdb8cb35b7cb80bd3a7b681538fbfdeb76136ea5b5bfae27e409312032715",
}

# sha256 of the newline-joined graph6 of enumerate_connected(n) from the
# enumerator that filtered every labelled connected mask before the sweep
ENUMERATION_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec",
    4: "eb3044c0e6b719df19467100993dfd0583066994461626084eb3e46eeb29efe6",
    5: "bad40746036227cbfdceea3e505f039a6eb2972939b9a2c507f14c088f3ea56e",
    6: "c727f559e01cb751f9f685b87dea4ce7ba7c7771420f2db80467b8399d689317",
    7: "b6b2dbb7f539a6e2c86548111920a3ab24e409b4c32f603d87b444536be4c463",
}

# sha256 of every CHECKS verdict called per graph on the connected graphs
# of order 1..6 (enumeration order, ids in SCAN_IDS order), one JSON object
# per line: witness dicts, non-applicable values and strict flags included
VERDICTS_SHA256 = "8f3582a1c1802c06e856084dcb024e8d072eadcdc82853a97f3196b94a79c6b5"

# sha256 of the JSON and of the CSV reports of scan_reports(["L2.3", "L2.4"],
# test_ingest.stream()), orders 8..24; each matrix is solved on its own, so
# these bytes do not depend on how the deletions are stacked or sliced
STREAM_DELETION_JSON_SHA256 = "af3505276d2bfb029ab9ff00fafb809afa0eebb37316bf794990d5406cee0624"
STREAM_DELETION_CSV_SHA256 = "609a8a459f3dad20d701e30508106be516410c01e60aab9cd70d6aedd45919d8"


def fam(kind, *params):
    return build(family_spec(kind, *params))


def fake_formula(tid, holds, equality=lambda s: False, bound=1.0,
                 observed=0.0, witness=None):
    """An array-form check that applies to every graph: holds(s) and
    equality(s) give the flags of order group s's rows, strict is False."""
    def formula(s, tol):
        ones = np.ones(len(s.ks), dtype=bool)
        return Verdicts(tid, np.full(len(ones), bound), np.full(len(ones), observed),
                        holds(s) & ones, ~ones, equality(s) & ones, ones,
                        lambda r: dict(witness or {}))
    return formula


def test_scan_ids():
    assert len(SCAN_IDS) == 17
    assert "L2.3" in SCAN_IDS and "L2.4" in SCAN_IDS and "T3.1" in SCAN_IDS


def test_scan_native_corpus():
    r = next(scan_reports(["T3.1"], 5))
    assert r.corpus == "n=5" and r.graphs_checked == 21 and r.skipped == 0
    assert r.violations == []
    assert to_graph6(fam("Star", 5)) in r.equality_witnesses or any(
        canonical_form(from_graph6(w)) == canonical_form(fam("Star", 5))
        for w in r.equality_witnesses
    )


def equality_classes(n):
    """The paper's equality graphs of order n, by id, for the ids that
    characterise theirs: each class built from its family."""
    minus = [("CompleteMinusMatching", n, k) for k in range(1, n // 2 + 1) if n >= 3]
    # T4.1 and L4.2 apply from n = 4 on
    clique = [("Complete", n), ("CompleteMinusMatching", n, 1)] * (n >= 4)
    # T5.1: complete omega-partite graphs whose largest part is ceil(n/omega)
    multipartite = [("CompleteMultipartite", *parts)
                    for omega in range(2, n)
                    for parts in itertools.combinations_with_replacement(
                        range(-(-n // omega), 0, -1), omega)
                    if sum(parts) == n and parts[0] == -(-n // omega)]
    return {"T3.2": [("Complete", n)] + minus, "T4.1": clique, "L4.2": clique,
            "T5.1": multipartite,
            "T5.2": [("KiteClique", n, omega) for omega in range(2, n + 1)],
            "T6.2": [("Star", n)] * (n >= 4), "T7.1": [("Kite3", n)] * (n >= 6)}


def test_equality_witnesses_are_the_paper_classes():
    # each id's witnesses at n = 2..7 are its classes, none missing and
    # none extra, one witness a class
    for n in range(2, 8):
        classes = equality_classes(n)
        for r in scan_reports(classes, n):
            assert not r.violations, (r.theorem_id, n)
            got = [canonical_form(from_graph6(w)) for w in r.equality_witnesses]
            want = {canonical_form(fam(*spec)) for spec in classes[r.theorem_id]}
            assert sorted(got) == sorted(want), (r.theorem_id, n)


def test_scan_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        next(scan_reports(["T9.9"], 4))


def test_scan_stream_and_skips():
    # disconnected and over-order records are skipped, not errors
    lines = ["Bw", "A?", "~?@@", "Bg"]
    r = next(scan_reports(["T6.4"], lines))
    assert r.corpus == "stream"
    assert r.graphs_checked == 2 and r.skipped == 2
    with pytest.raises(CorpusError):
        next(scan_reports(["T6.4"], ["Bw", "B"]))


def test_scan_file_corpus(tmp_path):
    p = tmp_path / "c.g6"
    p.write_text(">>graph6<<Bw\nBg\n\nA?\n")
    r = next(scan_reports(["L3.1"], str(p)))
    assert r.corpus == f"file:{p}"
    assert r.graphs_checked == 2 and r.skipped == 1
    with pytest.raises(CorpusError):
        next(scan_reports(["L3.1"], str(tmp_path / "missing.g6")))
    # a bytes path names a file, as open() takes it, not a stream of ints
    by_bytes, by_path = (next(scan_reports(["L3.1"], c)) for c in (os.fsencode(p), p))
    assert by_bytes == r == by_path


def test_scan_determinism():
    # two runs, and a single-id versus a multi-id scan, give identical bytes;
    # so does each deletion lemma named alone, whose scan solves both signs
    r1 = next(scan_reports(["T3.1"], 6))
    r2 = next(scan_reports(["T3.1"], 6))
    multi = list(scan_reports(["L2.4", "T3.1", "L2.3"], 6))
    for fmt in ("json", "csv"):
        assert emit_report(r1, fmt) == emit_report(r2, fmt) == emit_report(multi[1], fmt)
        for r in (multi[0], multi[2]):
            alone = next(scan_reports([r.theorem_id], 6))
            assert emit_report(alone, fmt) == emit_report(r, fmt)


def test_scan_many_report_digests():
    reports = hashlib.sha256()
    csv = {tid: hashlib.sha256() for tid in REPORTS_CSV_SHA256}
    for n in range(1, 8):
        for r in scan_reports(SCAN_IDS, n):
            reports.update(emit_report(r))
            if r.theorem_id in csv:
                csv[r.theorem_id].update(emit_report(r, format="csv"))
    assert reports.hexdigest() == REPORTS_JSON_SHA256
    assert {tid: h.hexdigest() for tid, h in csv.items()} == REPORTS_CSV_SHA256


def test_per_graph_verdicts_pinned():
    """Alone pins values: every per-graph checker's verdict on every
    connected graph of order <= 6, witness included, reported or not, to
    one digest. test_scan_verdicts_equal_per_graph_checks compares the
    stacked path with these checkers, but pins nothing."""
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for tid in SCAN_IDS:
                v = CHECKS[tid](g)
                digest.update((_json_value(asdict(v)) + "\n").encode())
                count += 1
    assert count == 2431
    assert digest.hexdigest() == VERDICTS_SHA256


def test_scan_many_fail_fast_per_id():
    def fails_from(order):
        return fake_formula("X", lambda s: s.n < order)

    FORMULAS.update({"X1.0": fails_from(3), "X1.1": fails_from(5),
                     "X1.2": fails_from(99)})
    try:
        lines = [to_graph6(fam("Path", n)) for n in (2, 3, 4, 5, 6)]
        ids = ["X1.0", "X1.1", "X1.2", "T6.4", "X1.0"]
        many = list(verify.scan_reports(ids, lines, fail_fast=True))
        assert [r.theorem_id for r in many] == ids
        assert [r.graphs_checked for r in many] == [2, 4, 5, 5, 2]
        for tid, r in zip(ids, many):
            [single] = verify.scan_reports([tid], lines, fail_fast=True)
            assert r.graphs_checked == single.graphs_checked
            assert emit_report(r) == emit_report(single)
    finally:
        for tid in ("X1.0", "X1.1", "X1.2"):
            del FORMULAS[tid]


def test_scan_non_ascii_stream():
    with pytest.raises(CorpusError, match="line 2: non-ASCII byte"):
        next(scan_reports(["T6.4"], [b"Bw", b"B\xffw"]))
    with pytest.raises(CorpusError, match="line 3: malformed"):
        next(scan_reports(["T6.4"], [b"Bw", b"", b"B"]))


def test_scan_fail_fast_stops_early():
    FORMULAS["X0.0"] = fake_formula("X0.0", lambda s: False)
    try:
        lines = [to_graph6(fam("Path", n)) for n in (2, 3, 4, 5)]
        [r] = verify.scan_reports(["X0.0"], lines, fail_fast=True)
        assert r.graphs_checked == 1 and len(r.violations) == 1
        r = next(scan_reports(["X0.0"], lines))
        assert r.graphs_checked == 4 and len(r.violations) == 4
    finally:
        del FORMULAS["X0.0"]


def test_fail_fast_and_report_order_follow_the_file():
    # orders 5, 3, 4, 3: the order groups run 5, 3, 4, so a pass in group
    # order would meet K3 (position 3) before P4 (position 2)
    lines = [to_graph6(g) for g in (fam("Path", 5), fam("Path", 3),
                                    fam("Path", 4), fam("Complete", 3))]
    FORMULAS["X2.0"] = fake_formula(
        "X2.0", lambda s: ~((s.n == 4) | (s.m == s.n)), equality=lambda s: True)
    try:
        r = next(scan_reports(["X2.0"], lines))
        assert r.graphs_checked == 4
        assert [g6 for g6, _ in r.violations] == lines[2:]
        assert r.equality_witnesses == lines
        # the first violation in file order is P4, at position 2
        [r] = verify.scan_reports(["X2.0"], lines, fail_fast=True)
        assert r.graphs_checked == 2 + 1
        assert [g6 for g6, _ in r.violations] == [lines[2]]
        assert r.equality_witnesses == lines[:3]
    finally:
        del FORMULAS["X2.0"]


def _deletion_oracle(g, matrix_fn, theorem_id, tol=EQUALITY_TOL):
    # one delete_edge, is_connected and eigensolve per edge
    base = eigenvalues(matrix_fn(g))
    gaps = []
    for e in g.edges():
        h = delete_edge(g, e)
        if is_connected(h):
            vals = eigenvalues(matrix_fn(h))
            gaps.append(min(b - a for a, b in zip(base, vals)))
    if not gaps:
        return not_applicable(theorem_id, witness={"deletions_checked": 0})
    gap = min(gaps)
    return BoundVerdict(theorem_id, 0.0, gap, holds=gap >= -1e-9,
                        strict=gap > SLACK, equality=abs(gap) <= tol,
                        witness={"deletions_checked": len(gaps)})


def _lemma23_oracle(g):
    """The per-edge oracle of L2.3 with its least gap, float noise within
    1e-12 of 0, replaced by the exact 0 that the proof gives the checks;
    the flags stay the oracle's."""
    v = _deletion_oracle(g, dist_laplacian, "L2.3")
    assert abs(v.observed) <= 1e-12
    return replace(v, observed=0.0)


def _random_connected(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree
    p = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    edges |= {(i, j) for j in range(n) for i in range(j) if rng.random() < p}
    return from_edges(n, edges)


def test_stacked_deletions_match_per_edge_oracle():
    """Alone covers breadth through the per-graph checkers: 200 random
    graphs of orders 1..12 plus paths, complete graphs and stars, each on
    its own one-graph stack at the default slice, against the per-edge
    oracle. test_scan_many_deletions_match_per_edge_oracle covers a
    mixed-order corpus stack, the slice split and the solve count. L2.3's
    gap is exactly 0, by its proof, where the oracle's is noise."""
    rng = random.Random(23)
    graphs = [_random_connected(rng, rng.randint(1, 12)) for _ in range(200)]
    for n in range(1, 13):
        graphs += [fam("Path", n), fam("Complete", n)] + ([fam("Star", n)] if n >= 2 else [])
    for g in graphs:
        assert check_lemma23(g) == _lemma23_oracle(g)
        assert check_lemma24(g) == _deletion_oracle(g, dist_signless_laplacian, "L2.4")


def test_scan_many_deletions_match_per_edge_oracle(monkeypatch):
    """Alone covers the corpus stack: each order's deletions of a
    mixed-order corpus solved in one _deletion_gaps call, the small slice splitting each
    order's stack, and the deletions of one graph, across many solves, and
    the scan's reports, all against the per-edge oracle.
    test_stacked_deletions_match_per_edge_oracle covers more graphs, one
    stack each. Deleting the edge (0, n - 1) of a cycle leaves the labelled
    path of the corpus, and K_3 listed twice repeats deletions that are not
    in the corpus; each kept deletion is still solved once, for Tr + D.
    L2.3's gap is exactly 0, by its proof, where the oracle's is noise."""
    rng = random.Random(29)
    graphs = [_random_connected(rng, rng.randint(1, 12)) for _ in range(60)]
    for n in range(1, 13):
        graphs += [fam("Path", n), fam("Complete", n)] + ([fam("Star", n)] if n >= 2 else [])
        graphs += [fam("Cycle", n)] if n >= 3 else []
    graphs.append(fam("Complete", 3))
    want = {"L2.3": [_lemma23_oracle(g) for g in graphs],
            "L2.4": [_deletion_oracle(g, dist_signless_laplacian, "L2.4")
                     for g in graphs]}
    assert spectra.SOLVE_SLICE == 1 << 14
    for budget in (spectra.SOLVE_SLICE, 300):
        monkeypatch.setattr(spectra, "SOLVE_SLICE", budget)
        solves, stacks = [], []
        real_gaps, real_eig = bounds._deletion_gaps, spectra.eigenvalues_stacked
        monkeypatch.setattr(bounds, "_deletion_gaps", lambda group: solves.append(
            len(stacks)) or real_gaps(group))
        monkeypatch.setattr(spectra, "eigenvalues_stacked",
                            lambda m: stacks.append(m.shape) or real_eig(m))
        groups = order_groups(graphs)
        got = {tid: stacked_verdicts(groups, tid) for tid in want}
        monkeypatch.undo()
        # one _deletion_gaps call per order group, after the groups' own
        # solves
        assert len(solves) == len(groups) == 12
        deletions = stacks[solves[0]:]
        assert max(np.prod(shape) for shape in stacks) <= budget
        kept = sum(group.facts["deletions"][0].sum() for group in groups)
        assert sum(shape[0] for shape in deletions) == kept > 0
        # one solve per edge slice that keeps a deletion: none for orders 1
        # and 2, one slice each for orders 3..9 and 2, 3 and 3 for orders
        # 10..12, or many once the slice is small
        assert (len(deletions) > 100) if budget == 300 else (len(deletions) == 15)
        assert got == want
    lines = [to_graph6(g) for g in graphs]
    for r in scan_reports(["L2.3", "L2.4"], lines):
        named = [(g6, v) for g6, v in zip(lines, want[r.theorem_id])
                 if v.applicable and (v.equality or not v.holds)]
        assert r.violations == [(g6, v) for g6, v in named if not v.holds]
        assert r.witnesses == [(g6, v) for g6, v in named if v.equality]


def test_stream_deletion_reports_pinned():
    reports = list(scan_reports(["L2.3", "L2.4"], stream()))
    assert [r.skipped for r in reports] == [8, 8]
    digest = hashlib.sha256(b"".join(emit_report(r) for r in reports))
    assert digest.hexdigest() == STREAM_DELETION_JSON_SHA256
    csv = hashlib.sha256(b"".join(emit_report(r, "csv") for r in reports))
    assert csv.hexdigest() == STREAM_DELETION_CSV_SHA256


def test_deletion_solve_memory_bounded():
    # both signs in one call per order group, for the stream's 192 connected
    # graphs, orders 8..24, and for the 853 of the n = 7 corpus: the traced
    # peak stays within a few slices, whatever the number of deletions
    for graphs in ([g for *_, g, ok in graph6_corpus(stream()) if ok],
                   list(enumerate_connected(7))):
        groups = order_groups(graphs)
        tracemalloc.start()
        try:
            for group in groups:
                bounds._deletion_gaps(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def test_scan_solves_each_kept_deletion_once(monkeypatch):
    # each of the 8,933 connected single-edge deletions of the n = 7 corpus
    # is solved once for distances and once for Tr + D, never for Tr - D,
    # in the slice of edges that finds it, within the budget; a child equal
    # to a corpus graph or to another child is solved again
    dist, stacks, start = [], [], []
    real_dist, real_eig = spectra.distances, spectra.eigenvalues_stacked
    real_gaps = bounds._deletion_gaps
    monkeypatch.setattr(spectra, "distances", lambda a: dist.append(a.shape) or real_dist(a))
    # Tr + D has no negative entry, while Tr - D of an order >= 2 has
    monkeypatch.setattr(spectra, "eigenvalues_stacked", lambda m: stacks.append(
        (m.shape, bool((m >= 0).all()))) or real_eig(m))
    monkeypatch.setattr(bounds, "_deletion_gaps", lambda group: start.append(
        (len(dist), len(stacks))) or real_gaps(group))
    list(scan_reports(["L2.3", "L2.4"], 7))
    monkeypatch.undo()
    dist, stacks = dist[start[0][0]:], stacks[start[0][1]:]
    assert sum(shape[0] for shape in dist) == 8933
    assert sum(shape[0] for shape, _ in stacks) == 8933
    assert all(signless for _, signless in stacks)
    assert max(np.prod(shape) for shape in dist + [shape for shape, _ in stacks]) \
        <= spectra.SOLVE_SLICE


def _kept_deletions(adj):
    """(row, sub): every single-edge deletion of a boolean adjacency stack
    that stays connected, as its graph's row and its adjacency."""
    row, i, j = np.nonzero(np.triu(adj, 1))
    sub = adj[row]
    sub[np.arange(len(row)), i, j] = sub[np.arange(len(row)), j, i] = False
    keep = connected(sub)
    return row[keep], sub[keep]


def test_deletion_lemmas_certified_by_distance_rise():
    """The certificate behind L2.3 and L2.4 on every kept deletion of the
    n <= 7 corpus: deleting an edge never shortens a path, so W = D(G - e)
    - D(G) >= 0 entrywise, and L(G - e) - L(G) = Diag(W 1) - W and
    Q(G - e) - Q(G) = Diag(W 1) + W are positive semidefinite; by Weyl no
    eigenvalue of either falls, so every row holds and the float gaps are
    noise around 0. L2.3 is decided by this proof: its gap is exactly 0. At
    n = 7 the ties of this test's own solves (gaps within the equality
    tolerance) are pinned in three readings: all indices, as L2.4 reads
    them, all but the smallest, and the radius alone."""
    kept = 0
    for n in range(2, 8):  # K_1 has no edge to delete
        group, = order_groups(list(enumerate_connected(n)))
        row, sub = _kept_deletions(group.adj)
        dist, solved = distance_spectra(sub, (-1, 1))
        assert (dist >= group.dist[row]).all()
        kept += len(row)
        # the least W entry is exactly 0 where a deletion is kept, inf elsewhere
        counts, fact = group.fact("deletions", bounds._deletion_gaps)
        assert np.array_equal(counts, np.bincount(row, minlength=len(counts)))
        assert np.array_equal(fact[:, 0], np.where(counts > 0, 0.0, np.inf))
        ties = []
        for tid, base, vals in zip(("L2.3", "L2.4"), (group.dl, group.dq), solved):
            v = FORMULAS[tid](group, EQUALITY_TOL)
            assert v.holds.all()
            rise = vals - base[row]
            gaps = np.full((3, len(group.ks)), np.inf)
            for gap, least in zip(gaps, (rise.min(axis=1), rise[:, :-1].min(axis=1),
                                         rise[:, 0])):
                np.minimum.at(gap, row, least)
            # L2.4 reads all indices, bit for bit, and L2.3 reads exactly 0
            assert np.array_equal(v.applicable, np.isfinite(gaps[0]))
            observed = v.observed[v.applicable]
            if tid == "L2.3":
                assert (observed == 0).all()
            else:
                assert np.array_equal(observed, gaps[0][v.applicable])
            ties.append((abs(gaps) <= EQUALITY_TOL).sum(axis=1).tolist())
    assert kept == 9909
    assert ties == [[842, 687, 487], [676, 664, 0]]


def test_deletion_certificate_holds_on_stream():
    """W = D(G - e) - D(G) >= 0 entrywise on every kept deletion of the
    1,000-graph seed-0 stream of perfbench/inputs.py (orders 8..24), the
    certificate of test_deletion_lemmas_certified_by_distance_rise beyond
    the exhaustive orders. Only distances are solved: that no L2.3 or L2.4
    row fails on this stream is pinned by the CI deletion-CSV digest."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    graphs = [g for *_, g, ok in graph6_corpus(inputs.stream_graphs(0)) if ok]
    kept = 0
    for n in sorted({g.n for g in graphs}):
        adj = adjacency_stack([g for g in graphs if g.n == n])
        row, sub = _kept_deletions(adj)
        (base, _), (dist, _) = distance_spectra(adj, ()), distance_spectra(sub, ())
        assert (dist >= base[row]).all()
        kept += len(row)
    assert (len(graphs), kept) == (1000, 37300)


def test_scan_reports_stream_each_id_when_due(monkeypatch):
    # L3.1 needs neither the clique search nor the deletion solves, so its
    # report comes before either runs; the search starts at T5.1, and the
    # first deletion lemma solves both signs in one call. Each named graph
    # is encoded once across all reports, which match an unpatched scan's bytes
    calls, encoded = [], []
    real_gaps, real_omega, real_g6 = bounds._deletion_gaps, bounds.clique_number, to_graph6
    monkeypatch.setattr(bounds, "_deletion_gaps", lambda group: calls.append(
        "gaps") or real_gaps(group))
    monkeypatch.setattr(bounds, "clique_number",
                        lambda g: calls.append("omega") or real_omega(g))
    monkeypatch.setattr(verify, "to_graph6", lambda g: encoded.append(real_g6(g)) or encoded[-1])
    reports, seen = [], {}
    for r in verify.scan_reports(SCAN_IDS, 6):
        reports.append(r)
        seen[r.theorem_id] = (calls.count("omega"), [c for c in calls if c != "omega"])
    monkeypatch.undo()
    assert list(seen) == list(SCAN_IDS)
    assert seen["L3.1"] == (0, [])
    first_search = SCAN_IDS.index("T5.1")
    assert all(seen[tid][0] == 0 for tid in SCAN_IDS[:first_search])
    assert all(seen[tid][0] == 112 for tid in SCAN_IDS[first_search:])
    first_solve = SCAN_IDS.index("L2.3")
    assert all(seen[tid][1] == [] for tid in SCAN_IDS[:first_solve])
    assert all(seen[tid][1] == ["gaps"] for tid in SCAN_IDS[first_solve:])
    named = {g6 for r in reports for g6 in [*r.equality_witnesses,
                                           *(g6 for g6, _ in r.violations)]}
    assert sorted(encoded) == sorted(named) and len(named) > 1
    unpatched = scan_reports(SCAN_IDS, 6)
    assert [emit_report(r) for r in reports] == [emit_report(r) for r in unpatched]


def test_scan_reports_repeated_id_evaluated_once(monkeypatch):
    runs = []
    formula = FORMULAS["L2.3"]
    monkeypatch.setitem(FORMULAS, "L2.3", lambda group, tol: runs.append(group.n)
                        or formula(group, tol))
    first, second = verify.scan_reports(["L2.3", "L2.3"], 6)
    assert runs == [6] and emit_report(first) == emit_report(second)


def test_enumerate_connected_pinned():
    for n, digest in ENUMERATION_SHA256.items():
        text = "\n".join(to_graph6(g) for g in enumerate_connected(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_edge_deletion_checks():
    # trees have no surviving deletion, so the lemma does not apply
    assert check_lemma23(fam("Path", 4)).applicable is False
    v = check_lemma23(fam("Cycle", 4))
    assert v.applicable and v.holds
    assert v.witness["deletions_checked"] == 4
    v = check_lemma24(fam("Cycle", 5))
    assert v.applicable and v.holds
    r = next(scan_reports(["L2.3"], 5))
    assert not r.violations
    r = next(scan_reports(["L2.4"], 5))
    assert not r.violations


def test_emit_report_json_schema():
    r = next(scan_reports(["T6.3"], 4))
    raw = emit_report(r)
    obj = json.loads(raw)
    assert list(obj.keys()) == ["theorem_id", "corpus", "tolerance",
                                "graphs_checked", "skipped", "violations",
                                "equality_witnesses"]
    assert obj["theorem_id"] == "T6.3" and obj["graphs_checked"] == 6
    assert obj["tolerance"] == 1e-7
    # complete graph attains 2W/n - 1 exactly
    assert any(canonical_form(from_graph6(w)) == canonical_form(fam("Complete", 4))
               for w in obj["equality_witnesses"])
    assert "wall_time" not in raw.decode()


def test_emit_report_csv():
    r = next(scan_reports(["T6.3"], 4))
    lines = emit_report(r, format="csv").decode().splitlines()
    assert lines[0] == "theorem_id,graph6,bound,observed,holds,equality"
    assert all(line.startswith("T6.3,") for line in lines[1:])
    assert any(line.endswith(",true,true") for line in lines[1:])
    with pytest.raises(ValueError):
        emit_report(r, format="yaml")


def test_emit_report_violation_serialization():
    FORMULAS["X0.1"] = fake_formula(
        "X0.1", lambda s: False, bound=2.5, observed=1.0,
        witness={"flag": True, "count": 3, "note": "x"})
    try:
        r = next(scan_reports(["X0.1"], ["Bw"]))
        obj = json.loads(emit_report(r))
        v = obj["violations"][0]
        assert v["graph6"] == "Bw"
        assert list(v["verdict"].keys()) == ["theorem_id", "bound_value",
                                             "observed", "holds", "strict",
                                             "equality", "applicable", "witness"]
        assert v["verdict"]["witness"] == {"flag": True, "count": 3, "note": "x"}
        csv = emit_report(r, format="csv").decode().splitlines()
        assert csv[1] == "X0.1,Bw,2.5,1,false,false"
    finally:
        del FORMULAS["X0.1"]


def test_emit_report_csv_violations_before_witnesses():
    # no pinned scan report has a violation, so the row order is checked
    # here, with a corpus path that is not ASCII
    bad = BoundVerdict("X0.1", 2.5, 1.0 / 3, holds=False, strict=False, equality=False)
    tight = BoundVerdict("X0.1", 4.0, 4.0, holds=True, strict=False, equality=True)
    r = verify.ScanReport("X0.1", "file:/tmp/dönnées.g6", 2, 0, [("Bw", bad)],
                          [("Bg", tight)], 1e-7)
    assert r.equality_witnesses == ["Bg"]
    assert emit_report(r, format="csv").decode().splitlines()[1:] == [
        "X0.1,Bw,2.5,0.333333333333,false,false", "X0.1,Bg,4,4,true,true"]
    header = ("X0.1 corpus=file:/tmp/dönnées.g6 checked=2 skipped=0 "
              "violations=1 equality_witnesses=1")
    tail = "holds=False strict=False equality=False applicable=True"
    assert emit_report(r, "text").decode("utf-8").splitlines() == [
        header, f"  VIOLATION Bw X0.1 bound=2.5000 observed=0.3333 {tail}"]
    assert emit_report(r, "text", True).decode("utf-8").splitlines() == [
        header, f"  VIOLATION Bw X0.1 bound=2.5 observed=0.333333333333 {tail}"]
    assert '"corpus": "file:/tmp/d\\u00f6nn\\u00e9es.g6"' in emit_report(r).decode("ascii")


def test_json_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _json_value(bad)
        with pytest.raises(ValueError):
            _json_value({"witness": [1.0, bad]})


def test_table1_regression():
    r = table1_regression()
    assert r.theorem_id == "L7.3" and r.corpus == "table1"
    assert [row[0] for row in r.rows] == [7, 8, 9, 10, 11, 12, 13]
    for n, kite, tstar, ok in r.rows:
        assert kite > tstar  # the ordering claim itself holds on every row
        if n == 12:
            # reference T* value 92.9528 is a digit transposition of the
            # recomputed 92.9582; the row honestly reports the mismatch
            assert not ok
            assert abs(tstar - 92.95818241589201) < 1e-9
        else:
            assert ok
    assert len(r.violations) == 1
    label, verdict = r.violations[0]
    assert label == "tstar:12"
    assert verdict.bound_value == 92.9528  # the deviating reference cell
    assert abs(verdict.observed - 92.95818241589201) < 1e-9
    csv = emit_report(r, format="csv").decode().splitlines()
    assert csv[0] == "n,kite,tstar,pass"
    assert sum(1 for line in csv[1:] if line.endswith(",false")) == 1


def test_table1_violation_labels(monkeypatch):
    """A row that misses names the first condition it misses: its kite
    cell, then its T* cell, then the order kite > T*."""
    kite, tstar, radii = verify.TABLE1_KITE, verify.TABLE1_TSTAR, verify._kite_tstar_radii

    def violations(kite_table, tstar_table, swap=False):
        monkeypatch.setattr(verify, "TABLE1_KITE", kite_table)
        monkeypatch.setattr(verify, "TABLE1_TSTAR", tstar_table)
        monkeypatch.setattr(verify, "_kite_tstar_radii",
                            lambda n: radii(n)[::-1] if swap else radii(n))
        r = table1_regression()
        # one violation for each row that fails, in row order
        assert [int(label.split(":")[1]) for label, _ in r.violations] == [
            n for n, *_, ok in r.rows if not ok]
        return dict(r.violations)

    assert list(violations(kite, tstar)) == ["tstar:12"]
    assert list(violations(kite, tstar | {8: tstar[8] + 1})) == ["tstar:8", "tstar:12"]
    # at n = 12 both cells miss, and the kite cell is named
    assert list(violations(kite | {7: kite[7] + 1, 12: kite[12] + 1}, tstar)) == [
        "kite:7", "kite:12"]
    # radii and tables swapped: every row misses only the order, except
    # n = 12, which misses its (now kite) cell first
    swapped = violations(tstar, kite, swap=True)
    assert list(swapped) == [f"order:{n}" for n in range(7, 12)] + ["kite:12", "order:13"]
    # an order violation's bound is the computed T* radius (here the real
    # kite's), its observed value the computed kite radius
    v = swapped["order:7"]
    assert (v.bound_value, v.observed) == tuple(radii(7))


def test_compare_kite_tstar_beyond_table():
    for n in range(14, 21):
        v = compare_kite_tstar(n)
        assert v.holds and v.strict
    with pytest.raises(InvalidParams):
        compare_kite_tstar(6)


def test_fixture31():
    r = proof_fixture_theorem31(5, 1, dprime=8)
    assert r.shape == (3, 3)
    d = fixture31_determinant(5, 1, dprime=8)
    assert abs(d - (-50.0 / 3.0)) < 1e-12
    got = np.linalg.det((8.0 + 2.0) * np.eye(3) - r)
    assert abs(got - d) < 1e-9 * max(1.0, abs(d))
    # at the default transmission the determinant vanishes identically
    assert fixture31_determinant(7, 3) == 0.0
    r = proof_fixture_theorem31(7, 3)
    dd = 2 * 7 - 3 - 2
    assert abs(np.linalg.det((dd + 2.0) * np.eye(3) - r)) < 1e-9
    with pytest.raises(InvalidParams):
        proof_fixture_theorem31(5, 4)
    with pytest.raises(InvalidParams):
        proof_fixture_theorem31(5, 0)


def test_fixture61():
    assert fixture61_determinant(1, 1) == -192.0
    assert fixture61_determinant(2, 1) == -376.0
    for n1, n2 in [(1, 1), (2, 1), (3, 3), (5, 2)]:
        r = proof_fixture_theorem61(n1, n2)
        assert r.shape == (4, 4)
        n = n1 + n2 + 2
        got = np.linalg.det((2.0 * n + 2.0) * np.eye(4) - r)
        want = fixture61_determinant(n1, n2)
        assert abs(got - want) < 1e-6 * abs(want)
    with pytest.raises(InvalidParams):
        proof_fixture_theorem61(0, 1)


def test_lemma74():
    for n1, n2 in [(3, 2), (3, 3), (5, 4)]:
        v = check_lemma74(n1, n2)
        assert v.theorem_id == "L7.4" and v.holds and v.strict
    with pytest.raises(InvalidParams):
        check_lemma74(2, 2)  # order 6 < 7
    with pytest.raises(InvalidParams):
        check_lemma74(3, 1)
    with pytest.raises(InvalidParams):
        check_lemma74(2, 3)
