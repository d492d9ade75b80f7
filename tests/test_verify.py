import hashlib
import json
import random
from dataclasses import asdict

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
    is_connected,
    not_applicable,
    proof_fixture_theorem31,
    proof_fixture_theorem61,
    scan,
    scan_many,
    table1_regression,
    to_graph6,
)
from distlap import bounds, verify
from distlap.bounds import CHECKS, FORMULAS
from distlap.verify import _json_value

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
    "L2.3": "5de771ea94fa7e89898048691c94df6b63bcc15edd62f49674cc4e1a96c7c410",
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
VERDICTS_SHA256 = "61ad307dfa9244c9c3f94e9a02bb7b64c8edc2a8341023821ebfa6d6e5b66de1"


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
    r = scan("T3.1", 5)
    assert r.corpus == "n=5" and r.graphs_checked == 21 and r.skipped == 0
    assert r.passed and r.violations == []
    assert to_graph6(fam("Star", 5)) in r.equality_witnesses or any(
        canonical_form(from_graph6(w)) == canonical_form(fam("Star", 5))
        for w in r.equality_witnesses
    )


def test_scan_theorem32_census():
    r = scan("T3.2", 5)
    assert r.passed
    want = {canonical_form(fam("Complete", 5)),
            canonical_form(fam("CompleteMinusMatching", 5, 1)),
            canonical_form(fam("CompleteMinusMatching", 5, 2))}
    got = {canonical_form(from_graph6(w)) for w in r.equality_witnesses}
    assert got == want


def test_scan_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        scan("T9.9", 4)


def test_scan_stream_and_skips():
    # disconnected and over-order records are skipped, not errors
    lines = ["Bw", "A?", "~?@@", "Bg"]
    r = scan("T6.4", lines)
    assert r.corpus == "stream"
    assert r.graphs_checked == 2 and r.skipped == 2
    with pytest.raises(CorpusError):
        scan("T6.4", ["Bw", "B"])


def test_scan_file_corpus(tmp_path):
    p = tmp_path / "c.g6"
    p.write_text(">>graph6<<Bw\nBg\n\nA?\n")
    r = scan("L3.1", str(p))
    assert r.corpus == f"file:{p}"
    assert r.graphs_checked == 2 and r.skipped == 1
    with pytest.raises(CorpusError):
        scan("L3.1", str(tmp_path / "missing.g6"))


def test_scan_determinism():
    # two runs, and a single-id versus a multi-id scan, give identical bytes
    r1 = scan("T3.1", 6)
    r2 = scan("T3.1", 6)
    multi = scan_many(["T6.3", "T3.1", "L2.4"], 6)[1]
    for fmt in ("json", "csv"):
        assert emit_report(r1, fmt) == emit_report(r2, fmt) == emit_report(multi, fmt)


def test_scan_many_report_digests():
    reports = hashlib.sha256()
    csv = {tid: hashlib.sha256() for tid in REPORTS_CSV_SHA256}
    for n in range(1, 8):
        for r in scan_many(SCAN_IDS, n):
            reports.update(emit_report(r))
            if r.theorem_id in csv:
                csv[r.theorem_id].update(emit_report(r, format="csv"))
    assert reports.hexdigest() == REPORTS_JSON_SHA256
    assert {tid: h.hexdigest() for tid, h in csv.items()} == REPORTS_CSV_SHA256


def test_per_graph_verdicts_pinned():
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
        many = scan_many(ids, lines, fail_fast=True)
        assert [r.theorem_id for r in many] == ids
        assert [r.graphs_checked for r in many] == [2, 4, 5, 5, 2]
        for tid, r in zip(ids, many):
            single = scan(tid, lines, fail_fast=True)
            assert r.graphs_checked == single.graphs_checked
            assert emit_report(r) == emit_report(single)
    finally:
        for tid in ("X1.0", "X1.1", "X1.2"):
            del FORMULAS[tid]


def test_scan_non_ascii_stream():
    with pytest.raises(CorpusError, match="line 2: non-ASCII byte"):
        scan("T6.4", [b"Bw", b"B\xffw"])
    with pytest.raises(CorpusError, match="line 3: malformed"):
        scan("T6.4", [b"Bw", b"", b"B"])


def test_scan_fail_fast_stops_early():
    FORMULAS["X0.0"] = fake_formula("X0.0", lambda s: False)
    try:
        lines = [to_graph6(fam("Path", n)) for n in (2, 3, 4, 5)]
        r = scan("X0.0", lines, fail_fast=True)
        assert r.graphs_checked == 1 and len(r.violations) == 1
        r = scan("X0.0", lines)
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
        r = scan("X2.0", lines)
        assert r.graphs_checked == 4
        assert [g6 for g6, _ in r.violations] == lines[2:]
        assert r.equality_witnesses == lines
        # the first violation in file order is P4, at position 2
        r = scan("X2.0", lines, fail_fast=True)
        assert r.graphs_checked == 2 + 1
        assert [g6 for g6, _ in r.violations] == [lines[2]]
        assert r.equality_witnesses == lines[:3]
    finally:
        del FORMULAS["X2.0"]


def _deletion_oracle(g, matrix_fn, theorem_id, tol=EQUALITY_TOL):
    # one delete_edge, is_connected and eigensolve per edge
    base = eigenvalues(matrix_fn(g)).values
    gaps = []
    for e in g.edges():
        h = delete_edge(g, e)
        if is_connected(h):
            vals = eigenvalues(matrix_fn(h)).values
            gaps.append(min(b - a for a, b in zip(base, vals)))
    if not gaps:
        return not_applicable(theorem_id, witness={"deletions_checked": 0})
    gap = min(gaps)
    return BoundVerdict(theorem_id, 0.0, gap, holds=gap >= -1e-9,
                        strict=gap > SLACK, equality=abs(gap) <= tol,
                        witness={"deletions_checked": len(gaps)})


def _random_connected(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree
    p = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    edges |= {(i, j) for j in range(n) for i in range(j) if rng.random() < p}
    return from_edges(n, edges)


def test_stacked_deletions_match_per_edge_oracle():
    rng = random.Random(23)
    graphs = [_random_connected(rng, rng.randint(1, 12)) for _ in range(200)]
    for n in range(1, 13):
        graphs += [fam("Path", n), fam("Complete", n)] + ([fam("Star", n)] if n >= 2 else [])
    for g in graphs:
        assert check_lemma23(g) == _deletion_oracle(g, dist_laplacian, "L2.3")
        assert check_lemma24(g) == _deletion_oracle(g, dist_signless_laplacian, "L2.4")


def test_scan_many_deletions_match_per_edge_oracle(monkeypatch):
    # a scan solves every deletion of the corpus in one _deletion_gaps call;
    # the small chunk splits each order's stack, and the deletions of one
    # graph, across many solves; every graph's verdict from the scan's stack
    # and the scan's reports agree with the per-edge oracle
    rng = random.Random(29)
    graphs = [_random_connected(rng, rng.randint(1, 12)) for _ in range(60)]
    for n in range(1, 13):
        graphs += [fam("Path", n), fam("Complete", n)] + ([fam("Star", n)] if n >= 2 else [])
    want = {"L2.3": [_deletion_oracle(g, dist_laplacian, "L2.3") for g in graphs],
            "L2.4": [_deletion_oracle(g, dist_signless_laplacian, "L2.4")
                     for g in graphs]}
    assert bounds.DELETION_CHUNK == 2016 * 64 * 64
    for chunk in (bounds.DELETION_CHUNK, 300):
        monkeypatch.setattr(bounds, "DELETION_CHUNK", chunk)
        solves, stacks = [], []
        real_gaps, real_eig = bounds._deletion_gaps, bounds.eigenvalues_stacked
        monkeypatch.setattr(bounds, "_deletion_gaps", lambda profiles, signs: solves.append(
            len(profiles.graphs)) or real_gaps(profiles, signs))
        monkeypatch.setattr(bounds, "eigenvalues_stacked",
                            lambda m: stacks.append(m.size) or real_eig(m))
        profiles = bounds._stack(graphs, ["L2.3", "L2.4"])
        got = {tid: stacked_verdicts(profiles, tid) for tid in want}
        monkeypatch.undo()
        assert solves == [len(graphs)]
        assert max(stacks) <= chunk
        # orders 3..12 keep some deletion: one solve per order and flavour,
        # or many once the chunk is small
        assert (len(stacks) > 200) if chunk == 300 else (len(stacks) == 20)
        assert got == want
    lines = [to_graph6(g) for g in graphs]
    for r in scan_many(["L2.3", "L2.4"], lines):
        named = [(g6, v) for g6, v in zip(lines, want[r.theorem_id])
                 if v.applicable and (v.equality or not v.holds)]
        assert r.violations == [(g6, v) for g6, v in named if not v.holds]
        assert list(zip(r.equality_witnesses, r.witness_verdicts)) == [
            (g6, v) for g6, v in named if v.equality]


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
    r = scan("L2.3", 5)
    assert r.passed
    r = scan("L2.4", 5)
    assert r.passed


def test_emit_report_json_schema():
    r = scan("T6.3", 4)
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
    r = scan("T6.3", 4)
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
        r = scan("X0.1", ["Bw"])
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
    # no pinned report has a violation, so the row order is checked here
    bad = BoundVerdict("X0.1", 2.5, 1.0, holds=False, strict=False, equality=False)
    tight = BoundVerdict("X0.1", 4.0, 4.0, holds=True, strict=False, equality=True)
    r = verify.ScanReport("X0.1", "stream", 2, 0, [("Bw", bad)], ["Bg"], 0.0,
                          1e-7, witness_verdicts=[tight])
    assert emit_report(r, format="csv").decode().splitlines()[1:] == [
        "X0.1,Bw,2.5,1,false,false", "X0.1,Bg,4,4,true,true"]


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
    assert not r.passed and len(r.violations) == 1
    label, verdict = r.violations[0]
    assert label == "tstar:12"
    assert verdict.bound_value == 92.9528  # the deviating reference cell
    assert abs(verdict.observed - 92.95818241589201) < 1e-9
    csv = emit_report(r, format="csv").decode().splitlines()
    assert csv[0] == "n,kite,tstar,pass"
    assert sum(1 for line in csv[1:] if line.endswith(",false")) == 1


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
