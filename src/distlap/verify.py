"""Exhaustive and streamed theorem verification with structured reports.

A scan loads the corpus once and stacks it per order, solving distances
and both distance spectra for each order up front. The reports then stream,
one per requested id in the order given: each id is one array formula
evaluated once per order group when its report is due, and each group's
clique search and single-edge deletion solves run at the first id that
reads them, as facts of that group. Checks see only group rows: evaluate
puts an id's hits (applicable equalities and failures) back in the
corpus's order, and BoundVerdicts, witnesses and graph6 strings are built
only for the graphs a report names. emit_report writes every report
format: text, JSON and CSV.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import CHECKS, FORMULAS, require_known
from .errors import CorpusError, InvalidParams
from .families import FamilySpec, build
from .graphs import Graph, enumerate_connected, graph6_corpus, to_graph6
from .spectra import order_groups, radii
from .verdict import EQUALITY_TOL, BoundVerdict, verdict

# reference 4-decimal dq radii for the kite and the double-spider T*
TABLE1_KITE = {7: 31.1081, 8: 41.6987, 9: 53.7733, 10: 67.3260,
               11: 82.3525, 12: 98.8494, 13: 116.8142}
TABLE1_TSTAR = {7: 29.5507, 8: 38.9173, 9: 50.0328, 10: 62.7797,
                11: 77.0989, 12: 92.9528, 13: 110.3381}
TABLE1_TOL = 5e-4

SCAN_IDS = tuple(FORMULAS)
# another name for bounds.CHECKS, under which perfbench/spans.py traces the
# per-graph checkers
SCAN_CHECKS = CHECKS


@dataclass
class ScanReport:
    theorem_id: str
    corpus: str
    graphs_checked: int
    skipped: int
    violations: list[tuple[str, BoundVerdict]]
    witnesses: list[tuple[str, BoundVerdict]]
    tolerance: float
    rows: list[tuple] = field(default_factory=list)

    @property
    def equality_witnesses(self) -> list[str]:
        return [g6 for g6, _ in self.witnesses]


def _load_corpus(corpus) -> tuple[str, list[Graph], int]:
    """Resolve a corpus argument to (descriptor, graphs, skipped count).

    Accepts a native order (int), a file path (str, bytes, os.PathLike) or
    an iterable of graph6 lines (bytes or str); file lines end only at LF.
    Disconnected and over-order entries are counted as skipped; non-ASCII or
    malformed lines raise CorpusError."""
    if isinstance(corpus, int):
        return f"n={corpus}", list(enumerate_connected(corpus)), 0
    path = isinstance(corpus, (str, bytes, os.PathLike))
    desc = f"file:{os.fsdecode(corpus)}" if path else "stream"
    try:
        with open(corpus, "rb") if path else nullcontext(corpus) as lines:
            records = graph6_corpus(lines)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {corpus}: {exc}") from exc
    except CorpusError as exc:
        raise CorpusError(f"{desc} {exc}") from exc
    graphs = [g for *_, g, ok in records if ok]
    return desc, graphs, len(records) - len(graphs)


def evaluate(formula, groups, tol: float, pick=None) -> list[tuple]:
    """(corpus index, Verdicts, row) of every graph of the order groups, or
    only of those whose row is set in the mask pick(Verdicts), in corpus
    order; the formula runs once per order group."""
    found = []
    for group in groups:
        v = formula(group, tol)
        rows = np.arange(len(group.ks)) if pick is None else np.flatnonzero(pick(v))
        found += [(k, v, row) for k, row in zip(group.ks[rows].tolist(), rows.tolist())]
    return sorted(found, key=lambda hit: hit[0])


def scan_reports(theorem_ids, corpus, *, fail_fast: bool = False,
                 tolerance: float = EQUALITY_TOL) -> Iterator[ScanReport]:
    """Check the ids and load and stack the corpus now; then yield one
    report per id, in the order given, each id evaluated when its turn comes
    (a repeated id once). The clique search and the deletion solves run at
    the first id that reads them.

    corpus: a native enumeration order (int 1..7), a path to a graph6 file,
    or an iterable of graph6 lines. With fail_fast, each id stops at its
    own first violation in corpus order."""
    ids = list(theorem_ids)
    require_known(ids)
    desc, graphs, skipped = _load_corpus(corpus)
    groups = order_groups(graphs)

    def reports():
        # graph6 strings only for the graphs that a report names, once each
        found, names = {}, {}
        for tid in ids:
            if tid not in found:
                # a report names the applicable equalities and failures
                found[tid] = evaluate(FORMULAS[tid], groups, tolerance,
                                      lambda v: v.applicable & (v.equality | ~v.holds))
            hits, checked = found[tid], len(graphs)
            bad = [i for i, (_, v, row) in enumerate(hits) if not v.holds[row]]
            if fail_fast and bad:
                hits, checked = hits[:bad[0] + 1], hits[bad[0]][0] + 1
            names.update({k: to_graph6(graphs[k]) for k, _, _ in hits if k not in names})
            named = [(names[k], v.verdict(row)) for k, v, row in hits]
            yield ScanReport(
                theorem_id=tid,
                corpus=desc,
                graphs_checked=checked,
                skipped=skipped,
                violations=[(g6, v) for g6, v in named if not v.holds],
                witnesses=[(g6, v) for g6, v in named if v.equality],
                tolerance=tolerance,
            )
    return reports()


def _kite_tstar_radii(n: int) -> list[float]:
    """dq radii of the kite and of T* of order n, solved as one pair."""
    return radii([build(FamilySpec(kind, (n,))) for kind in ("Kite3", "TStar")], 1)


def table1_regression() -> ScanReport:
    """Recompute the reference kite and T* dq radii for n = 7..13 and check
    each against its 4-decimal table value, plus kite > T* per row."""
    rows, violations = [], []
    for n in sorted(TABLE1_KITE):
        kite, tstar = _kite_tstar_radii(n)
        # (label, reference, computed) of each condition the row misses;
        # the first one names the row's violation
        missed = [(label, ref, got) for label, ref, got, met in (
            (f"kite:{n}", TABLE1_KITE[n], kite, abs(kite - TABLE1_KITE[n]) <= TABLE1_TOL),
            (f"tstar:{n}", TABLE1_TSTAR[n], tstar, abs(tstar - TABLE1_TSTAR[n]) <= TABLE1_TOL),
            (f"order:{n}", tstar, kite, kite > tstar)) if not met]
        rows.append((n, kite, tstar, not missed))
        if missed:
            label, ref, got = missed[0]
            violations.append((label, BoundVerdict(
                "L7.3", ref, got, holds=False, strict=False, equality=False,
                witness={"kite": kite, "tstar": tstar})))
    return ScanReport(
        theorem_id="L7.3",
        corpus="table1",
        graphs_checked=2 * len(rows),
        skipped=0,
        violations=violations,
        witnesses=[],
        tolerance=TABLE1_TOL,
        rows=rows,
    )


def compare_kite_tstar(n: int) -> BoundVerdict:
    """Direct eigensolve comparison dq_radius(kite) > dq_radius(T*), used for
    orders beyond the reference table."""
    if n < 7:
        raise InvalidParams("comparison needs n >= 7")
    kite, tstar = _kite_tstar_radii(n)
    return verdict("L7.3", kite, ">", tstar, witness={"n": n})


# ---------------------------------------------------------------------------
# proof fixtures: the quotient matrices behind two determinant identities


def proof_fixture_theorem31(n: int, a: int, dprime=None) -> np.ndarray:
    """3x3 quotient matrix of the distance Laplacian for the partition
    {v1} | N(v1) | rest, with |N(v1)| = a and transmission D' of v1. The
    default D' = 2n-a-2 is the boundary value where D'+2 becomes an exact
    eigenvalue."""
    if not (isinstance(n, int) and isinstance(a, int) and 1 <= a <= n - 2):
        raise InvalidParams(f"need 1 <= a <= n-2, got n={n} a={a}")
    d = float(2 * n - a - 2 if dprime is None else dprime)
    denom = float(n - a - 1)
    return np.array([
        [d, -a, -d + a],
        [-1.0, d - n + 2, -d + n - 1],
        [(a - d) / denom, -a * (d - n + 1) / denom,
         (a * (d - n + 1) - (a - d)) / denom],
    ])


def fixture31_determinant(n: int, a: int, dprime=None) -> float:
    """Closed form of det((D'+2) I - R) for the 3x3 fixture."""
    d = float(2 * n - a - 2 if dprime is None else dprime)
    return -n * (d + 2.0) * (d - 2.0 * n + a + 2.0) / (n - a - 1.0)


def proof_fixture_theorem61(n1: int, n2: int) -> np.ndarray:
    """4x4 quotient matrix of the distance signless Laplacian for a
    diameter-3 graph filled to cliques between consecutive distance layers of
    sizes 1, n1, n2, 1."""
    if not (isinstance(n1, int) and isinstance(n2, int) and n1 >= 1 and n2 >= 1):
        raise InvalidParams(f"need n1, n2 >= 1, got {n1}, {n2}")
    return np.array([
        [n1 + 2 * n2 + 3, n1, 2 * n2, 3],
        [1, 2 * n1 + n2 + 1, n2, 2],
        [2, n1, n1 + 2 * n2 + 1, 1],
        [3, 2 * n1, n2, 2 * n1 + n2 + 3],
    ], dtype=np.float64)


def fixture61_determinant(n1: int, n2: int) -> float:
    """Closed form of det((2n+2) I - R), n = n1+n2+2 (that is 2n-4+2d at
    d = 3); always negative."""
    return -4.0 * (n1 ** 3 + 8 * n1 ** 2 + 15 * n1
                   + n2 ** 3 + 8 * n2 ** 2 + 15 * n2)


def check_lemma74(n1: int, n2: int) -> BoundVerdict:
    """dq radius of U4 is strictly below that of U3 with the same arms
    (n1 >= n2 >= 2, order >= 7)."""
    if not (n1 >= n2 >= 2 and n1 + n2 + 2 >= 7):
        raise InvalidParams(f"need n1 >= n2 >= 2 and n1+n2+2 >= 7, got {n1}, {n2}")
    u4, u3 = radii([build(FamilySpec(kind, (n1, n2))) for kind in ("U4", "U3")], 1)
    return verdict("L7.4", u4, "<", u3,
                   witness={"n1": n1, "n2": n2, "u4": u4, "u3": u3})


# ---------------------------------------------------------------------------
# report emission


def _fmt(x: float, precise: bool) -> str:
    if precise:
        return f"{x:.12g}"
    # a value that rounds to zero prints unsigned, never as -0.0000
    text = f"{x:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _verdict_line(v, precise: bool) -> str:
    return (f"{v.theorem_id} bound={_fmt(v.bound_value, precise)} "
            f"observed={_fmt(v.observed, precise)} holds={v.holds} "
            f"strict={v.strict} equality={v.equality} applicable={v.applicable}")


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite float {v!r} has no JSON form")
        return _fmt(v, True)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_value(val)}"
                               for k, val in v.items()) + "}"
    raise TypeError(f"unserializable value {v!r}")


def emit_report(r: ScanReport, format: str = "json", precise: bool = False) -> bytes:
    """Serialize a report: text with 4-decimal floats (12 significant digits
    when precise) as UTF-8, a path's undecodable bytes written back as read;
    JSON and CSV as ASCII, keys in a stable order, 12-significant-digit floats."""
    if format == "text":
        lines = [f"{r.theorem_id} corpus={r.corpus} checked={r.graphs_checked} "
                 f"skipped={r.skipped} violations={len(r.violations)} "
                 f"equality_witnesses={len(r.witnesses)}"]
        lines += [f"  VIOLATION {g6} " + _verdict_line(v, precise)
                  for g6, v in r.violations]
        lines += [f"  n={n} kite={_fmt(kite, precise)} tstar={_fmt(tstar, precise)} "
                  f"pass={ok}" for n, kite, tstar, ok in r.rows]
        return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    if format == "json":
        obj = {
            "theorem_id": r.theorem_id,
            "corpus": r.corpus,
            "tolerance": r.tolerance,
            "graphs_checked": r.graphs_checked,
            "skipped": r.skipped,
            "violations": [{"graph6": g6, "verdict": asdict(v)}
                           for g6, v in r.violations],
            "equality_witnesses": list(r.equality_witnesses),
        }
        if r.rows:
            obj["rows"] = [{"n": n, "kite": k, "tstar": t, "pass": ok}
                           for n, k, t, ok in r.rows]
        return (_json_value(obj) + "\n").encode("ascii")
    if format == "csv":
        if r.rows:
            lines = ["n,kite,tstar,pass"]
            for n, k, t, ok in r.rows:
                lines.append(f"{n},{_fmt(k, True)},{_fmt(t, True)},"
                             f"{'true' if ok else 'false'}")
            return ("\n".join(lines) + "\n").encode("ascii")
        lines = ["theorem_id,graph6,bound,observed,holds,equality"]
        for g6, v in [*r.violations, *r.witnesses]:
            lines.append(f"{v.theorem_id},{g6},{_fmt(v.bound_value, True)},"
                         f"{_fmt(v.observed, True)},"
                         f"{'true' if v.holds else 'false'},"
                         f"{'true' if v.equality else 'false'}")
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown format {format!r}")
