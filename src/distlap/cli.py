"""Command line front end.

Exit codes: 0 success / no violations, 1 at least one violation found,
2 usage or input error, 141 (the status SIGPIPE gives) when the reader
closed stdout before the output ended.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .bounds import FORMULAS, THEOREM_IDS, _stack, require_known
from .errors import CorpusError, DistlapError
from .families import QUANTITIES, build, closed_form, parse_family
from .graphs import MAX_ORDER, from_graph6, graph6_corpus, to_graph6
from .linalg import eigenvalues
from .spectra import adjacency_matrix, dist_laplacian, \
    dist_signless_laplacian, distance_matrix, laplacian
from .transforms import KIND_TWINS, KIND_VERTEX, GraftSpec, apply_graft, \
    check_graft_monotone_L, check_graft_monotone_Q
from .verify import SCAN_IDS, emit_report, evaluate, scan_many, \
    table1_regression

_MATRICES = {
    "D": distance_matrix,
    "L": dist_laplacian,
    "Q": dist_signless_laplacian,
    "lap": laplacian,
    "A": adjacency_matrix,
}

# exit status when the reader closed stdout early: the one SIGPIPE gives
EXIT_CLOSED = 141

_EPILOG = (f"theorem ids: {' '.join(SCAN_IDS)} (bounds --check all: "
           f"the first {len(THEOREM_IDS)})")


def _fmt(x: float, precise: bool) -> str:
    if precise:
        return f"{x:.12g}"
    # a value that rounds to zero prints unsigned, never as -0.0000
    text = f"{x:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _input_graphs(args, connected: bool = True):
    """Yield (label, Graph) for --graph6 / --file / --family. A --file
    corpus is checked whole first; then an over-order record, and with
    connected a disconnected one, is a CorpusError naming its line."""
    if args.graph6 is not None:
        yield args.graph6, from_graph6(args.graph6)
    elif args.family is not None:
        yield args.family, build(parse_family(args.family))
    else:
        try:
            with open(args.file, "rb") as fh:
                records = graph6_corpus(fh)
            for lineno, text, g, ok in records:
                if g is None:
                    raise CorpusError(f"line {lineno}: order outside "
                                      f"1..{MAX_ORDER}")
                if connected and not ok:
                    raise CorpusError(f"line {lineno}: disconnected "
                                      f"graph {text!r}")
                yield text, g
        except CorpusError as exc:
            raise CorpusError(f"{args.file} {exc}") from exc


def _verdict_line(v, precise: bool) -> str:
    return (f"{v.theorem_id} bound={_fmt(v.bound_value, precise)} "
            f"observed={_fmt(v.observed, precise)} holds={v.holds} "
            f"strict={v.strict} equality={v.equality} applicable={v.applicable}")


def _cmd_spectrum(args) -> int:
    fn = _MATRICES[args.matrix]
    many = args.file is not None
    # only the distance matrices need a connected graph
    connected = args.matrix in ("D", "L", "Q")
    for label, g in _input_graphs(args, connected):
        vals = eigenvalues(fn(g)).values
        text = " ".join(_fmt(v, args.precise) for v in vals)
        print(f"{label}: {text}" if many else text)
    return 0


def _cmd_bounds(args) -> int:
    ids = THEOREM_IDS if "all" in args.check else tuple(args.check)
    require_known(ids)
    # the records before an unusable --file line print, then its error
    labels, graphs, error = [], [], None
    try:
        for label, g in _input_graphs(args):
            labels.append(label)
            graphs.append(g)
    except CorpusError as exc:
        error = exc
    profiles = _stack(graphs, ids)
    found = [evaluate(FORMULAS[tid], profiles, args.tolerance) for tid in ids]
    bad = 0
    for label, *hits in zip(labels, *found):
        prefix = f"{label} " if args.file is not None else ""
        for _, v, row in hits:
            verdict = v.verdict(row)
            print(prefix + _verdict_line(verdict, args.precise))
            bad += verdict.applicable and not verdict.holds
    if error is not None:
        raise error
    return 1 if bad else 0


def _cmd_family(args) -> int:
    spec = parse_family(args.family)
    g = build(spec)
    print(to_graph6(g))
    if args.quantity:
        print(_fmt(closed_form(spec, args.quantity), args.precise))
    return 0


def _parse_anchor(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DistlapError(f"bad --anchor {text!r}") from exc


def _cmd_graft(args) -> int:
    base = from_graph6(args.base)
    kind = KIND_TWINS if args.kind == "twins" else KIND_VERTEX
    spec = GraftSpec(base, kind, _parse_anchor(args.anchor), args.k, args.l)
    print(to_graph6(apply_graft(spec)))
    if args.check:
        bad = 0
        for v in (check_graft_monotone_L(spec), check_graft_monotone_Q(spec)):
            print(_verdict_line(v, args.precise))
            if v.applicable and not v.holds:
                bad += 1
        return 1 if bad else 0
    return 0


def _emit(report, fmt: str, precise: bool) -> None:
    if fmt in ("json", "csv"):
        sys.stdout.buffer.write(emit_report(report, fmt))
        sys.stdout.buffer.flush()
        return
    print(f"{report.theorem_id} corpus={report.corpus} "
          f"checked={report.graphs_checked} skipped={report.skipped} "
          f"violations={len(report.violations)} "
          f"equality_witnesses={len(report.equality_witnesses)}")
    for g6, v in report.violations:
        print(f"  VIOLATION {g6} " + _verdict_line(v, precise))
    for n, kite, tstar, ok in report.rows:
        print(f"  n={n} kite={_fmt(kite, precise)} tstar={_fmt(tstar, precise)} "
              f"pass={ok}")


def _cmd_scan(args) -> int:
    ids = SCAN_IDS if "all" in args.check else tuple(args.check)
    corpus = args.n if args.n is not None else args.file
    reports = scan_many(ids, corpus, fail_fast=args.fail_fast,
                        tolerance=args.tolerance)
    for r in reports:
        _emit(r, args.format, args.precise)
    return 1 if any(r.violations for r in reports) else 0


def _cmd_table1(args) -> int:
    r = table1_regression()
    _emit(r, args.format, args.precise)
    return 0 if all(ok for *_, ok in r.rows) else 1


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite number >= 0."""
    try:
        tol = float(text)
        ok = math.isfinite(tol) and tol >= 0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _add_common(p, tolerance: bool = False) -> None:
    p.add_argument("--precise", action="store_true",
                   help="print 12 significant digits instead of 4 decimals")
    if tolerance:
        p.add_argument("--tolerance", type=_tolerance, default=1e-7,
                       help="equality detection tolerance (default 1e-7)")


def _add_input(p) -> None:
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--graph6")
    one.add_argument("--file")
    one.add_argument("--family")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distlap",
        description="distance Laplacian and signless Laplacian spectra, "
                    "bounds, and exhaustive verification",
        epilog=_EPILOG)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print a spectrum", epilog=_EPILOG)
    _add_input(p)
    p.add_argument("--matrix", choices=sorted(_MATRICES), default="L")
    _add_common(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bounds", help="evaluate bound checks on one graph",
                       epilog=_EPILOG)
    _add_input(p)
    p.add_argument("--check", action="append", required=True,
                   help="theorem id, repeatable, or 'all'")
    _add_common(p, tolerance=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("family", help="build a named family member",
                       epilog=_EPILOG)
    p.add_argument("--family", required=True, help="kind:args, e.g. kite:7")
    p.add_argument("--quantity", choices=QUANTITIES,
                   help="also print this closed-form value")
    _add_common(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("graft", help="attach two paths and check monotonicity",
                       epilog=_EPILOG)
    p.add_argument("--base", required=True, help="graph6 of the base graph")
    p.add_argument("--kind", choices=("vertex", "twins"), required=True)
    p.add_argument("--anchor", required=True,
                   help="anchor vertex, or two comma-separated twins")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="also run the radius monotonicity checks")
    _add_common(p)
    p.set_defaults(fn=_cmd_graft)

    p = sub.add_parser("scan", help="verify a theorem over a corpus",
                       epilog=_EPILOG)
    p.add_argument("--check", action="append", required=True,
                   help="theorem id, repeatable, or 'all'")
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--n", type=int, help="native corpus: all connected "
                                              "graphs of this order")
    corpus.add_argument("--file", help="graph6 file, one graph per line")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--fail-fast", action="store_true")
    _add_common(p, tolerance=True)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("table1", help="recompute the kite vs T* radius table",
                       epilog=_EPILOG)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_common(p)
    p.set_defaults(fn=_cmd_table1)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_CLOSED
    except (DistlapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED
    if code == EXIT_CLOSED:
        # the reader closed stdout (say, `| head`): point stdout at devnull
        # so the interpreter's final flush of the unwritten output has
        # nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
