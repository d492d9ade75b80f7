"""Command line front end.

Exit codes: 0 success / no violations, 1 at least one violation found,
2 usage or input error, 141 (the status SIGPIPE gives) when the reader
closed stdout before the output ended.
"""
from __future__ import annotations

import argparse
import os
import sys

from .bounds import FORMULAS, THEOREM_IDS, require_known
from .errors import CorpusError, DistlapError
from .families import QUANTITIES, build, closed_form, parse_family
from .graphs import MAX_ORDER, from_graph6, graph6_corpus, to_graph6
from .linalg import eigenvalues
from .spectra import adjacency_matrix, dist_laplacian, \
    dist_signless_laplacian, distance_matrix, laplacian, order_groups
from .transforms import KIND_TWINS, KIND_VERTEX, GraftSpec, apply_graft, \
    check_graft_monotone_L, check_graft_monotone_Q
from .verdict import EQUALITY_TOL
from .verify import SCAN_IDS, _fmt, _verdict_line, emit_report, evaluate, \
    scan_reports, table1_regression

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


def _input_graphs(args, connected: bool = True):
    """Yield (label, Graph) for --graph6 / --file / --family. A --file
    corpus is checked whole first; then an over-order record, and with
    connected a disconnected one, is a CorpusError naming its line."""
    if args.graph6 is not None:
        yield args.graph6, from_graph6(args.graph6)
    elif args.family is not None:
        yield args.family, build(parse_family(args.family))
    else:
        for lineno, text, g, ok in graph6_corpus(args.file):
            if g is None:
                raise CorpusError(f"{args.file} line {lineno}: order outside 1..{MAX_ORDER}")
            if connected and not ok:
                raise CorpusError(f"{args.file} line {lineno}: disconnected graph {text!r}")
            yield text, g


def _expand_all(checks, every) -> list[str]:
    """The --check values, each 'all' expanded in place to the ids of every."""
    return [tid for c in checks for tid in (every if c == "all" else [c])]


def _cmd_spectrum(args) -> int:
    fn = _MATRICES[args.matrix]
    many = args.file is not None
    # only the distance matrices need a connected graph
    connected = args.matrix in ("D", "L", "Q")
    for label, g in _input_graphs(args, connected):
        text = " ".join(_fmt(v, args.precise) for v in eigenvalues(fn(g)))
        print(f"{label}: {text}" if many else text)
    return 0


def _cmd_bounds(args) -> int:
    ids = _expand_all(args.check, THEOREM_IDS)
    require_known(ids)
    # the records before an unusable --file line print, then its error
    labels, graphs, error = [], [], None
    try:
        for label, g in _input_graphs(args):
            labels.append(label)
            graphs.append(g)
    except CorpusError as exc:
        error = exc
    groups = order_groups(graphs)
    found = [evaluate(FORMULAS[tid], groups, args.tolerance) for tid in ids]
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
    # both lines are computed before either prints, so an error leaves
    # stdout empty
    spec = parse_family(args.family)
    lines = [to_graph6(build(spec))]
    if args.quantity:
        lines.append(_fmt(closed_form(spec, args.quantity), args.precise))
    print(*lines, sep="\n")
    return 0


def _parse_anchor(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DistlapError(f"bad --anchor {text!r}") from exc


def _cmd_graft(args) -> int:
    # a repeated --anchor is refused rather than letting the last one win
    if len(args.anchor) > 1:
        raise DistlapError(f"--anchor given {len(args.anchor)} times; "
                           "give twins as one --anchor u,v")
    base = from_graph6(args.base)
    kind = KIND_TWINS if args.kind == "twins" else KIND_VERTEX
    spec = GraftSpec(base, kind, _parse_anchor(args.anchor[0]), args.k, args.l)
    # the checks run before anything prints, so an error leaves stdout empty
    lines = [to_graph6(apply_graft(spec))]
    found = ((check_graft_monotone_L(spec), check_graft_monotone_Q(spec))
             if args.check else ())
    lines += [_verdict_line(v, args.precise) for v in found]
    print(*lines, sep="\n")
    return 1 if any(v.applicable and not v.holds for v in found) else 0


def _emit(reports, args) -> int:
    """Write each report as soon as it comes; 1 when any has a violation."""
    bad = False
    for r in reports:
        sys.stdout.buffer.write(emit_report(r, args.format, args.precise))
        sys.stdout.buffer.flush()
        bad |= bool(r.violations)
    return 1 if bad else 0


def _cmd_scan(args) -> int:
    ids = _expand_all(args.check, SCAN_IDS)
    corpus = args.n if args.n is not None else args.file
    return _emit(scan_reports(ids, corpus, fail_fast=args.fail_fast,
                              tolerance=args.tolerance), args)


def _cmd_table1(args) -> int:
    return _emit([table1_regression()], args)


def _add_common(p, tolerance: bool = False) -> None:
    p.add_argument("--precise", action="store_true",
                   help="print 12 significant digits instead of 4 decimals")
    if tolerance:
        p.add_argument("--tolerance", type=float, default=EQUALITY_TOL,
                       help="equality detection tolerance; it moves only "
                            "equality flags, never holds, strict or the exit "
                            "status (default %(default)s)")


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
    p.add_argument("--anchor", action="append", required=True,
                   help="anchor vertex, or two comma-separated twins (once)")
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
