"""family_sweep client: drives the single-graph public API of distlap.

Usage: python3 perfbench/sweep.py CASES_JSON

CASES_JSON is written by inputs.sweep_cases. The first output line is the
table1 report exactly as emit_report gives it; every later line is one
verdict as a JSON object, floats at 12 significant digits like the
program's own reports.
"""
from __future__ import annotations

import json
import sys

import distlap

KINDS = {"vertex": distlap.KIND_VERTEX, "twins": distlap.KIND_TWINS}


def _line(args: list, v) -> bytes:
    obj = {"theorem_id": v.theorem_id, "args": args,
           "bound_value": float(f"{v.bound_value:.12g}"),
           "observed": float(f"{v.observed:.12g}"),
           "holds": v.holds, "strict": v.strict, "equality": v.equality,
           "applicable": v.applicable}
    return (json.dumps(obj) + "\n").encode("ascii")


def main(cases_path: str) -> int:
    with open(cases_path, encoding="ascii") as fh:
        cases = json.load(fh)
    out = sys.stdout.buffer
    # look every entry point up on the package at call time, so a tracer
    # that rebinds them sees these calls
    out.write(distlap.emit_report(distlap.table1_regression(), "json"))
    out.flush()
    for n in cases["kite_tstar"]:
        out.write(_line([n], distlap.compare_kite_tstar(n)))
    for n1, n2 in cases["lemma74"]:
        out.write(_line([n1, n2], distlap.check_lemma74(n1, n2)))
    for c in cases["grafts"]:
        spec = distlap.GraftSpec(distlap.from_graph6(c["base"]), KINDS[c["kind"]],
                                 tuple(c["anchors"]), c["k"], c["l"])
        args = [c["base"], c["kind"], c["anchors"], c["k"], c["l"]]
        out.write(_line(args, distlap.check_graft_monotone_L(spec)))
        out.write(_line(args, distlap.check_graft_monotone_Q(spec)))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
