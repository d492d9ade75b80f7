"""Mutation checks: each mutant is one exact text replacement in one file,
listed with the tests that must fail once it is applied.

Run from anywhere:  python3 tests/mutants.py

Each mutant is applied to a fresh temporary copy of the repository's src/,
tests/, perfbench/ and README.md, and only its tests run there. The script
exits 1 when a mutant survives (a listed test does not fail) or when a
mutant's old text no longer occurs exactly once in its file, so a refactor
of the code under test must carry the list forward.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md")

V = "tests/test_verify.py::"
CERTIFICATE = V + "test_deletion_lemmas_certified_by_distance_rise"
ORACLE = V + "test_stacked_deletions_match_per_edge_oracle"
SCAN_ORACLE = V + "test_scan_many_deletions_match_per_edge_oracle"
TREES = V + "test_edge_deletion_checks"
VERDICTS = V + "test_per_graph_verdicts_pinned"
DIGESTS = V + "test_scan_many_report_digests"
WITNESSES = V + "test_equality_witnesses_are_the_paper_classes"
B = "tests/test_bounds.py::"
RECOGNIZERS = B + "test_recognizers"
EXHAUSTIVE = B + "test_recognizers_match_isomorphism_to_the_members"
G = "tests/test_graphs.py::"
PATHS = G + "test_distances_paths_at_every_order"
EXAMPLES = G + "test_distance_data_examples"
P = "tests/test_properties.py::"
BFS = P + "test_distances_match_bfs"
CONSOLE = "tests/test_cli.py::test_console_bytes_pinned"
SHORTENED = "tests/test_cli.py::test_shortened_deletion_distance_is_an_L23_violation"
TOLERANCE = "tests/test_cli.py::test_tolerance_reaches_only_equality_flags"
L = "tests/test_linalg.py::"

# Known survivors, not listed because no test can or does kill them:
# - orbit ^= images[b] for orbit |= images[b] in the orbit sweep that
#   tests/test_graphs.py keeps to rebuild the packaged corpus is
#   equivalent: a permutation maps distinct edges to distinct bits, so the
#   rows ORed into an orbit never share a bit.
# - a float16 Seidel kernel (the float32 buffers of graphs.distances) is
#   equivalent: float16 holds every integer up to 2048 exactly, and no graph
#   of order n <= 64 comes near it. A vertex of level-degree d and a vertex
#   at level distance delta from it need n >= d + delta vertices, so every
#   partial sum of D' M is at most d ceil((n - d) / 2) + d <= 561 at n = 64,
#   and (A + I)^2 <= n. Brooms and clique paths of order 64 peak at 543.

# (file, exact old text, new text, test ids that must fail)
MUTANTS = [
    # the holds floor 0 without SLACK: some n = 7 L2.4 gaps are negative noise
    ("src/distlap/bounds.py",
     'flags(gap, ">=", 0.0, tol), 0.0,',
     '(gap >= 0, *flags(gap, ">=", 0.0, tol)[1:]), 0.0,',
     [CERTIFICATE, ORACLE]),
    # exact statements decided at the equality tolerance, so --tolerance
    # moves holds: L4.1's zero least eigenvalue, T3.2's classes, and L4.2's
    # "lambda2 = n iff K_n or K_n - e"
    ("src/distlap/bounds.py",
     'flags(vals[:, -1], "==", 0.0, tol)[0]', 'flags(vals[:, -1], "==", 0.0, tol)[2]',
     [TOLERANCE]),
    ("src/distlap/bounds.py",
     'np.where(k < 0, flags(obs, ">", bound, tol)[0], exact[0])',
     "np.where(k < 0, obs > bound + tol, exact[2])",
     [TOLERANCE]),
    ("src/distlap/bounds.py",
     "(at_n == structural)", "(eq == structural)",
     [TOLERANCE]),
    # the L2.4 rise at the radius only, not at every index
    ("src/distlap/bounds.py",
     "(vals - s.dq[rows]).min(axis=1))", "(vals - s.dq[rows])[:, 0])",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
    # the largest L2.4 rise instead of the least
    ("src/distlap/bounds.py",
     "np.minimum.at(gaps[:, 1]", "np.maximum.at(gaps[:, 1]",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
    # L2.3's gap 0 also where no deletion is kept, not inf
    ("src/distlap/bounds.py",
     "gaps = np.full((len(s.graphs), 2), np.inf)\n",
     "gaps = np.full((len(s.graphs), 2), np.inf)\n    gaps[:, 0] = 0.0\n",
     [CERTIFICATE]),
    # L2.3 reading the Tr + D gaps
    ("src/distlap/bounds.py",
     "gap = gaps[:, (sign + 1) // 2]", "gap = gaps[:, 1]",
     [CERTIFICATE, ORACLE, SCAN_ORACLE, DIGESTS, VERDICTS]),
    # L2.3's test W >= 0 dropped: a shortened distance goes unreported
    ("src/distlap/bounds.py",
     "(dist - s.dist[rows]).min(axis=(1, 2))", "0.0",
     [SHORTENED]),
    # W taken the wrong way round, D(G) - D(G - e)
    ("src/distlap/bounds.py",
     "(dist - s.dist[rows])", "(s.dist[rows] - dist)",
     [CERTIFICATE, ORACLE, SCAN_ORACLE, SHORTENED]),
    # the packaged corpus read at the header byte of order n - 1
    ("src/distlap/graphs.py",
     "if line[0] == n + 63]", "if line[0] == n + 62]",
     [V + "test_enumerate_connected_pinned", G + "test_connected_g6_rebuilt_by_orbit_sweep"]),
    # the packaged corpus read without its CRC-32 check
    ("src/distlap/graphs.py",
     "if zlib.crc32(data) != CONNECTED_CRC32 or ", "if ",
     ["tests/test_cli.py::test_damaged_packaged_corpus_refused"]),
    # every deletion counted as kept, connected or not
    ("src/distlap/bounds.py",
     "np.bincount(rows, minlength=len(kept))",
     "np.bincount(row[part], minlength=len(kept))",
     [ORACLE, SCAN_ORACLE, TREES]),
    # the deleted edge left in one of its two adjacency entries
    ("src/distlap/bounds.py",
     "sub[e, i, j] = sub[e, j, i] = False", "sub[e, i, j] = False",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
    # the clique path's one leaf (two at omega = 2) not required
    ("src/distlap/bounds.py",
     "and (omega == n or leaves == 1 + (omega == 2)) and is_connected(g)",
     "and is_connected(g)",
     [EXHAUSTIVE, VERDICTS]),
    # Turan's theorem with a K_omega forbidden as well as a K_{omega+1}
    ("src/distlap/bounds.py",
     "clique_number(g) <= omega", "clique_number(g) < omega",
     [RECOGNIZERS, EXHAUSTIVE, "tests/test_ingest.py::test_is_turan_matches_complement_reference"]),
    # a disconnected graph with the clique path's counts taken for one
    ("src/distlap/bounds.py",
     "(omega == 2)) and is_connected(g))", "(omega == 2)))",
     [RECOGNIZERS, EXHAUSTIVE]),
    # T5.1's bound n + floor(n / omega) for n + ceil(n / omega)
    ("src/distlap/bounds.py",
     "bound = n + np.ceil(n / omega)", "bound = n + np.floor(n / omega)",
     [VERDICTS, DIGESTS, WITNESSES, CONSOLE]),
    # T5.2's bound read for every row from the group's least clique number;
    # a one-graph group has one clique number, so only stacked scans see it
    ("src/distlap/bounds.py",
     "], -1))[at]", "], -1))[np.zeros_like(at)]",
     [DIGESTS, WITNESSES, CONSOLE, P + "test_scan_verdicts_equal_per_graph_checks"]),
    # a group's fact computed again at every read: the clique search and
    # the deletion solves run once per check that reads them
    ("src/distlap/spectra.py",
     "if name not in self.facts:", "if True:",
     [V + "test_scan_solves_each_kept_deletion_once",
      "tests/test_ingest.py::test_scan_runs_one_clique_search_per_graph"]),
    # T3.1 strict at every diameter, not only from diameter 3 on
    ("src/distlap/bounds.py",
     "(holds & ((s.diam < 3) | strict), strict, equality)", "(holds, strict, equality)",
     [B + "test_theorem31_strict_only_at_diameter_3"]),
    # Seidel's parity test D' M < 0 taken as <= 0
    ("src/distlap/graphs.py",
     "np.less(work, 0, out=step)", "np.less_equal(work, 0, out=step)",
     [PATHS, EXAMPLES, BFS, CONSOLE]),
    # the closure taken as complete while a zero is left
    ("src/distlap/graphs.py",
     "if work.min() > 0:", "if work.min() >= 0:",
     [PATHS, EXAMPLES, BFS, P + "test_disconnected_raises"]),
    # level 0 as A rather than A + I
    ("src/distlap/graphs.py",
     "level[0] = adj\n    diagonals(level[0])[:] = 1\n", "level[0] = adj\n",
     [PATHS, EXAMPLES, BFS, DIGESTS]),
    # five of the six rounds of the bit-matrix transpose in Graph validation
    ("src/distlap/graphs.py",
     "for s in (32, 16, 8, 4, 2, 1)]", "for s in (32, 16, 8, 4, 2)]",
     [G + "test_graph_validation", G + "test_graph_validation_matches_walk[1]"]),
    # Graph rows kept as given: a list of rows stays a list, unequal to the
    # tuple build and unhashable, and numpy rows fail the packing
    ("src/distlap/graphs.py",
     '"adj", tuple(map(operator.index, self.adj))', '"adj", self.adj',
     [G + "test_list_rows_build_an_equal_hashable_graph",
      G + "test_numpy_and_bool_rows_build_the_same_graph"]),
    # Graph's order kept as given: a float order builds, a numpy one stays numpy
    ("src/distlap/graphs.py",
     '        object.__setattr__(self, "n", operator.index(self.n))\n', "",
     [G + "test_numpy_and_bool_rows_build_the_same_graph"]),
    # from_edges shifting by numpy endpoints: 1 << np.int64(63) wraps negative
    ("src/distlap/graphs.py",
     "        i, j = operator.index(i), operator.index(j)\n", "",
     [G + "test_from_edges_reads_numpy_endpoints"]),
    # numpy loaded with OpenBLAS's two-thread pool by default
    ("src/distlap/__init__.py",
     '_os.environ["OPENBLAS_NUM_THREADS"] = "1"', '_os.environ["OPENBLAS_NUM_THREADS"] = "2"',
     ["tests/test_imports.py::test_numpy_loads_with_one_openblas_thread"]),
    # K_2 taken as not applicable to T3.2, along with K_1
    ("src/distlap/bounds.py",
     "witness, n >= 2,", "witness, n >= 3,",
     [B + "test_theorem32_verdicts"]),
    # each of T3.2's inconsistent details naming the wrong forced radius
    ("src/distlap/bounds.py",
     "at or below {n + 2} without", "at or below {n} without",
     [B + "test_theorem32_inconsistent_details"]),
    ("src/distlap/bounds.py",
     "dl radius {o} != {n}\",", "dl radius {o} != {n + 2}\",",
     [B + "test_theorem32_inconsistent_details"]),
    ("src/distlap/bounds.py",
     "dl radius {o} != {n + 2}\")", "dl radius {o} != {n}\")",
     [B + "test_theorem32_inconsistent_details"]),
    # FamilySpec params kept as given: numpy params stay numpy, a list
    # unhashable, and a float is taken for a wrong parameter count
    ("src/distlap/families.py",
     '        object.__setattr__(self, "params", tuple(map(operator.index, self.params)))\n', "",
     ["tests/test_families.py::test_families_read_integer_parameters"]),
    # the Turan rule with one larger part too many
    ("src/distlap/families.py",
     "[q + 1] * r", "[q + 1] * (r + 1)",
     ["tests/test_families.py::test_multipartite_and_turan", RECOGNIZERS, EXHAUSTIVE,
      "tests/test_ingest.py::test_is_turan_matches_complement_reference"]),
    # the Turan builder listing its omega part sizes before the order check
    ("src/distlap/families.py",
     "parts = chain.from_iterable(map(turan_parts, [n], [omega]))",
     "parts = turan_parts(n, omega)",
     ["tests/test_families.py::test_turan_builds_no_part_list"]),
    # the path builder's edges made a list before its order is refused
    ("src/distlap/families.py",
     "return n, pendant_path(0, 1, n - 1)", "return n, list(pendant_path(0, 1, n - 1))",
     ["tests/test_families.py::test_over_order_members_cost_no_edge_list"]),
    # the per-graph checkers at equality tolerance 0 instead of EQUALITY_TOL
    ("src/distlap/bounds.py",
     "formula(OrderGroup([g], [0]), EQUALITY_TOL)", "formula(OrderGroup([g], [0]), 0.0)",
     [VERDICTS, P + "test_scan_verdicts_equal_per_graph_checks"]),
    # the Q graft check reading the pair's L radii
    ("src/distlap/transforms.py",
     "a, b = spec._pair_radii[1]", "a, b = spec._pair_radii[0]",
     ["tests/test_transforms.py::test_graft_checks_share_one_solve"]),
    # --check all dropping the ids named beside it
    ("src/distlap/cli.py",
     "for c in checks for tid", 'for c in (["all"] if "all" in checks else checks) for tid',
     ["tests/test_cli.py::test_unknown_id_same_error_in_scan_and_bounds",
      "tests/test_cli.py::test_check_all_keeps_the_ids_beside_it"]),
    # the T5.3/T5.4 graft flags at equality tolerance 0
    ("src/distlap/transforms.py",
     'flags(b, ">" if claim else ">=", a)', 'flags(b, ">" if claim else ">=", a, 0.0)',
     ["tests/test_transforms.py::test_graft_census_order_14"]),
    # a native order read only from a Python int: a numpy integer is taken
    # for an iterable of graph6 lines
    ("src/distlap/verify.py",
     'if not (path or hasattr(corpus, "__iter__")):', "if isinstance(corpus, int):",
     [V + "test_scan_native_corpus"]),
    # flags without its tolerance guard: a nan tolerance flags no equality
    # and a negative one none at all
    ("src/distlap/verdict.py",
     "if not 0 <= tol < np.inf:", "if False:",
     [V + "test_bad_tolerance_refused_by_every_path[nan]",
      V + "test_bad_tolerance_refused_by_every_path[-1.0]"]),
    # evaluate without its own tolerance check: an empty corpus calls no
    # formula, so its report carries a nan tolerance that has no JSON form
    ("src/distlap/verify.py",
     'flags(0.0, "==", 0.0, tol)', "None",
     [V + "test_bad_tolerance_refused_by_every_path[nan]"]),
    # a corpus file's line fault not prefixed with its path
    ("src/distlap/graphs.py",
     'CorpusError(f"{os.fsdecode(lines)} {exc}")', "CorpusError(str(exc))",
     ["tests/test_cli.py::test_file_faults_worded_alike_by_every_command[malformed]",
      "tests/test_cli.py::test_file_faults_worded_alike_by_every_command[non_ascii]"]),
    # a table1 row named by the last condition it misses, not the first
    ("src/distlap/verify.py",
     "label, ref, got = missed[0]", "label, ref, got = missed[-1]",
     [V + "test_table1_violation_labels"]),
    # the Jacobi oracle's eigenvalues returned ascending
    ("src/distlap/linalg.py",
     "tuple(sorted((float(v) for v in np.diag(a)), reverse=True))",
     "tuple(sorted(float(v) for v in np.diag(a)))",
     [L + "test_eigen_routines_return_descending_float_tuples", L + "test_jacobi_examples",
      L + "test_jacobi_agrees_with_ql"]),
    # the production eigenvalues returned ascending
    ("src/distlap/linalg.py",
     "as_sym_matrix(m)[None])[0].tolist()", "as_sym_matrix(m)[None])[0][::-1].tolist()",
     [L + "test_eigen_routines_return_descending_float_tuples",
      "tests/test_spectra.py::test_spectral_profile_examples"]),
    # each order group handed its corpus indices reversed
    ("src/distlap/spectra.py",
     "OrderGroup([graphs[k] for k in ks], ks)", "OrderGroup([graphs[k] for k in ks], ks[::-1])",
     ["tests/test_spectra.py::test_stacked_profiles_match_per_graph", DIGESTS, CONSOLE]),
    # the console pin table read without its last line
    ("tests/pins.py",
     "TABLE.read_text().splitlines())]", "TABLE.read_text().splitlines()[:-1])]",
     [CONSOLE]),
    # the in-process pin loop skipping every line with an input file, not
    # only the stream lines
    ("tests/test_cli.py",
     'if "{stream}" in args:', 'if "--file" in args:',
     [CONSOLE]),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str | None:
    """None when every one of tests fails with old replaced by new in a
    temporary copy, else why the mutant counts as surviving."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, Path(tmp, name))
        target = Path(tmp, path)
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times, not once"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")),
                   PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True).stdout
    failed = set(re.findall(r"^FAILED (\S+)", out, re.MULTILINE))
    passed = [t for t in tests if t not in failed]
    return f"passes {', '.join(passed)}" if passed else None


def main() -> int:
    start, survivors = time.perf_counter(), 0
    for path, old, new, tests in MUTANTS:
        why = run(path, old, new, tests)
        survivors += why is not None
        print(f"{'SURVIVED' if why else 'killed':8}  {path}: {old!r} -> {new!r}"
              + (f"  ({why})" if why else ""), flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
