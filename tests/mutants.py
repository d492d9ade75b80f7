"""Mutation checks: each mutant is one exact text replacement in one file,
listed with the tests that must fail once it is applied.

Run from anywhere:  python3 tests/mutants.py

Each mutant is applied to a fresh temporary copy of the repository's src/,
tests/ and perfbench/, and only its tests run there. The script exits 1 when
a mutant survives (a listed test does not fail) or when a mutant's old text
no longer occurs exactly once in its file, so a refactor of the code under
test must carry the list forward.
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
COPIED = ("src", "tests", "perfbench")

V = "tests/test_verify.py::"
CERTIFICATE = V + "test_deletion_lemmas_certified_by_distance_rise"
ORACLE = V + "test_stacked_deletions_match_per_edge_oracle"
SCAN_ORACLE = V + "test_scan_many_deletions_match_per_edge_oracle"
TREES = V + "test_edge_deletion_checks"

# (file, exact old text, new text, test ids that must fail)
MUTANTS = [
    # the holds floor: 823 of the n = 7 L2.3 gaps are negative noise
    ("src/distlap/bounds.py",
     "(gap >= -1e-9, strict, equality)", "(gap >= 0, strict, equality)",
     [CERTIFICATE, ORACLE]),
    # the rise at the radius only, not at every index
    ("src/distlap/bounds.py",
     "(vals - base[rows]).min(axis=1))", "(vals - base[rows])[:, 0])",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
    # the largest rise instead of the least
    ("src/distlap/bounds.py",
     "np.minimum.at(gaps[:, col]", "np.maximum.at(gaps[:, col]",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
    # every deletion counted as kept, connected or not
    ("src/distlap/bounds.py",
     "np.bincount(ks[rows], minlength=count)",
     "np.bincount(ks[row[part]], minlength=count)",
     [ORACLE, SCAN_ORACLE, TREES]),
    # the deleted edge left in one of its two adjacency entries
    ("src/distlap/bounds.py",
     "sub[e, i, j] = sub[e, j, i] = False", "sub[e, i, j] = False",
     [CERTIFICATE, ORACLE, SCAN_ORACLE]),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str | None:
    """None when every one of tests fails with old replaced by new in a
    temporary copy, else why the mutant counts as surviving."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            shutil.copytree(ROOT / name, Path(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
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
