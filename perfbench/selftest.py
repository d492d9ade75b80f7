"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py on small inputs, once
untraced and once traced, and checks that:

- the last line is the result object, correct, with at least one operation;
- the metric names and units printed are exactly BENCHMARK.json's
  end_to_end metrics (untraced) or per_layer metrics (traced);
- in a traced operation, timed here from outside, every span lies inside
  its parent with a self time >= 0; the main process has one root span, and
  it lasts no longer than the operation; each worker's root spans do not
  overlap and lie inside the main root span; and a scan that started the
  pool also brought back spans from its workers.

The self times of a process add up to its root spans by construction (self
time is duration minus the children's), so that sum is not checked; the
containment and wall-time checks are what catch a broken trace.

It also checks that run.py fails, printing no result, in a copy of the
benchmark that has no distlap sources beside it. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(bench: dict, workload: str) -> list:
    errors = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return [f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{workload}: result keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 1:
            errors.append(f"{workload} --trace {trace}: not correct\n{proc.stderr}")
        want = {m["name"]: m["unit"] for m in bench[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            errors.append(f"{workload} --trace {trace}: metrics {sorted(got.items())} "
                          f"!= {kind} {sorted(want.items())}")
    return errors + check_trace(workload)


def check_trace(workload: str) -> list:
    """Run one traced operation, timed from outside, and check its spans."""
    w = run.WORKLOADS[workload](1, True)
    trace_path = WORK / f"{workload}-trace.json"
    op = run.run_op([sys.executable, "perfbench/spans.py",
                     str(trace_path.relative_to(ROOT)), *w.traced],
                    run._env(), w.check)
    if op.errors:
        return [f"{workload}: traced operation failed: {op.errors[:3]}"]
    with open(trace_path, encoding="ascii") as fh:
        trace = json.load(fh)
    a = spans.analyse(trace)
    main_pid = trace["processes"][0]["pid"]
    if len(a["roots"][main_pid]) != 1:
        return [f"{workload}: main process has {len(a['roots'][main_pid])} root spans"]
    (m0, m1), = a["roots"][main_pid]
    errors = []
    if not 0 < m1 - m0 <= op.wall:
        errors.append(f"{workload}: root span {m1 - m0:.4f} s, operation {op.wall:.4f} s")
    for pid, roots in a["roots"].items():
        if a["misplaced"][pid]:
            errors.append(f"{workload}: pid {pid} has {a['misplaced'][pid]} spans "
                          "outside their parent or with negative self time")
        roots = sorted(roots)
        if any(e0 > s1 for (_, e0), (s1, _) in zip(roots, roots[1:])):
            errors.append(f"{workload}: pid {pid} has overlapping root spans")
        if pid != main_pid and not all(m0 <= t0 <= t1 <= m1 for t0, t1 in roots):
            errors.append(f"{workload}: pid {pid} has spans outside the main root span")
    if a["counters"]["verify.pool.started"] and len(a["roots"]) < 2:
        errors.append(f"{workload}: the pool ran but no worker spans came back")
    return errors


def check_bare() -> list:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "n7_all_cold", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources run.py exited {proc.returncode}: {proc.stdout!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    errors = check_bare()
    for w in bench["workloads"]:
        errors += check_workload(bench, w["name"])
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
