"""distlap benchmark: three closed-loop workloads driven through the public
entry points, the ``distlap`` CLI and the functions the package exports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds this file, with
``src`` put on PYTHONPATH, and reads and writes only inside that checkout
(scratch files go to ``.perfbench_work``). One client, one process at a
time: each operation is a fresh ``python3`` process, started when the
previous one has ended. Operations repeat while the next one should end
within S seconds (at least MIN_OPS of them). The last line of stdout is the JSON result; the
lines before it describe the machine and, when traced, where the time went.

Workloads (why each was chosen is in BENCHMARK.json):

- n7_all_cold: ``distlap scan --check all --n 7 --format json``, the default
  worker count; 853 graphs x 17 ids = 14,501 verdicts.
- stream_bounds: the same scan over a seeded graph6 file of STREAM_SIZE
  connected graphs of orders 8..24, with the 15 ids that delete no edge.
- family_sweep: sweep.py, which calls table1_regression + emit_report,
  compare_kite_tstar for n = 7..64, check_lemma74 over every valid arm pair
  up to order 64, and both graft monotonicity checks on seeded bases.

Every operation's output is checked: the reports parse, count the generated
graphs and show no violation (table1's FAIL row at n = 12 is the expected
output), and for the default seed their sha256 digests are pinned. An
operation fails if it raises, exits with an unexpected code or prints a
wrong report.

--trace 0 prints the end-to-end metrics (medians over the operations):
wall_s, verdicts_per_s, first_result_s (process start to the first byte of
the first report), setup_s (median over SETUP_REPS fresh interpreters of the
CPU time ``import distlap`` takes: CPU rather than wall time, so that time a
shared host steals from this machine does not count), peak_rss_mb (wait4's
ru_maxrss, which is the largest peak of any process in the tree, pool
workers included) and ok_ops_share (1 - failed / attempted; the failure
share itself is 0 on a healthy run, and a metric must never be 0).

--trace 1 alternates untraced and traced operations (spans.py) and prints
the per-layer metrics of the traced ones (lower median): ``.s`` is the time
spent inside a layer's calls, counted once where its calls nest,
``bounds.check.self_s`` is the checks' own time outside any other traced
layer, and ``trace.overhead_s`` is the traced minus the untraced median
wall. Layer times add pool-worker time to the main process's; see spans.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
MIN_OPS = 2
SETUP_REPS = 7
OP_TIMEOUT_S = 120

SCAN_IDS = ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1", "T5.2", "T6.1",
            "T6.2", "T6.3", "C6.1", "T6.4", "T7.1", "L4.1", "L4.2", "L2.3", "L2.4")
STREAM_IDS = SCAN_IDS[:15]

# digests of the reports of the seed code; n7 and table1 do not depend on the
# seed, the others are pinned for DEFAULT_SEED
N7_SHA256 = "312fc7c949019bb82e62c01505f3ba94b8d6c21ee630b54655cc04f7ddcaf517"
TABLE1_SHA256 = "18b77b9767e00c0d4213b28403fcfd2beb75bd88c51cfbe969be5f613bbba57b"
STREAM_SHA256 = "5a5ddbe40efc3aa0fe6eecae78e37e21fbc323ff4e11d289646bae1f4b83a54a"
SWEEP_SHA256 = "ab059af1d0da58412e727f6c0811d6e1dbdf6b468234fe0b9a0178d931c2a964"

IMPORT_PROBE = ("import time; t = time.process_time(); import distlap; "
                "print(time.process_time() - t)")


@dataclass
class Workload:
    name: str
    client: list          # arguments after the interpreter
    traced: list          # arguments of spans.py after OUT.json
    verdicts: int
    check: Callable       # (stdout bytes, exit code) -> list of errors
    notes: dict = field(default_factory=dict)


@dataclass
class Op:
    wall: float
    first: float
    rss_mb: float
    errors: list


def _digest_error(out: bytes, want: str, what: str) -> list:
    got = hashlib.sha256(out).hexdigest()
    return [] if not want or got == want else [f"{what} sha256 {got} != {want}"]


def _check_scan(out: bytes, code: int, ids, graphs: int, members=None) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        reports = [json.loads(line) for line in out.decode("ascii").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report does not parse: {exc}"]
    if [r.get("theorem_id") for r in reports] != list(ids):
        return [f"report ids {[r.get('theorem_id') for r in reports]}"]
    errors = []
    for r in reports:
        tid = r["theorem_id"]
        if r.get("graphs_checked") != graphs or r.get("skipped") != 0:
            errors.append(f"{tid}: checked {r.get('graphs_checked')}, "
                          f"skipped {r.get('skipped')}, want {graphs}, 0")
        if r.get("violations"):
            errors.append(f"{tid}: {len(r['violations'])} violations")
        if members is not None and not set(r.get("equality_witnesses", ())) <= members:
            errors.append(f"{tid}: equality witness not in the corpus")
    return errors


def n7_all_cold(seed: int, smoke: bool) -> Workload:
    n = 6 if smoke else 7
    args = ["scan", "--check", "all", "--n", str(n), "--format", "json"]
    graphs = {6: 112, 7: 853}[n]

    def check(out, code):
        errors = _check_scan(out, code, SCAN_IDS, graphs)
        return errors or ([] if smoke else _digest_error(out, N7_SHA256, "report"))
    return Workload("n7_all_cold", ["-m", "distlap.cli", *args], ["cli", *args],
                    graphs * len(SCAN_IDS), check)


def stream_bounds(seed: int, smoke: bool) -> Workload:
    lines = inputs.stream_graphs(seed, 300 if smoke else inputs.STREAM_SIZE)
    path = WORK / f"stream-{seed}.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    args = ["scan", *[a for tid in STREAM_IDS for a in ("--check", tid)],
            "--file", str(path.relative_to(ROOT)), "--format", "json"]
    members = set(lines)

    def check(out, code):
        errors = _check_scan(out, code, STREAM_IDS, len(lines), members)
        if errors or smoke or seed != DEFAULT_SEED:
            return errors
        return _digest_error(out, STREAM_SHA256, "report")
    return Workload("stream_bounds", ["-m", "distlap.cli", *args], ["cli", *args],
                    len(lines) * len(STREAM_IDS), check,
                    {"graphs.enumerate": "the corpus comes from a file",
                     "transforms.deletion_kept_ratio": "no check deletes edges"})


def family_sweep(seed: int, smoke: bool) -> Workload:
    cases = inputs.sweep_cases(seed, *((20, 4) if smoke else ()))
    path = WORK / f"sweep-{seed}.json"
    path.write_text(json.dumps(cases), encoding="ascii")
    ids = (["L7.3"] * len(cases["kite_tstar"]) + ["L7.4"] * len(cases["lemma74"])
           + [i for c in cases["grafts"] for i in
              (("T5.4", "L7.1") if c["kind"] == "vertex" else ("T5.3", "L7.2"))])

    def check(out, code):
        if code != 0:
            return [f"exit code {code}"]
        try:
            head, *rest = out.decode("ascii").splitlines(keepends=True)
            table1 = json.loads(head)
            verdicts = [json.loads(line) for line in rest]
        except (ValueError, UnicodeDecodeError) as exc:
            return [f"output does not parse: {exc}"]
        errors = _digest_error(head.encode("ascii"), TABLE1_SHA256, "table1 report")
        # the reference table's misprinted T* cell at n = 12 is the one FAIL row
        if ([v["graph6"] for v in table1["violations"]] != ["tstar:12"]
                or [r["n"] for r in table1["rows"] if not r["pass"]] != [12]):
            errors.append("table1 must fail exactly at tstar:12")
        if [v["theorem_id"] for v in verdicts] != ids:
            errors.append("verdict ids differ from the cases")
        bad = [v for v in verdicts if not (v["applicable"] and v["holds"])]
        if bad:
            errors.append(f"{len(bad)} verdicts fail, first {bad[0]}")
        if not errors and not smoke and seed == DEFAULT_SEED:
            errors += _digest_error(out, SWEEP_SHA256, "sweep output")
        return errors
    path_arg = str(path.relative_to(ROOT))
    return Workload("family_sweep", ["perfbench/sweep.py", path_arg],
                    ["sweep", path_arg], 7 + len(ids), check,
                    {"graphs.enumerate": "the sweep builds named families",
                     "verify.scan": "the sweep scans no corpus",
                     "cli.run": "the sweep calls the API without the CLI; "
                                "its root span is sweep.run"})


WORKLOADS = {w.__name__: w for w in (n7_all_cold, stream_bounds, family_sweep)}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(cmd: list, env: dict, check: Callable) -> Op:
    """One client process: wall, time to its first output byte, peak RSS."""
    err_path = WORK / "stderr.txt"
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=env)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = None
        chunks = []
        while chunk := os.read(proc.stdout.fileno(), 1 << 16):
            if first is None:
                first = time.perf_counter() - t0
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks)
    try:
        errors = check(out, code)
    except (KeyError, TypeError, ValueError) as exc:
        errors = [f"unexpected output: {exc!r}"]
    if errors:
        tail = err_path.read_text(errors="replace")[-2000:]
        print(f"operation failed: {cmd[1:]}: {errors[:3]}\n{tail}", file=sys.stderr)
    return Op(wall, first if first is not None else wall, usage.ru_maxrss / 1024, errors)


def machine(env: dict) -> dict:
    """The machine and runtime the program runs on, as it reports them."""
    probe = (
        "import ctypes, json, os, sys, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "libs = sorted({l.split()[-1] for l in open('/proc/self/maps') "
        "if 'openblas' in l.split()[-1]})\n"
        "info = {'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
        "        'blas': blas.get('name'), 'blas_version': blas.get('version')}\n"
        "if libs:\n"
        "    lib = ctypes.CDLL(libs[0])\n"
        "    for pre in ('scipy_openblas', 'openblas'):\n"
        "        for suf in ('64_', ''):\n"
        "            get = getattr(lib, pre + '_get_num_threads' + suf, None)\n"
        "            cfg = getattr(lib, pre + '_get_config' + suf, None)\n"
        "            if get and cfg:\n"
        "                get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p\n"
        "                info['blas_config'] = cfg().decode()\n"
        "                info['blas_threads'] = get()\n"
        "print(json.dumps(info))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **json.loads(out)}
    info["env"] = {k: os.environ.get(k) for k in
                   ("DISTLAP_JOBS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return info


def setup_seconds(env: dict) -> float:
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout)
             for _ in range(SETUP_REPS)]
    return statistics.median(times)


def _repeat(step: Callable, seconds: float, at_least: int) -> None:
    """Call step at least at_least times, then as long as the next call
    should still end within seconds of the first one's start."""
    start = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)
        if (len(took) >= at_least
                and time.perf_counter() - start + statistics.median(took) > seconds):
            return


def end_to_end(w: Workload, env: dict, seconds: float) -> tuple[list, dict]:
    setup = setup_seconds(env)
    ops = []
    cmd = [sys.executable, *w.client]
    _repeat(lambda: ops.append(run_op(cmd, env, w.check)), seconds, MIN_OPS)
    good = [o for o in ops if not o.errors] or ops
    med = statistics.median
    return ops, {
        "wall_s": (med([o.wall for o in good]), "s"),
        "verdicts_per_s": (med([w.verdicts / o.wall for o in good]), "1/s"),
        "first_result_s": (med([o.first for o in good]), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (med([o.rss_mb for o in good]), "MB"),
        "ok_ops_share": (sum(not o.errors for o in ops) / len(ops), "ratio"),
    }


def per_layer(w: Workload, env: dict, seconds: float) -> tuple[list, dict]:
    ops, traced_ops, runs = [], [], []
    trace_path = WORK / f"{w.name}-trace.json"
    plain = [sys.executable, *w.client]
    traced = [sys.executable, "perfbench/spans.py", str(trace_path.relative_to(ROOT)),
              *w.traced]

    def pair():
        ops.append(run_op(plain, env, w.check))
        traced_ops.append(run_op(traced, env, w.check))
        if not traced_ops[-1].errors:
            with open(trace_path, encoding="ascii") as fh:
                runs.append(spans.analyse(json.load(fh)))
    _repeat(pair, seconds, 1)
    metrics = {}
    if runs:
        per_run = [spans.layer_metrics(a) for a in runs]
        for name, (_, unit) in per_run[0].items():
            metrics[name] = (statistics.median_low(m[name][0] for m in per_run), unit)
        _print_summary(w, runs[-1], metrics)
    metrics["trace.overhead_s"] = (
        statistics.median(o.wall for o in traced_ops)
        - statistics.median(o.wall for o in ops), "s")
    return ops + traced_ops, metrics


def _print_summary(w: Workload, a: dict, metrics: dict) -> None:
    print(f"spans of the last traced {w.name} operation "
          "(name: calls, inclusive s, self s; all processes):")
    for name, (calls, incl, self_s) in sorted(a["names"].items(),
                                              key=lambda kv: -kv[1][1]):
        print(f"  {name}: {calls} {incl:.4f} {self_s:.4f}")
    for name, (value, _) in metrics.items():
        if value == 0:
            layer = name.rsplit(".", 1)[0]
            why = w.notes.get(name) or w.notes.get(layer) or "no call reaches this layer"
            print(f"note: {name} is 0 on {w.name}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, no pinned digests (for selftest.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "distlap" / "__init__.py").is_file():
        print(f"error: no distlap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = _env()
    print("machine " + json.dumps(machine(env)), flush=True)
    w = WORKLOADS[args.workload](args.seed, args.smoke)
    measure = per_layer if args.trace else end_to_end
    ops, metrics = measure(w, env, args.seconds)
    failed = sum(bool(o.errors) for o in ops)
    print("ops " + json.dumps({"wall_s": [o.wall for o in ops],
                               "first_result_s": [o.first for o in ops],
                               "peak_rss_mb": [o.rss_mb for o in ops]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
