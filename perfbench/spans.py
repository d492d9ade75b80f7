"""In-memory span tracing of distlap's layer functions, and its analysis.

Run as a program, this is the traced client of one workload:

    python3 perfbench/spans.py OUT.json cli scan --check all --n 7 ...
    python3 perfbench/spans.py OUT.json sweep CASES_JSON

It wraps every layer function (LAYERS below) at every binding distlap holds
for it: module globals such as ``bounds.eigenvalues``, which modules import
by name, the package namespace, and registries such as ``CHECKS`` and
``SCAN_CHECKS``. ``Graph`` construction is timed through ``Graph.__init__``.
Each call records one span (name, start, end, parent) in memory; OUT.json is
written when the client ends.

Pool workers. The scan pool forks, so workers inherit the wrappers. A fork
hook empties the child's span list and remembers the span open in the parent
at the fork (the scan that started the pool) as the cause of the worker's
spans. Each worker writes its spans and counters to a side file after every
chunk it finishes, because the pool ends its workers with SIGTERM. Worker
spans form their own trees: self times are taken within one process, and
layer totals add main and worker time, so with two workers a layer can be
busy longer than the wall clock. ``verify.pool.map`` is the main process
waiting for the workers.
"""
from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.pool
import os
import sys
import time
from collections import Counter
from pathlib import Path

# layer -> the distlap functions ("module.name") whose calls make it up
LAYERS = {
    "cli.run": ["cli.run"],
    "graphs.enumerate": ["graphs.enumerate_connected"],
    "graphs.graph6": ["graphs.from_graph6", "graphs.to_graph6"],
    "graphs.graph_new": ["graphs.Graph"],
    "graphs.bfs": ["graphs.distance_data"],
    "graphs.connected": ["graphs.is_connected"],
    "spectra.assemble": ["spectra.distance_matrix", "spectra.dist_laplacian",
                         "spectra.dist_signless_laplacian", "spectra.laplacian",
                         "spectra.adjacency_matrix"],
    "spectra.profile": ["spectra.spectral_profile"],
    "linalg.eigen": ["linalg.eigenvalues"],
    # every scannable check joins as "check.<id>", from verify.SCAN_CHECKS
    "transforms.delete": ["transforms.delete_edge"],
    "transforms.graft": ["transforms.apply_graft"],
    "transforms.graft_check": ["transforms.check_graft_monotone_L",
                               "transforms.check_graft_monotone_Q"],
    "families.build": ["families.build"],
    "verify.scan": ["verify.scan"],
    "verify.emit": ["verify.emit_report"],
    "verify.family": ["verify.table1_regression", "verify.compare_kite_tstar",
                      "verify.check_lemma74"],
    "verify.chunk": ["verify._scan_chunk"],
}


class Recorder:
    """Spans and counters of the current process.

    A span is (index, name, start, end, parent index); a root span's parent
    is -1 in the main process and the remote cause (pid, index) in a
    forked worker."""

    def __init__(self, side_dir: Path):
        self.main_pid = self.pid = os.getpid()
        self.side_dir = side_dir
        self.base = 0
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.cause = None
        self.last_deleted = None

    def after_fork(self) -> None:
        self.cause = [self.pid, self.stack[-1]] if self.stack else None
        self.pid = os.getpid()
        self.base = 0
        self.spans, self.stack, self.counters = [], [], Counter()

    def flush_worker(self) -> None:
        """Append this worker's finished spans and counters to its side file."""
        rec = {"pid": self.pid, "cause": self.cause, "spans": self.spans,
               "counters": self.counters}
        with open(self.side_dir / f"worker-{self.pid}.jsonl", "a",
                  encoding="ascii") as fh:
            fh.write(json.dumps(rec) + "\n")
        self.base += len(self.spans)
        self.spans, self.counters = [], Counter()

    def dump(self) -> dict:
        procs = [{"pid": self.pid, "cause": None, "spans": self.spans,
                  "counters": self.counters}]
        for path in sorted(self.side_dir.glob("worker-*.jsonl")):
            with open(path, encoding="ascii") as fh:
                procs.extend(json.loads(line) for line in fh)
            path.unlink()
        return {"processes": procs}


def _span(rec: Recorder, name: str, fn, post=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans, stack = rec.spans, rec.stack
        idx = rec.base + len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx - rec.base] = (idx, name, t0, t1, parent)
        if post is not None:
            post(args, out)
        return out
    return traced


def _span_generator(rec: Recorder, name: str, fn):
    # all of a generator's work belongs to its span, so drain it inside one
    timed = _span(rec, name, lambda *a, **k: list(fn(*a, **k)))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        yield from timed(*args, **kwargs)
    return traced


def install(rec: Recorder) -> dict:
    """Rebind every distlap layer function to a tracing wrapper; returns
    span name -> layer for the analysis."""
    import distlap
    import distlap.cli
    import distlap.verify
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("distlap.")}
    targets = [(name, layer, getattr(mods.get(name.split(".")[0]), name.split(".")[1], None))
               for layer, names in LAYERS.items() for name in names]
    targets += [(f"check.{tid}", "bounds.check", fn)
                for tid, fn in distlap.verify.SCAN_CHECKS.items()]

    def note_eigen(args, spectrum):
        rec.counters["linalg.eigen.n3_sum"] += len(spectrum) ** 3

    def note_emit(args, data):
        rec.counters["verify.emit.bytes"] += len(data)

    def note_delete(args, g):
        rec.counters["transforms.delete.attempted"] += 1
        rec.last_deleted = g

    def note_connected(args, ok):
        if ok and args[0] is rec.last_deleted:
            rec.counters["transforms.delete.kept"] += 1

    posts = {"linalg.eigenvalues": note_eigen, "verify.emit_report": note_emit,
             "transforms.delete_edge": note_delete,
             "graphs.is_connected": note_connected}
    layer_of = {"verify.pool.map": "verify.pool"}
    wrapped = {}
    for name, layer, fn in targets:
        if fn is None or id(fn) in wrapped:
            continue
        layer_of[name] = layer
        if isinstance(fn, type):
            fn.__init__ = _span(rec, name, fn.__init__)
        elif inspect.isgeneratorfunction(fn):
            wrapped[id(fn)] = _span_generator(rec, name, fn)
        else:
            traced = _span(rec, name, fn, posts.get(name))
            if name == "verify._scan_chunk":
                traced = _flushing(rec, traced)
            wrapped[id(fn)] = traced
    for mod in [distlap, *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in wrapped:
                        val[key] = wrapped[id(item)]
    _trace_pool(rec)
    os.register_at_fork(after_in_child=rec.after_fork)
    return layer_of


def _flushing(rec: Recorder, fn):
    @functools.wraps(fn)
    def flushed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != rec.main_pid:
                rec.flush_worker()
    return flushed


def _trace_pool(rec: Recorder) -> None:
    pool_cls = multiprocessing.pool.Pool
    init, pool_map = pool_cls.__init__, pool_cls.map

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        rec.counters["verify.pool.started"] += 1
        init(self, *args, **kwargs)

    pool_cls.__init__ = counted_init
    pool_cls.map = _span(rec, "verify.pool.map", pool_map)


def main(argv: list) -> int:
    out = Path(argv[0])
    side = out.with_suffix(".workers")
    side.mkdir(parents=True, exist_ok=True)
    rec = Recorder(side)
    layer_of = install(rec)
    # the client's entry point is the root span: cli.run is traced already
    if argv[1] == "cli":
        import distlap.cli
        code = distlap.cli.run(argv[2:])
    else:
        import sweep
        layer_of["sweep.run"] = "sweep.run"
        code = _span(rec, "sweep.run", sweep.main)(*argv[2:])
    sys.stdout.flush()
    trace = rec.dump()
    trace["layer_of"] = layer_of
    with open(out, "w", encoding="ascii") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    side.rmdir()
    return code


# ---------------------------------------------------------------------------
# analysis


def analyse(trace: dict) -> dict:
    """Per-span-name and per-layer totals from a trace.

    Returns {"names": {name: [calls, inclusive_s, self_s]},
             "layers": {layer: [calls, outermost_inclusive_s, self_s]},
             "counters": Counter, "roots": {pid: [(start, end) of root spans]},
             "misplaced": {pid: spans reusing an index, lying outside their
                           parent or with negative self time}}.
    A layer's inclusive time counts only its spans that have no ancestor of
    the same layer, so nested calls are not counted twice."""
    layer_of = trace["layer_of"]
    names: dict = {}
    layers: dict = {}
    counters: Counter = Counter()
    roots: dict = {}
    misplaced: dict = {}
    for proc in trace["processes"]:
        counters.update(proc["counters"])
    by_pid: dict = {}
    for proc in trace["processes"]:
        by_pid.setdefault(proc["pid"], []).extend(proc["spans"])
    for pid, spans in by_pid.items():
        spans.sort(key=lambda s: s[0])
        index = {s[0]: s for s in spans}
        child_time: Counter = Counter()
        open_layers = {}
        for idx, name, t0, t1, parent in spans:
            if parent in index:
                child_time[parent] += t1 - t0
        root_spans = []
        bad = len(spans) - len(index)
        for idx, name, t0, t1, parent in spans:
            layer = layer_of.get(name, name)
            dur = t1 - t0
            self_s = dur - child_time[idx]
            bad += self_s < -1e-9
            if parent in index:
                _, pname, p0, p1, _ = index[parent]
                bad += not p0 <= t0 <= t1 <= p1
                above = open_layers[parent] | {layer_of.get(pname, pname)}
            else:
                above = frozenset()
                root_spans.append((t0, t1))
            open_layers[idx] = above
            n = names.setdefault(name, [0, 0.0, 0.0])
            lay = layers.setdefault(layer, [0, 0.0, 0.0])
            n[0] += 1
            n[1] += dur
            n[2] += self_s
            lay[0] += 1
            lay[2] += self_s
            if layer not in above:
                lay[1] += dur
        roots[pid] = root_spans
        misplaced[pid] = bad
    return {"names": names, "layers": layers, "counters": counters,
            "roots": roots, "misplaced": misplaced}


def layer_metrics(a: dict) -> dict:
    """The per-layer metrics of one traced run, with units."""
    lay, names, cnt = a["layers"], a["names"], a["counters"]

    def calls(layer):
        return lay.get(layer, [0, 0.0, 0.0])[0]

    def secs(layer):
        return lay.get(layer, [0, 0.0, 0.0])[1]

    out = {}
    for layer in ("graphs.enumerate", "graphs.graph6", "graphs.graph_new",
                  "graphs.bfs", "spectra.assemble", "spectra.profile",
                  "linalg.eigen", "transforms.graft", "families.build",
                  "verify.scan"):
        out[f"{layer}.s"] = (secs(layer), "s")
        out[f"{layer}.calls"] = (calls(layer), "count")
    out["graphs.connected.calls"] = (calls("graphs.connected"), "count")
    out["spectra.laplacian.calls"] = (names.get("spectra.laplacian", [0])[0], "count")
    out["linalg.eigen.n3_sum"] = (cnt["linalg.eigen.n3_sum"], "count")
    out["bounds.check.self_s"] = (lay.get("bounds.check", [0, 0.0, 0.0])[2], "s")
    out["bounds.check.calls"] = (calls("bounds.check"), "count")
    profiles = calls("spectra.profile")
    out["bounds.profile_reuse"] = (calls("bounds.check") / profiles if profiles else 0.0,
                                   "ratio")
    tried = cnt["transforms.delete.attempted"]
    out["transforms.deletion_kept_ratio"] = (
        cnt["transforms.delete.kept"] / tried if tried else 0.0, "ratio")
    out["verify.pool.started"] = (cnt["verify.pool.started"], "count")
    out["verify.pool.map_s"] = (secs("verify.pool"), "s")
    out["verify.emit.s"] = (secs("verify.emit"), "s")
    out["verify.emit.bytes"] = (cnt["verify.emit.bytes"], "bytes")
    out["cli.run.s"] = (secs("cli.run"), "s")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
