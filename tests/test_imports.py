"""No module of the package binds a module-level import it never uses,
every module-level private name is read somewhere in the package, each
checked statement id is registered by one @check, in SCAN_IDS order, every
optional parameter of the exported callables is one that a named caller
sets, and importing the package loads numpy with one OpenBLAS thread unless
the caller chose otherwise."""
import ast
import fnmatch
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distlap
from distlap import SCAN_IDS

SRC = Path(__file__).resolve().parent.parent / "src" / "distlap"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source that no expression
    reads; __future__ imports are not bindings."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_detector():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom math import inf, pi as tau\n"
              "x = np.zeros(1) + tau\n")
    assert unused_imports(source) == ["os", "inf"]


def test_no_unused_module_imports():
    # __init__ imports only to re-export, so it is left out
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def private_names(source: str) -> list[str]:
    """Module-level private names (_x, not dunders) that source defines by
    def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def read_names(source: str) -> set[str]:
    """Names that source reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_private_names_detector():
    source = ("_A = 1\n_b: int = 2\n__all__ = []\ndef _f(): pass\n"
              "class _C: pass\ndef _g(): return _A\nx = y._b\n")
    assert private_names(source) == ["_A", "_b", "_f", "_C", "_g"]
    assert {"_A", "_b"} <= read_names(source)
    assert not {"_f", "_C", "_g"} & read_names(source)


def test_no_unread_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    found = {name: [x for x in private_names(source) if x not in read]
             for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}


def check_ids(source: str) -> list[str]:
    """The ids of source's @check("...") decorators, in source order."""
    return [dec.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) for dec in node.decorator_list
            if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "check"]


def test_check_ids_registered_once_in_scan_order():
    source = '@check("A")\ndef f(s, tol): pass\n@check("A")\ndef g(s, tol): pass\n'
    assert check_ids(source) == ["A", "A"]
    # check would silently let a repeated id overwrite the first formula
    ids = [tid for path in sorted(SRC.glob("*.py"))
           for tid in check_ids(path.read_text(encoding="utf-8"))]
    assert len(set(ids)) == len(ids)
    assert tuple(ids) == SCAN_IDS


# "callable.parameter" pattern (fnmatch) -> the caller that sets it; a
# default that no caller overrides is a module constant, not a parameter
SET_BY = {
    "scan_reports.tolerance": "CLI scan --tolerance (cli._cmd_scan)",
    "scan_reports.fail_fast": "CLI scan --fail-fast (cli._cmd_scan)",
    "emit_report.format": "CLI --format (cli._emit)",
    "emit_report.precise": "CLI --precise (cli._emit)",
    "BoundVerdict.applicable": "verdict.not_applicable",
    "BoundVerdict.witness": "verdict.verdict and verdict.not_applicable",
    "not_applicable.*": "transforms' graft checks (bound_value, observed, witness)",
    "ScanReport.rows": "verify.table1_regression",
    "*.dprime": "the Theorem 3.1 fixture test, over the proof's d' values",
}


def optional_parameters(namespace) -> list[str]:
    """"callable.parameter" for each parameter with a default of the public
    callables in namespace and of their classes' public methods."""
    found = []
    for name, obj in sorted(vars(namespace).items()):
        if name.startswith("_") or not callable(obj):
            continue
        methods = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                   if not m.startswith("_") and callable(f)] if isinstance(obj, type) else []
        for label, f in [(name, obj), *methods]:
            try:
                params = inspect.signature(f).parameters.values()
            except ValueError:  # a builtin's signature, as for the exceptions
                continue
            found += [f"{label}.{p.name}" for p in params if p.default is not p.empty]
    return found


def test_optional_parameters_detector():
    class Ns:
        class C:
            def __init__(self, a, b=1): pass
            def get(self, c=2): pass
        def f(x, *, y=0): pass
        def _g(z=1): pass
        N = 3
    assert optional_parameters(Ns) == ["C.b", "C.get.c", "f.y"]


def test_every_optional_parameter_has_a_caller():
    params = optional_parameters(distlap)
    unset = [p for p in params
             if not any(fnmatch.fnmatchcase(p, pattern) for pattern in SET_BY)]
    assert unset == []
    # no allowance outlives its parameter
    stale = [pattern for pattern in SET_BY
             if not any(fnmatch.fnmatchcase(p, pattern) for p in params)]
    assert stale == []


# prints [OpenBLAS threads after `import numpy` (argument "numpy" only), after
# `import distlap`, os.environ's OPENBLAS_NUM_THREADS]; a count is None when
# no OpenBLAS library is mapped
THREAD_PROBE = """
import ctypes, json, os, sys

def threads():
    maps = "/proc/self/maps"
    libs = sorted({line.split()[-1] for line in open(maps)
                   if "openblas" in line.split()[-1]}) if os.path.exists(maps) else []
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(libs[0]), name, None) if libs else None
        if get:
            return get()
    return None

first = None
if sys.argv[1:] == ["numpy"]:
    import numpy
    first = threads()
import distlap
print(json.dumps([first, threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def test_numpy_loads_with_one_openblas_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    cases = {"default": (env, []), "numpy first": (env, ["numpy"]),
             "caller's count": (dict(env, OPENBLAS_NUM_THREADS="2"), [])}
    procs = {case: subprocess.Popen([sys.executable, "-c", THREAD_PROBE, *args],
                                    env=case_env, stdout=subprocess.PIPE, text=True)
             for case, (case_env, args) in cases.items()}
    got = {case: json.loads(proc.communicate(timeout=60)[0])
           for case, proc in procs.items()}
    if got["default"][1] is None:
        pytest.skip("no OpenBLAS library is mapped")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS starts one thread whatever it is told")
    # the pool is declined and the environment left as it was
    assert got["default"] == [None, 1, None]
    # numpy's own default, from a load before distlap's, is left alone
    first, threads, _ = got["numpy first"]
    assert threads == first > 1
    # a caller's count wins
    assert got["caller's count"] == [None, 2, "2"]
