"""No module of the package binds a module-level import it never uses,
and every module-level private name is read somewhere in the package."""
import ast
from pathlib import Path

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
