"""No module of the package binds a module-level import it never uses."""
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
